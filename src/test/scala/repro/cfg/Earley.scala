package repro.cfg

import scala.collection.mutable

/** Earley recognizer for arbitrary context-free grammars.
  *
  * Used as the *membership oracle* when validating the CNF transformation:
  * Earley on the original grammar must agree with CYK on the transformed
  * grammar for every word (up to a test bound).
  *
  * Handles ε-productions via the standard "complete immediately on
  * prediction of a nullable item" treatment (items are re-processed until
  * each chart set is closed).
  */
object Earley {

  private final case class Item(prod: Int, dot: Int, origin: Int)

  /** A CNF grammar viewed as a plain [[Grammar]], to run Earley on it. */
  def toGrammar(g: CnfGrammar): Grammar = Grammar(
    g.binary.map { case (a, b, c) => Production(a, Seq(N(b), N(c))) } ++
      g.term.map { case (a, x) => Production(a, Seq(T(x))) }
  )

  /** Is `word` (a sequence of terminal labels) derivable from `start`? */
  def accepts(g: Grammar, start: String, word: Seq[String]): Boolean = {
    val prods = g.productions.toIndexedSeq
    val n = word.length
    val chart = Array.fill(n + 1)(mutable.LinkedHashSet.empty[Item])

    def predictAndComplete(pos: Int): Unit = {
      val set = chart(pos)
      val queue = mutable.Queue.empty[Item] ++= set
      def add(it: Item): Unit = if (set.add(it)) queue.enqueue(it)
      while (queue.nonEmpty) {
        val it = queue.dequeue()
        val rhs = prods(it.prod).rhs
        if (it.dot < rhs.length) rhs(it.dot) match {
          case N(b) =>
            prods.indices.foreach { pi =>
              if (prods(pi).lhs == b) add(Item(pi, 0, pos))
            }
            // magical completion: if some B-item is already complete at pos
            set.toVector.foreach { done =>
              if (done.dot == prods(done.prod).rhs.length &&
                  prods(done.prod).lhs == b && done.origin == pos)
                add(it.copy(dot = it.dot + 1))
            }
          case T(_) => () // scanned later
        } else {
          // complete: advance every item in chart(origin) waiting on lhs
          val a = prods(it.prod).lhs
          chart(it.origin).toVector.foreach { wait =>
            val wrhs = prods(wait.prod).rhs
            if (wait.dot < wrhs.length && wrhs(wait.dot) == N(a)) {
              val advanced = wait.copy(dot = wait.dot + 1)
              if (it.origin == pos) add(advanced)
              else if (set.add(advanced)) queue.enqueue(advanced)
            }
          }
        }
      }
    }

    // seed with all productions of the start nonterminal
    prods.indices.foreach { pi =>
      if (prods(pi).lhs == start) chart(0).add(Item(pi, 0, 0))
    }
    (0 to n).foreach { pos =>
      predictAndComplete(pos)
      if (pos < n) {
        val tok = word(pos)
        chart(pos).foreach { it =>
          val rhs = prods(it.prod).rhs
          if (it.dot < rhs.length && rhs(it.dot) == T(tok))
            chart(pos + 1).add(it.copy(dot = it.dot + 1))
        }
      }
    }
    chart(n).exists { it =>
      prods(it.prod).lhs == start && it.origin == 0 &&
        it.dot == prods(it.prod).rhs.length
    }
  }

  /** Enumerate all words over `alphabet` of length in [1, maxLen] accepted
    * from `start` — brute-force; for small oracle comparisons only.
    */
  def language(g: Grammar, start: String, alphabet: Seq[String], maxLen: Int): Set[Seq[String]] = {
    def words(len: Int): Iterator[Seq[String]] =
      if (len == 0) Iterator(Seq.empty)
      else words(len - 1).flatMap(w => alphabet.iterator.map(w :+ _))
    (1 to maxLen).iterator
      .flatMap(words)
      .filter(w => accepts(g, start, w))
      .toSet
  }
}
