package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** The most literal transcription of the paper's Algorithm 1: the matrix
  * `T` is kept as an actual `|V|×|V|` matrix of *sets of nonterminals*,
  * and one step computes `T ← T ∪ (T · T)` with the paper's set-product
  * `N₁·N₂ = {A | A→BC ∈ P, B ∈ N₁, C ∈ N₂}`.
  *
  * Quadratic-dense and slow — it exists as the executable ground truth:
  * every optimized engine is tested cell-for-cell against it, and
  * [[steps]] exposes the intermediate matrices T₀, T₁, … of §4.3.
  */
object NaiveSetMatrixCFPQ extends CFPQEngine {
  override val name = "NaiveSetMatrix"

  type SetMatrix = Vector[Vector[Set[String]]]

  /** Matrix initialization (Algorithm 1, lines 6–7). */
  def initial(graph: LabeledGraph, grammar: CnfGrammar): SetMatrix = {
    val n = graph.numNodes
    val t = Array.fill(n, n)(Set.empty[String])
    graph.edges.foreach { case (i, x, j) =>
      t(i)(j) ++= grammar.byTerminal.getOrElse(x, Set.empty)
    }
    t.map(_.toVector).toVector
  }

  /** One closure step: `T ∪ (T · T)` (Algorithm 1, line 9). */
  def step(t: SetMatrix, grammar: CnfGrammar): SetMatrix = {
    val n = t.length
    Vector.tabulate(n, n) { (i, k) =>
      val product = (0 until n).foldLeft(Set.empty[String]) { (acc, j) =>
        acc ++ (for {
          b <- t(i)(j); c <- t(j)(k)
          a <- grammar.byPair.getOrElse((b, c), Set.empty)
        } yield a)
      }
      t(i)(k) ++ product
    }
  }

  /** T₀, T₁, T₂, … — the sequence stabilizes; callers take while changing. */
  def steps(graph: LabeledGraph, grammar: CnfGrammar): LazyList[SetMatrix] =
    LazyList.iterate(initial(graph, grammar))(step(_, grammar))

  /** Iterates up to the first `k` with `T_k = T_{k−1}`: `k` iterations,
    * counting the final no-change one. Step `i` added `|T_i,A| − |T_{i−1},A|`
    * cells to `A`.
    */
  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val ts = steps(graph, grammar)
    val k = ts.zip(ts.tail).indexWhere { case (prev, next) => prev == next } + 1
    val rels = ts.take(k + 1).toVector.map(t => (for {
      i <- t.indices; j <- t.indices; a <- t(i)(j)
    } yield (a, (i, j))).groupMap(_._1)(_._2))
    val added = rels.zip(rels.tail).map { case (prev, next) =>
      next.map { case (a, ps) => a -> (ps.size - prev.get(a).fold(0)(_.size).toLong) }.filter(_._2 != 0)
    }
    CFPQResult(rels.last.map { case (a, ps) => a -> ps.toSet }, k, added)
  }
}
