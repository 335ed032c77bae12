package cfpqbench

import repro.cfg.CnfGrammar
import repro.core.{CFPQResult, MatrixInit}
import repro.graph.LabeledGraph
import repro.linalg.{BitMatrix, BoolCSR}

/** Time spent in, and work done by, one matrix kernel during a replay of
  * Algorithm 1 (the naive closure `T ← T ∪ (T·T)` to fixpoint).
  *
  * @param multiplyCalls number of kernel products
  * @param productCells  Σ nnz of the product outputs
  * @param newCells      cells the closure added to `T` after init
  */
final case class ReplayStats(result: CFPQResult,
                             multiplyCalls: Long,
                             multiplyNs: Long,
                             unionNs: Long,
                             extractNs: Long,
                             productCells: Long,
                             newCells: Long) {
  def usefulRatio: Double = if (productCells == 0) 0.0 else newCells.toDouble / productCells
  def nsPerProductCell: Double = if (productCells == 0) 0.0 else multiplyNs.toDouble / productCells
}

/** Replays of Algorithm 1 built only from the public kernels, timed call
  * by call from outside the kernel. They follow the engines' loops (rules
  * grouped by left-hand side, products against the pre-iteration `T`, the
  * same fixpoint test), and [[Main]] checks on every traced run that each
  * replay returns exactly the relations and iteration count of the engine
  * it mirrors, so the per-call timings describe what that engine does.
  */
object Replay {

  private final class Clock {
    var ns = 0L
    def apply[A](body: => A): A = {
      val t0 = System.nanoTime()
      val r = body
      ns += System.nanoTime() - t0
      r
    }
  }

  /** The `SparseCFPQ` loop over [[BoolCSR]]. */
  def csr(graph: LabeledGraph, grammar: CnfGrammar): ReplayStats = {
    val n = math.max(graph.numNodes, 1)
    val init = MatrixInit.cells(graph, grammar)
    var mats: Map[String, BoolCSR] = grammar.nonterminals.iterator.map { nt =>
      nt -> BoolCSR.fromPairs(n, n, init.getOrElse(nt, Seq.empty))
    }.toMap
    val initCells = mats.values.map(_.nnz.toLong).sum
    val mul, uni, ext = new Clock
    var calls, productCells = 0L
    var iterations = 0
    var changed = true
    while (changed) {
      iterations += 1
      val products = grammar.binary.groupBy(_._1).map { case (a, rules) =>
        val parts = rules.map { case (_, b, c) =>
          val p = mul(mats(b).multiply(mats(c)))
          calls += 1
          productCells += p.nnz
          p
        }
        a -> uni(parts.reduce(_ union _))
      }
      changed = false
      mats = mats.map { case (nt, m) =>
        products.get(nt) match {
          case Some(p) =>
            val u = uni(m.union(p))
            if (u.nnz != m.nnz) changed = true
            nt -> u
          case None => nt -> m
        }
      }
    }
    val finalCells = mats.values.map(_.nnz.toLong).sum
    val rels = ext(mats.map { case (nt, m) => nt -> m.toPairs.toSet })
    ReplayStats(CFPQResult(rels, iterations), calls, mul.ns, uni.ns, ext.ns, productCells,
      finalCells - initCells)
  }

  /** The `DenseCFPQ` loop over [[BitMatrix]]. */
  def bit(graph: LabeledGraph, grammar: CnfGrammar): ReplayStats = {
    val n = math.max(graph.numNodes, 1)
    val mats: Map[String, BitMatrix] = grammar.nonterminals.iterator.map(_ -> new BitMatrix(n)).toMap
    MatrixInit.cells(graph, grammar).foreach { case (nt, pairs) =>
      val m = mats(nt)
      pairs.foreach { case (i, j) => m.set(i, j) }
    }
    val initCells = mats.values.map(_.cardinality).sum
    val mul, or, ext = new Clock
    var calls, productCells = 0L
    var iterations = 0
    var changed = true
    while (changed) {
      iterations += 1
      val products = grammar.binary.groupBy(_._1).map { case (a, rules) =>
        val acc = new BitMatrix(n)
        rules.foreach { case (_, b, c) =>
          val p = mul(mats(b).multiply(mats(c)))
          calls += 1
          productCells += p.cardinality
          or(acc.orInPlace(p))
        }
        a -> acc
      }
      changed = products.foldLeft(false) { case (ch, (a, p)) => or(mats(a).orInPlace(p)) || ch }
    }
    val finalCells = mats.values.map(_.cardinality).sum
    val rels = ext(mats.map { case (nt, m) => nt -> m.toPairs.toSet })
    ReplayStats(CFPQResult(rels, iterations), calls, mul.ns, or.ns, ext.ns, productCells,
      finalCells - initCells)
  }
}
