package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import scala.annotation.tailrec

/** The fixpoint loop of Algorithm 1 (lines 8–9): `T ← T ∪ (T·T)` until `T`
  * stops changing. Every optimized engine runs its closure through
  * [[Closure.run]] and supplies only the step; [[NaiveSetMatrixCFPQ]] keeps
  * its own loop as the literal reference.
  */
object Closure {

  /** Applies `step` from `init` until the total cell count stops changing.
    * `T` only grows, so an unchanged count means an unchanged `T`.
    *
    * @param cells   total number of set cells of a state
    * @param release frees a state once `step` has built its successor (the
    *                Spark engines unpersist it); steps that update their
    *                state in place leave it out
    * @param step    one closure step; it must take every product against
    *                the state it is given before adding any of them, or
    *                the iteration count drops below Algorithm 1's
    * @return the last state and the number of steps, counting the final
    *         no-change one (the paper's §4.3 example: k = 6, since T₆ = T₅)
    */
  def run[S](init: S)(cells: S => Long, release: S => Unit = (_: S) => ())(step: S => S): (S, Int) = {
    @tailrec def loop(cur: S, size: Long, iterations: Int): (S, Int) = {
      val next = step(cur)
      val nextSize = cells(next)
      release(cur)
      if (nextSize == size) (next, iterations) else loop(next, nextSize, iterations + 1)
    }
    loop(init, cells(init), 1)
  }
}

/** Algorithm 1 over one local Boolean matrix `M_A` per nonterminal. One
  * closure step computes, against the pre-iteration `T`,
  * `P_A = ⋃_{A→BC} M_B × M_C` for every left-hand side `A` and then
  * `M_A ← M_A ∪ P_A` (that is `T ← T ∪ (T·T)`). Engines supply only the
  * matrix kernel.
  */
abstract class LocalMatrixCFPQ[M] extends CFPQEngine {

  protected def fromPairs(n: Int, pairs: Seq[(Int, Int)]): M
  protected def multiply(a: M, b: M): M

  /** `a ∪ b`; it may update `a` in place and return it. */
  protected def union(a: M, b: M): M
  protected def cells(m: M): Long
  protected def toPairs(m: M): Seq[(Int, Int)]

  final override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val n = math.max(graph.numNodes, 1)
    val init = MatrixInit.cells(graph, grammar)
    val t0 = grammar.nonterminals.iterator.map(nt => nt -> fromPairs(n, init.getOrElse(nt, Seq.empty))).toMap
    val rulesByLhs = grammar.binary.groupBy(_._1)
    val (t, iterations) = Closure.run(t0)(_.values.map(cells).sum) { t =>
      val products = rulesByLhs.map { case (a, rules) =>
        a -> rules.map { case (_, b, c) => multiply(t(b), t(c)) }.reduce(union)
      }
      t ++ products.map { case (a, p) => a -> union(t(a), p) }
    }
    CFPQResult(t.map { case (nt, m) => nt -> toPairs(m).toSet }, iterations)
  }
}
