package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import scala.annotation.tailrec

/** The fixpoint loop of Algorithm 1 (lines 8–9): `T ← T ∪ (T·T)` until `T`
  * stops changing. Every optimized engine runs its closure through
  * [[Closure.run]] and supplies only the step, which the semi-naive ones
  * form with [[Closure.fresh]]; [[NaiveSetMatrixCFPQ]], the literal
  * reference, iterates its set matrices itself.
  */
object Closure {

  /** Applies `step` from `init` until a step adds nothing. `T` only grows,
    * so a step that adds no cell leaves `T` unchanged, and the steps together
    * add at most `T`'s `capacity` ([[Closure.capacity]]): a step that brings
    * the sum past it re-reports cells, and the loop fails there, naming the
    * step, instead of running forever.
    *
    * @param capacity the most cells the steps may add in all, `|N|·n²`
    * @param release frees a state once `step` has built its successor (the
    *                Spark engines unpersist it); steps that update their
    *                state in place leave it out
    * @param step    one closure step: the successor and the cells it added
    *                per nonterminal. It must take every product against the
    *                state it is given before adding any of them, or the
    *                iteration count drops below Algorithm 1's
    * @return the last state and each step's added cells, zero entries dropped:
    *         one map per iteration, the last one empty (§4.3: k = 6, T₆ = T₅)
    */
  def run[S](init: S, capacity: Long)(release: S => Unit = (_: S) => ())(
      step: S => (S, Map[String, Long])): (S, Seq[Map[String, Long]]) = {
    @tailrec def loop(cur: S, added: Vector[Map[String, Long]], sum: Long): (S, Seq[Map[String, Long]]) = {
      val (next, grown) = step(cur)
      release(cur)
      val nonZero = grown.filter(_._2 != 0)
      val total = sum + nonZero.values.sum
      if (total > capacity) throw new IllegalStateException(
        s"closure step ${added.length + 1} brings the cells added to $total, more than the $capacity cells T holds: a step re-reports cells")
      if (nonZero.isEmpty) (next, added :+ nonZero) else loop(next, added :+ nonZero, total)
    }
    loop(init, Vector.empty, 0L)
  }

  /** `|N|·n²`, the most cells `T` holds over `graph`'s `n` nodes (at least 1). */
  def capacity(graph: LabeledGraph, grammar: CnfGrammar): Long = {
    val n = BigInt(math.max(graph.numNodes, 1))
    (n * n * grammar.nonterminals.size).min(Long.MaxValue).toLong
  }

  /** One semi-naive step's new cells (Bancilhon & Ramakrishnan 1986), `Δ'_A =
    * (⋃_{A→BC} Δ_B × T_C ∪ T_B × Δ_C) ∖ T_A` for every left-hand side `A`: one
    * `multiplyMasked(left, right, mask)` call over the pre-step `t` and `Δ`, the
    * cells new in the last step (`Δ₀ = T₀`; absent is empty). As `(T ∪ Δ)·(T ∪ Δ)`
    * adds to `T ∪ Δ` what `Δ·(T ∪ Δ) ∪ (T ∪ Δ)·Δ` adds when `T·T ⊆ T ∪ Δ`, the
    * iterates are Algorithm 1's and `|Δ'_A|` is what the step adds to `A`.
    *
    * A right term is `(t_B, Δ_C, t_C)`: a kernel may take it as `t_B × t_C|rows(Δ_C)`, `t_C` at `Δ_C`'s non-empty
    * rows. With `t = T ∪ Δ` that is `t_B × Δ_C ∪ T_B × T_C|… ∪ Δ_B × T_C|…`, whose last two parts are masked
    * (`T_B × T_C ⊆ T ∪ Δ`) or the left term's product, so `Δ'` is the same.
    *
    * @return `(A, Δ'_A, |Δ'_A|)` for every non-empty `Δ'_A`
    */
  def fresh[M, D](rulesByLhs: Map[String, Seq[(String, String, String)]], t: String => M, delta: Map[String, D])(
      multiplyMasked: (Seq[(D, M)], Seq[(M, D, M)], M) => D, deltaCells: D => Long): Seq[(String, D, Long)] =
    for {
      (a, rules) <- rulesByLhs.toSeq
      left = rules.flatMap { case (_, b, c) => delta.get(b).map(_ -> t(c)) }
      right = rules.flatMap { case (_, b, c) => delta.get(c).map((t(b), _, t(c))) }
      if left.nonEmpty || right.nonEmpty
      d = multiplyMasked(left, right, t(a))
      n = deltaCells(d) if n > 0
    } yield (a, d, n)
}

/** Algorithm 1 over one local Boolean matrix `M_A` per nonterminal, evaluated
  * semi-naively: a step is [[Closure.fresh]] against the pre-iteration `T`,
  * then `M_A ← M_A ∪ Δ'_A`. Engines supply only the kernel and the two
  * representations: `M` for `T`, `D` for `Δ` and `Δ'`.
  */
abstract class LocalMatrixCFPQ[M, D] extends CFPQEngine {

  /** `T₀_A` and `Δ₀_A` of an n×n matrix, both holding the distinct `cells`. */
  protected def init(n: Int, cells: Seq[(Int, Int)]): (M, D)

  /** `(⋃_{(δ, t) ∈ left} δ × t ∪ ⋃_{(t, δ, u) ∈ right} t × δ) ∖ mask`, or with `t × u|rows(δ)` ([[Closure.fresh]]). */
  protected def multiplyMasked(left: Seq[(D, M)], right: Seq[(M, D, M)], mask: M): D

  /** `a ∪ d`; it may update `a` in place and return it. */
  protected def union(a: M, d: D): M
  protected def cells(m: M): Long
  protected def deltaCells(d: D): Long
  /** The cells of `m` as sorted, distinct [[Relation]] cells. */
  protected def toPacked(m: M): Array[Long]

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val n = math.max(graph.numNodes, 1)
    val cellsByNt = MatrixInit.cells(graph, grammar)
    val t0 = grammar.nonterminals.iterator
      .map(nt => nt -> init(n, cellsByNt.getOrElse(nt, Seq.empty))).toMap
    val rulesByLhs = grammar.binary.groupBy(_._1)
    // State: T and the non-empty Δs (an absent Δ is empty).
    val start = (t0.map { case (nt, (m, _)) => nt -> m }, t0.collect { case (nt, (_, d)) if deltaCells(d) > 0 => nt -> d })
    val ((t, _), added) = Closure.run(start, Closure.capacity(graph, grammar))() { case (t, delta) =>
      val fresh = Closure.fresh(rulesByLhs, t, delta)(multiplyMasked, deltaCells)
      ((t ++ fresh.map { case (a, d, _) => a -> union(t(a), d) }, fresh.map { case (a, d, _) => a -> d }.toMap),
        fresh.map { case (a, _, n) => a -> n }.toMap)
    }
    CFPQResult(t.map { case (nt, m) => Relation.requireFits(nt, cells(m)); nt -> Relation.sorted(toPacked(m)) },
      added.length, added)
  }
}
