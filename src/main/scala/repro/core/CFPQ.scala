package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Result of a context-free path query evaluation under relational query
  * semantics (paper §2): for nonterminal `A`, `relations(A)` is
  * `R_A = {(m, n) | ∃ path m→n with label word in L(G_A)}`.
  *
  * @param relations  R_A per nonterminal; construction drops empty
  *                   relations, so every engine's result has one shape
  *                   (absent key = empty relation)
  * @param iterations number of closure iterations executed, counting the
  *                   final no-change iteration, as in the paper's example
  *                   (§4.3 reports k = 6 because T₆ = T₅)
  * @param added      the cells each closure iteration added per nonterminal,
  *                   zero entries dropped: one map per iteration, the last
  *                   empty. Empty where no closure ran (the baselines), and
  *                   compared by equality only where both results carry it.
  */
final case class CFPQResult private (relations: Map[String, Set[(Int, Int)]], iterations: Int, added: Seq[Map[String, Long]]) {
  def apply(nt: String): Set[(Int, Int)] = relations.getOrElse(nt, Set.empty)
  def count(nt: String): Int = apply(nt).size

  def copy(relations: Map[String, Set[(Int, Int)]] = this.relations, iterations: Int = this.iterations,
           added: Seq[Map[String, Long]] = this.added): CFPQResult = CFPQResult(relations, iterations, added)

  override def equals(other: Any): Boolean = other match {
    case r: CFPQResult => relations == r.relations && iterations == r.iterations &&
      (added.isEmpty || r.added.isEmpty || added == r.added)
    case _ => false
  }
  override def hashCode: Int = (relations, iterations).##
}

object CFPQResult {
  def apply(relations: Map[String, Set[(Int, Int)]], iterations: Int,
            added: Seq[Map[String, Long]] = Seq.empty): CFPQResult =
    new CFPQResult(relations.filter(_._2.nonEmpty), iterations, added)
}

/** A CFPQ evaluator. Implementations must agree exactly on `R_A` for every
  * nonterminal they claim completeness for ([[relationalComplete]]).
  */
trait CFPQEngine {

  /** Short name used in benchmark tables (e.g. "sCPU"). */
  def name: String

  /** Evaluate all context-free relations of `grammar` over `graph`. */
  def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult

  /** Whether `solve` computes R_A for *all* nonterminals (matrix engines)
    * or only for the queried start nonterminal (top-down baselines).
    */
  def relationalComplete: Boolean = true
}

/** Shared initialization: the paper's Algorithm 1 lines 6–7.
  * `T[i,j] ← {A | (i,x,j) ∈ E, (A → x) ∈ P}`, here organized as one
  * Boolean cell list per nonterminal.
  */
object MatrixInit {

  /** A nonterminal that derives one terminal shares `graph.byLabel`'s
    * already distinct cells; one that derives several is deduplicated.
    */
  def cells(graph: LabeledGraph, grammar: CnfGrammar): Map[String, Seq[(Int, Int)]] =
    graph.byLabel.toSeq
      .flatMap { case (label, pairs) => grammar.byTerminal.getOrElse(label, Set.empty).iterator.map(_ -> pairs) }
      .groupMap(_._1)(_._2)
      .map { case (nt, Seq(pairs)) => nt -> pairs; case (nt, all) => nt -> all.flatten.distinct }
}
