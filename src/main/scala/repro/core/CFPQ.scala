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
  */
final case class CFPQResult private (relations: Map[String, Set[(Int, Int)]], iterations: Int) {
  def apply(nt: String): Set[(Int, Int)] = relations.getOrElse(nt, Set.empty)
  def count(nt: String): Int = apply(nt).size

  def copy(relations: Map[String, Set[(Int, Int)]] = this.relations,
           iterations: Int = this.iterations): CFPQResult = CFPQResult(relations, iterations)
}

object CFPQResult {
  def apply(relations: Map[String, Set[(Int, Int)]], iterations: Int): CFPQResult =
    new CFPQResult(relations.filter(_._2.nonEmpty), iterations)
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
  def cells(graph: LabeledGraph, grammar: CnfGrammar): Map[String, Seq[(Int, Int)]] = {
    val perNt = scala.collection.mutable.Map.empty[String, Vector[(Int, Int)]]
    graph.byLabel.foreach { case (label, pairs) =>
      grammar.byTerminal.getOrElse(label, Set.empty).foreach { nt =>
        perNt.updateWith(nt) {
          case Some(v) => Some(v ++ pairs)
          case None    => Some(pairs)
        }
      }
    }
    perNt.view.mapValues(_.distinct).toMap
  }
}
