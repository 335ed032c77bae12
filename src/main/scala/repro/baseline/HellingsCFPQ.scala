package repro.baseline

import scala.collection.mutable
import repro.cfg.CnfGrammar
import repro.core.{CFPQEngine, CFPQResult, MatrixInit, Relation}
import repro.graph.LabeledGraph

/** The classical single-item worklist CFPQ algorithm (Hellings [6]; the
  * RDF evaluator of Zhang et al. [16] is the same dynamic program) — the
  * paper's non-matrix comparator family.
  *
  * Invariant: `rel` holds derived items `(A, i, j)` meaning `(i,j) ∈ R_A`;
  * the worklist holds items whose consequences have not been propagated.
  * Popping `(B, i, j)` fires every rule `A → BC` against items `(C, j, k)`
  * and every rule `A → CB` against items `(C, k, i)`.
  *
  * Complexity is per-*item-pair*, not per-matrix-operation: each derived
  * pair is touched individually, which is exactly why this family loses to
  * the batched matrix engines on graphs with large dense relations
  * (the paper's g1–g3 rows).
  */
object HellingsCFPQ extends CFPQEngine {
  override val name = "Hellings"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    // rel(A): i -> set of j, plus the reverse index j -> set of i.
    val fwd = mutable.Map.empty[String, mutable.Map[Int, mutable.Set[Int]]]
    val bwd = mutable.Map.empty[String, mutable.Map[Int, mutable.Set[Int]]]
    val work = mutable.ArrayDeque.empty[(String, Int, Int)]

    def add(a: String, i: Int, j: Int): Unit = {
      val f = fwd.getOrElseUpdate(a, mutable.Map.empty).getOrElseUpdate(i, mutable.Set.empty)
      if (f.add(j)) {
        bwd.getOrElseUpdate(a, mutable.Map.empty).getOrElseUpdate(j, mutable.Set.empty).add(i)
        work.append((a, i, j))
      }
    }

    MatrixInit.cells(graph, grammar).foreach { case (a, pairs) =>
      pairs.foreach { case (i, j) => add(a, i, j) }
    }

    while (work.nonEmpty) {
      val (b, i, j) = work.removeHead()
      // A -> B C with this item as B: need (C, j, k). Snapshot before
      // adding — add() may mutate the very set being iterated when A = C.
      grammar.byFirst.getOrElse(b, Seq.empty).foreach { case (a, c) =>
        fwd.get(c).flatMap(_.get(j)).foreach(s => s.toArray.foreach(k => add(a, i, k)))
      }
      // A -> C B with this item as B: need (C, k, i)
      grammar.bySecond.getOrElse(b, Seq.empty).foreach { case (a, c) =>
        bwd.get(c).flatMap(_.get(i)).foreach(s => s.toArray.foreach(k => add(a, k, j)))
      }
    }

    val rels = fwd.map { case (a, m) =>
      a -> Relation(m.iterator.flatMap { case (i, js) => js.iterator.map(Relation.pack(i, _)) }.toArray)
    }.toMap
    CFPQResult(rels, iterations = 1) // worklist algorithms have no closure iterations
  }
}
