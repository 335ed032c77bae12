package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.baseline.{GllCFPQ, HellingsCFPQ}
import repro.cfg.{CnfGrammar, CNF, Grammar, Queries}
import repro.graph.LabeledGraph

/** Test fixtures shared by the equivalence suites. */
object EngineFixtures {

  /** (name, original grammar, CNF, start nonterminal) */
  val grammars: Seq[(String, Grammar, CnfGrammar, String)] = Seq(
    ("q1-same-generation", Queries.q1, Queries.q1CnfPaper, "S"),
    ("q2-adjacent-layer", Queries.q2, Queries.q2Cnf, "S"),
    ("anbn", Grammar.parse("S -> a S b | a b"),
      CNF.transform(Grammar.parse("S -> a S b | a b")), "S"),
    ("brackets", Grammar.parse("S -> S S | a S b | a b"),
      CNF.transform(Grammar.parse("S -> S S | a S b | a b")), "S"),
  )

  /** No binary rules: the closure adds nothing to `T₀`. No edge is labelled
    * `c`, so `C` has an empty relation.
    */
  val termOnly: CnfGrammar = CnfGrammar(binary = Seq.empty, term = Seq(("A", "a"), ("B", "b"), ("C", "c")))

  /** What every matrix engine must return for [[termOnly]]: exactly the
    * initial cells, after one (no-change) iteration.
    */
  def termOnlyResult(graph: LabeledGraph): CFPQResult =
    CFPQResult(MatrixInit.cells(graph, termOnly).map { case (nt, ps) => nt -> ps.toSet }, 1)

  def randomGraph(rnd: Random, alphabet: Seq[String], maxNodes: Int = 10): LabeledGraph = {
    val n = 2 + rnd.nextInt(maxNodes - 1)
    val m = 1 + rnd.nextInt(3 * n)
    val edges = Vector.fill(m)(
      (rnd.nextInt(n), alphabet(rnd.nextInt(alphabet.length)), rnd.nextInt(n))
    )
    LabeledGraph(n, edges)
  }
}

/** All local engines must agree cell-for-cell with the literal Algorithm 1
  * transcription ([[NaiveSetMatrixCFPQ]]) on randomized graphs — for every
  * nonterminal (matrix engines and Hellings) or for the start nonterminal
  * (GLL, which only explores called nonterminals).
  */
class EngineEquivalenceSpec extends AnyFunSuite {
  import EngineFixtures._

  for {
    (gname, orig, cnf, start) <- grammars
    i <- 0 until 12
  } test(s"[$gname #$i] Dense/Sparse/Hellings match NaiveSetMatrix; GLL matches on R_$start") {
    val rnd = new Random(gname.hashCode * 1000 + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted)
    val truth = NaiveSetMatrixCFPQ.solve(graph, cnf)

    // Relations and iteration counts.
    assert(DenseCFPQ.solve(graph, cnf) == truth, "Dense")
    assert(SparseCFPQ.solve(graph, cnf) == truth, "Sparse")
    assert(HellingsCFPQ.solve(graph, cnf).relations == truth.relations, "Hellings")
    assert(new GllCFPQ(orig, start).solve(graph)(start) == truth(start), "GLL")
  }

  for {
    (gname, _, cnf, _) <- grammars
    i <- 0 until 3
  } test(s"[$gname #$i] Dense and Sparse report identical iteration counts") {
    val rnd = new Random(gname.hashCode * 77 + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted)
    val naive = NaiveSetMatrixCFPQ.solve(graph, cnf).iterations
    assert(DenseCFPQ.solve(graph, cnf).iterations == naive)
    assert(SparseCFPQ.solve(graph, cnf).iterations == naive)
  }

  test("no binary rules: one iteration, exactly the initial cells, on every local matrix engine") {
    for (i <- 0 until 4) {
      val graph = randomGraph(new Random(31 + i), Seq("a", "b", "x"))
      Seq(NaiveSetMatrixCFPQ, DenseCFPQ, SparseCFPQ).foreach { e =>
        assert(e.solve(graph, termOnly) == termOnlyResult(graph), s"${e.name} #$i")
      }
    }
  }

  test("empty graph yields empty relations everywhere") {
    val graph = LabeledGraph(0, Vector.empty)
    val cnf = Queries.q1CnfPaper
    assert(NaiveSetMatrixCFPQ.solve(graph, cnf).relations.isEmpty)
    assert(SparseCFPQ.solve(graph, cnf).relations.isEmpty)
    assert(DenseCFPQ.solve(graph, cnf).relations.isEmpty)
    assert(HellingsCFPQ.solve(graph, cnf).relations.isEmpty)
    assert(new GllCFPQ(Queries.q1, "S").solve(graph)("S").isEmpty)
  }

  test("graph with no matching labels yields empty relations") {
    val graph = LabeledGraph(3, Vector((0, "unrelated", 1), (1, "unrelated", 2)))
    val r = SparseCFPQ.solve(graph, Queries.q1CnfPaper)
    assert(r.relations.isEmpty)
    assert(r.iterations == 1) // single no-change iteration
  }

  test("multiple edges between the same node pair contribute all their labels") {
    // Paper remark after Algorithm 1: both label sets land in T[i,j].
    val graph = LabeledGraph(2, Vector((0, "a", 1), (0, "b", 1), (1, "b", 0)))
    val cnf = CnfGrammar(
      binary = Seq(("S", "A", "B")),
      term = Seq(("A", "a"), ("B", "b"), ("S", "b")),
    )
    val init = NaiveSetMatrixCFPQ.initial(graph, cnf)
    assert(init(0)(1) == Set("A", "B", "S"))
    val r = SparseCFPQ.solve(graph, cnf)
    assert(r("S").contains((0, 0))) // a then b: 0→1→0
  }

  test("self-loop terminal edge derives arbitrarily nested derivations") {
    // S -> S S | a on a single self-loop: R_S = {(0,0)}, finite closure.
    val g = CNF.transform(Grammar.parse("S -> S S | a"))
    val graph = LabeledGraph(1, Vector((0, "a", 0)))
    val r = SparseCFPQ.solve(graph, g)
    assert(r("S") == Set((0, 0)))
    assert(r.iterations <= 3)
  }

  test("two-node cycle with a^n b^n grammar: unbounded path lengths, finite closure") {
    // Edges a: 0→1, b: 1→0 and 1→1... classic: a^n b^n requires matching depth.
    val cnf = CNF.transform(Grammar.parse("S -> a S b | a b"))
    val graph = LabeledGraph(2, Vector((0, "a", 0), (0, "b", 1), (1, "b", 1)))
    // a^n from 0 loops at 0, then b^n walks 0→1→1…: (0,1) ∈ R_S for every n.
    val r = SparseCFPQ.solve(graph, cnf)
    assert(r("S").contains((0, 1)))
    assert(NaiveSetMatrixCFPQ.solve(graph, cnf)("S") == r("S"))
  }
}
