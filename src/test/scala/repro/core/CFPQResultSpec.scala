package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

class CFPQResultSpec extends AnyFunSuite {

  test("apply returns the relation or empty for unknown nonterminals") {
    val r = CFPQResult(Map("S" -> Set((0, 1))), 3)
    assert(r("S") == Set((0, 1)))
    assert(r("T").isEmpty)
    assert(r.count("S") == 1 && r.count("T") == 0)
  }

  test("empty relations are dropped, also by copy, so equal answers compare equal") {
    val r = CFPQResult(Map("S" -> Set((0, 1)), "T" -> Set.empty[(Int, Int)]), 3)
    assert(r.relations.keySet == Set("S"))
    assert(r == CFPQResult(Map("S" -> Set((0, 1))), 3))
    assert(r.copy(relations = Map("U" -> Set.empty)).relations.isEmpty)
  }

  test("the cells added per step take part in equality when both results report them") {
    val rel = Map("S" -> Set((0, 1)))
    val grown = CFPQResult(rel, 2, Seq(Map("S" -> 1L), Map.empty))
    assert(grown == CFPQResult(rel, 2, Seq(Map("S" -> 1L), Map.empty)))
    assert(grown != CFPQResult(rel, 2, Seq(Map("S" -> 2L), Map.empty)))
    assert(grown != grown.copy(added = Seq(Map.empty, Map("S" -> 1L))))
    // A result that reports no growth (a baseline's) compares relations and iterations only.
    val unreported = CFPQResult(rel, 2)
    assert(unreported.added.isEmpty && grown == unreported && unreported == grown)
    assert(grown.hashCode == unreported.hashCode)
    assert(grown.copy(relations = rel).added == grown.added)
  }

  test("MatrixInit collects label-matching edges per nonterminal, deduplicated") {
    val g = LabeledGraph(3, Vector((0, "a", 1), (0, "a", 1), (1, "b", 2), (2, "a", 0)))
    val cnf = CnfGrammar(
      binary = Seq(("S", "A", "B")),
      term = Seq(("A", "a"), ("B", "b"), ("X", "a")),
    )
    val cells = MatrixInit.cells(g, cnf)
    assert(cells("A").toSet == Set((0, 1), (2, 0)))
    assert(cells("X").toSet == Set((0, 1), (2, 0)))
    assert(cells("B").toSet == Set((1, 2)))
    assert(!cells.contains("S"))
  }

  test("MatrixInit ignores labels outside the grammar") {
    val g = LabeledGraph(2, Vector((0, "zzz", 1)))
    val cnf = CnfGrammar(binary = Seq.empty, term = Seq(("A", "a")))
    assert(MatrixInit.cells(g, cnf).isEmpty)
  }

  test("multi-labeled node pairs land in every matching relation (paper's remark)") {
    val g = LabeledGraph(2, Vector((0, "a", 1), (0, "b", 1)))
    val cnf = CnfGrammar(binary = Seq.empty, term = Seq(("A", "a"), ("B", "b")))
    val cells = MatrixInit.cells(g, cnf)
    assert(cells("A").toSet == Set((0, 1)))
    assert(cells("B").toSet == Set((0, 1)))
  }

  test("a nonterminal deriving two terminals that label the same node pair gets the pair once") {
    val g = LabeledGraph(2, Vector((0, "a", 1), (0, "b", 1)))
    val cnf = CnfGrammar(binary = Seq.empty, term = Seq(("A", "a"), ("A", "b"), ("B", "b")))
    val cells = MatrixInit.cells(g, cnf)
    assert(cells("A") == Seq((0, 1)))
    assert(cells("B") eq g.byLabel("b")) // one terminal: the graph's distinct cells as they are
  }
}
