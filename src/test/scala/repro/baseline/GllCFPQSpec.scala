package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.{Grammar, Queries}
import repro.graph.LabeledGraph

class GllCFPQSpec extends AnyFunSuite {

  private val anbn = Grammar.parse("S -> a S b | a b")

  test("a^n b^n over a two-node gadget") {
    // a-loop at 0, then b-edge 0→1 and b-loop at 1: every a^n b^n path exists.
    val g = LabeledGraph(2, Vector((0, "a", 0), (0, "b", 1), (1, "b", 1)))
    val r = new GllCFPQ(anbn, "S").solve(g)
    assert(r("S").contains((0, 1)))
  }

  test("straight-line chain accepts only the balanced span") {
    // a a b b chain: only (0,4) balances.
    val g = LabeledGraph(5, Vector((0, "a", 1), (1, "a", 2), (2, "b", 3), (3, "b", 4)))
    val r = new GllCFPQ(anbn, "S").solve(g)
    assert(r("S") == Set((0, 4), (1, 3)))
  }

  test("no matching edges → empty relation") {
    val g = LabeledGraph(3, Vector((0, "x", 1), (1, "y", 2)))
    assert(new GllCFPQ(anbn, "S").solve(g)("S").isEmpty)
  }

  test("left-recursive grammar terminates (GSS reuse)") {
    val leftRec = Grammar.parse("S -> S a | a")
    val g = LabeledGraph(2, Vector((0, "a", 1), (1, "a", 0)))
    val r = new GllCFPQ(leftRec, "S").solve(g)
    // a+ over a 2-cycle: everything reaches everything
    assert(r("S") == Set((0, 0), (0, 1), (1, 0), (1, 1)))
  }

  test("right-recursive grammar gives the same a+ closure") {
    val rightRec = Grammar.parse("S -> a S | a")
    val g = LabeledGraph(2, Vector((0, "a", 1), (1, "a", 0)))
    assert(new GllCFPQ(rightRec, "S").solve(g)("S") ==
      Set((0, 0), (0, 1), (1, 0), (1, 1)))
  }

  test("ambiguous grammar (S -> S S | a) does not duplicate or diverge") {
    val amb = Grammar.parse("S -> S S | a")
    val g = LabeledGraph(3, Vector((0, "a", 1), (1, "a", 2), (2, "a", 0)))
    val r = new GllCFPQ(amb, "S").solve(g)
    assert(r("S") == (for { i <- 0 to 2; j <- 0 to 2 } yield (i, j)).toSet)
  }

  test("ε-production: S -> a S b | eps relates every node to itself") {
    val eps = Grammar.parse("S -> a S b | eps")
    val g = LabeledGraph(3, Vector((0, "a", 1), (1, "b", 2)))
    val r = new GllCFPQ(eps, "S").solve(g)
    assert(Set((0, 0), (1, 1), (2, 2)).subsetOf(r("S"))) // ε matches empty paths
    assert(r("S").contains((0, 2)))                      // a ε b
  }

  test("Q2 on a small hierarchy matches the matrix engines") {
    val g = LabeledGraph(Seq((1, "subClassOf", 0), (2, "subClassOf", 0),
      (3, "subClassOf", 1), (4, "subClassOf", 1))).withInverses()
    val gll = new GllCFPQ(Queries.q2, "S").solve(g)("S")
    val matrix = repro.core.SparseCFPQ.solve(g, Queries.q2Cnf)("S")
    assert(gll == matrix)
  }

  test("a start that is not a nonterminal of the grammar is rejected, naming it and the nonterminals") {
    val e = intercept[IllegalArgumentException](new GllCFPQ(anbn, "A"))
    assert(e.getMessage.contains("start A is not a nonterminal of the grammar (S)"), e.getMessage)
  }

  test("relationalComplete is false (top-down engine)") {
    assert(!new GllCFPQ(Queries.q1, "S").relationalComplete)
  }
}
