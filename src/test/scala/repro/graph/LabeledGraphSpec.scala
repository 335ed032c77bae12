package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class LabeledGraphSpec extends AnyFunSuite {

  private val g = LabeledGraph(Seq((0, "a", 1), (1, "b", 2), (0, "a", 2)))

  test("apply infers numNodes from max node id") {
    assert(g.numNodes == 3)
    assert(LabeledGraph(Seq.empty[(Int, String, Int)]).numNodes == 0)
  }

  test("node ids outside 0 until numNodes are rejected, naming the edge") {
    val e = intercept[IllegalArgumentException](LabeledGraph(65, Vector((0, "a", 130))))
    assert(e.getMessage.contains("(0, a, 130)"))
    assertThrows[IllegalArgumentException](LabeledGraph(3, Vector((-1, "a", 0))))
    assertThrows[IllegalArgumentException](LabeledGraph(0, Vector((0, "a", 0))))
  }

  test("labels and byLabel views") {
    assert(g.edges.map(_._2).toSet == Set("a", "b"))
    assert(g.byLabel("a").toSet == Set((0, 1), (0, 2)))
    assert(g.byLabel("b").toSet == Set((1, 2)))
  }

  test("byLabel deduplicates parallel edges with the same label") {
    val h = LabeledGraph(Seq((0, "a", 1), (0, "a", 1)))
    assert(h.byLabel("a") == Vector((0, 1)))
  }

  test("withInverses adds exactly one reversed edge per edge") {
    val inv = g.withInverses()
    assert(inv.edges.size == 6)
    assert(inv.byLabel("a_r").toSet == Set((1, 0), (2, 0)))
    assert(inv.byLabel("b_r").toSet == Set((2, 1)))
    assert(inv.numNodes == g.numNodes)
  }

  test("repeat(k) creates k disjoint copies") {
    val r = g.repeat(3)
    assert(r.numNodes == 9)
    assert(r.edges.size == 9)
    // copy c maps node v to v + 3c
    assert(r.byLabel("a").toSet == Set((0, 1), (0, 2), (3, 4), (3, 5), (6, 7), (6, 8)))
    // no edges cross copies
    assert(r.edges.forall { case (s, _, d) => s / 3 == d / 3 })
  }

  test("repeat(1) is identity") {
    assert(g.repeat(1) == g)
  }

  test("outIndex groups destinations by label") {
    assert(g.outIndex(0)("a").toSet == Set(1, 2))
    assert(g.outIndex(1)("b").toSet == Set(2))
    assert(g.outIndex(2).isEmpty)
  }

  test("outIndex deduplicates parallel edges") {
    val h = LabeledGraph(Seq((0, "a", 1), (0, "a", 1)))
    assert(h.outIndex(0)("a").toSeq == Seq(1))
  }

  test("paperExample graph matches the initial matrix of Fig. 6") {
    val ex = LabeledGraph.paperExample
    assert(ex.numNodes == 3)
    assert(ex.edges.size == 5)
    assert(ex.byLabel("subClassOf_r") == Vector((0, 0)))
    assert(ex.byLabel("type_r").toSet == Set((0, 1), (1, 2)))
    assert(ex.byLabel("subClassOf") == Vector((2, 0)))
    assert(ex.byLabel("type") == Vector((2, 2)))
  }

  test("withInverses then repeat commutes with repeat then withInverses") {
    val a = g.withInverses().repeat(2)
    val b = g.repeat(2).withInverses()
    assert(a.numNodes == b.numNodes)
    assert(a.edges.toSet == b.edges.toSet)
  }
}
