package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.Queries
import repro.core.SparseCFPQ

class DatasetsSpec extends AnyFunSuite {

  test("the corpus has the paper's 14 graphs in table order") {
    assert(Datasets.all.map(_.name) == Seq(
      "skos", "generations", "travel", "univ-bench", "atom-primitive",
      "biomedical-measure-primitive", "foaf", "people-pets", "funding",
      "wine", "pizza", "g1", "g2", "g3",
    ))
  }

  test("every dataset's #triples matches the paper exactly") {
    Datasets.all.foreach { d =>
      assert(d.triples == d.paperTriples, d.name)
      assert(d.graph.edges.size == 2 * d.triples, s"${d.name}: inverse expansion")
    }
  }

  test("the synthetic graphs are 8x repeats of funding, wine, pizza (paper construction)") {
    assert(Datasets.g1.repeatK == 8 && Datasets.g1.triples == 8 * Datasets.funding.triples)
    assert(Datasets.g2.repeatK == 8 && Datasets.g2.triples == 8 * Datasets.wine.triples)
    assert(Datasets.g3.repeatK == 8 && Datasets.g3.triples == 8 * Datasets.pizza.triples)
    // paper's own numbers confirm: 8688 = 8×1086, 14712 = 8×1839, 15840 = 8×1980
    assert(Datasets.g1.paperTriples == 8 * Datasets.funding.paperTriples)
    assert(Datasets.g2.paperTriples == 8 * Datasets.wine.paperTriples)
    assert(Datasets.g3.paperTriples == 8 * Datasets.pizza.paperTriples)
    // ... and for the Q1 result counts too
    assert(Datasets.g1.paperQ1.results == 8 * Datasets.funding.paperQ1.results)
    assert(Datasets.g2.paperQ1.results == 8 * Datasets.wine.paperQ1.results)
    assert(Datasets.g3.paperQ1.results == 8 * Datasets.pizza.paperQ1.results)
  }

  test("disjoint repetition multiplies CFPQ results by exactly k (paper's construction invariant)") {
    val base = Datasets.skos
    val repeated = base.copy(name = "skos×3", repeatK = 3)
    val rBase = SparseCFPQ.solve(base.graph, Queries.q1Cnf).count("S")
    val rRep  = SparseCFPQ.solve(repeated.graph, Queries.q1Cnf).count("S")
    assert(rRep == 3 * rBase)
  }

  test("graphs are deterministic: two builds are identical") {
    assert(Datasets.travel.graph == Datasets.travel.graph)
  }

  test("byName resolves and rejects") {
    assert(Datasets.byName("wine") eq Datasets.wine)
    assertThrows[RuntimeException](Datasets.byName("nope"))
  }

  test("dGPU is omitted in the paper exactly on g1-g3 (both tables)") {
    Datasets.all.foreach { d =>
      val dense = d.paperQ1.dGpuMs.isDefined
      assert(dense == (d.repeatK == 1), d.name)
      assert(d.paperQ2.dGpuMs.isDefined == dense, d.name)
    }
  }

  test("query alphabets are covered by the generated labels") {
    val labels = Datasets.skos.graph.edges.map(_._2).toSet
    assert(Queries.q1.terminals.subsetOf(labels))
    assert(Queries.q2.terminals.subsetOf(labels))
  }

  test("generated relations are non-trivial on every real ontology (Q1)") {
    Datasets.all.filter(_.repeatK == 1).foreach { d =>
      val n = SparseCFPQ.solve(d.graph, Queries.q1Cnf).count("S")
      assert(n > 0, s"${d.name}: Q1 must produce results (paper: ${d.paperQ1.results})")
    }
  }
}
