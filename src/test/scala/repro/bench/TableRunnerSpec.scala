package repro.bench

import repro.SparkSpec
import repro.data.Datasets

/** Unit tests for the bench harness itself (cheap pieces only — the full
  * table runs live in the bench subproject).
  */
class TableRunnerSpec extends SparkSpec {

  test("query definitions carry the paper's grammars") {
    assert(TableRunner.q1.name == "Q1" && TableRunner.q1.start == "S")
    assert(TableRunner.q2.name == "Q2" && TableRunner.q2.start == "S")
    assert(TableRunner.q1.cnf.terminals ==
      Set("subClassOf", "subClassOf_r", "type", "type_r"))
    assert(TableRunner.q2.cnf.terminals == Set("subClassOf", "subClassOf_r"))
  }

  test("engine table order matches the rendered column order") {
    val names = TableRunner.engines(spark, TableRunner.q1).map(_.name)
    assert(names == Seq("GLL", "Dense", "SparseCSR", "SparkBlock", "SparkDF", "Hellings"))
  }

  test("Dense is skipped exactly on the repeated graphs (paper's dGPU omission)") {
    val (dense, others) = TableRunner.engines(spark, TableRunner.q1).partition(_.name == "Dense")
    assert(dense.size == 1)
    Datasets.all.foreach { d =>
      assert(TableRunner.applies(dense.head, d) == (d.repeatK == 1), d.name)
    }
    // every other engine runs everywhere
    others.foreach { e =>
      Datasets.all.foreach(d => assert(TableRunner.applies(e, d), s"${e.name} on ${d.name}"))
    }
  }

  test("runDataset produces consistent counts and timings on the smallest graph") {
    val row = TableRunner.runDataset(spark, TableRunner.q2, Datasets.skos)
    assert(row.timings.size == 6)
    assert(row.timings.forall(t => t.ms.isDefined && t.results.contains(row.results)))
    assert(row.results == repro.core.SparseCFPQ
      .solve(Datasets.skos.graph, TableRunner.q2.cnf).count("S").toLong)
  }

  test("render emits one markdown row per dataset with paper numbers inline") {
    val row = TableRunner.runDataset(spark, TableRunner.q2, Datasets.skos)
    val out = TableRunner.render(TableRunner.q2, Seq(row))
    assert(out.contains("| skos | 252 | 1 | "))     // paper #triples and #results
    assert(out.linesIterator.count(_.startsWith("| skos")) == 1)
    assert(out.contains("GLL paper"))
  }

  test("render shows an em-dash for configurations the paper omitted") {
    // fabricate a g1 row with Dense skipped
    val timings = TableRunner.engines(spark, TableRunner.q1).map { e =>
      if (TableRunner.applies(e, Datasets.g1)) Timing(e.name, Some(1.0), Some(42L))
      else Timing(e.name, None, None)
    }
    val out = TableRunner.render(TableRunner.q1, Seq(BenchRow(Datasets.g1, 42L, timings)))
    val cells = out.linesIterator.find(_.startsWith("| g1")).get.split("\\|").map(_.trim)
    assert(cells.count(_ == "—") == 2) // paper dGPU column and our Dense column
  }
}
