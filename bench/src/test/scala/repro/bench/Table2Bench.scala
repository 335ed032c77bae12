package repro.bench

import repro.SparkSpec
import repro.data.Datasets

/** Reproduces the paper's **Table 2**: Query 2 (adjacent-layer query over
  * subClassOf) on all 14 graphs, timing every engine.
  *
  * Prints the paper-vs-measured markdown table (also written to
  * `bench/results/table-q2.md`); numbers are recorded in EXPERIMENTS.md.
  */
class Table2Bench extends SparkSpec {

  private lazy val rows = TableRunner.runTable(spark, TableRunner.q2, Datasets.all,
    progress = s => info(s))

  test("Table 2: run all 14 datasets and print paper-vs-measured rows") {
    val out = TableRunner.render(TableRunner.q2, rows)
    TableRunner.writeReport(TableRunner.q2, out)
    println(out)
    assert(rows.size == 14)
  }

  test("shape: Q2 relations are much sparser than Q1 on every dataset (paper profile)") {
    rows.foreach { r =>
      val q1 = repro.core.SparseCFPQ.solve(r.dataset.graph, TableRunner.q1.cnf).count("S")
      assert(r.results < q1, s"${r.dataset.name}: Q2 ${r.results} !< Q1 $q1")
    }
  }

  test("shape: dense representation is omitted on g1-g3, as in the paper") {
    rows.filter(_.dataset.repeatK > 1).foreach { r =>
      assert(r.timingOf("Dense").flatMap(_.ms).isEmpty, r.dataset.name)
    }
  }

  test("shape: 8x repeated graphs multiply Q2 results by 8 (paper construction)") {
    def res(n: String) = rows.find(_.dataset.name == n).get.results
    assert(res("g1") == 8 * res("funding"))
    assert(res("g2") == 8 * res("wine"))
    assert(res("g3") == 8 * res("pizza"))
  }
}
