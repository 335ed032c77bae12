package repro.bench

import repro.SparkSpec
import repro.data.Datasets

/** Reproduces the paper's **Table 1**: Query 1 (same-generation over
  * subClassOf/type) on all 14 graphs, timing every engine.
  *
  * Prints the paper-vs-measured markdown table (also written to
  * `bench/results/table-q1.md`) and asserts the paper's qualitative
  * claims — see EXPERIMENTS.md for the recorded numbers.
  */
class Table1Bench extends SparkSpec {

  private lazy val rows = TableRunner.runTable(spark, TableRunner.q1, Datasets.all,
    progress = s => info(s))

  test("Table 1: run all 14 datasets and print paper-vs-measured rows") {
    val out = TableRunner.render(TableRunner.q1, rows)
    TableRunner.writeReport(TableRunner.q1, out)
    println(out)
    assert(rows.size == 14)
  }

  test("invariant: all implementations have the same #results (paper §5)") {
    // runDataset asserts this per row; reaching here means all 14 agreed.
    assert(rows.forall(_.results > 0))
  }

  test("shape: dense representation is omitted on g1-g3, as in the paper") {
    rows.filter(_.dataset.repeatK > 1).foreach { r =>
      assert(r.timingOf("Dense").flatMap(_.ms).isEmpty, r.dataset.name)
    }
    rows.filter(_.dataset.repeatK == 1).foreach { r =>
      assert(r.timingOf("Dense").flatMap(_.ms).isDefined, r.dataset.name)
    }
  }

  test("shape: distributed engines amortize with size — their g_i/base slowdown is far below 8x") {
    // The paper's sGPU advantage "increases with the size of the graph".
    // At 15k triples Spark's per-iteration job overhead dominates absolute
    // times (a GPU kernel launch is ~µs, a Spark stage ~100ms), so the
    // faithful observable here is scaling: an 8x bigger graph costs the
    // distributed engines well under 8x, because the fixed overhead
    // amortizes (see EXPERIMENTS.md).
    for ((big, base) <- Seq(("g1", "funding"), ("g2", "wine"), ("g3", "pizza"))) {
      def ms(n: String, e: String) =
        rows.find(_.dataset.name == n).get.timingOf(e).flatMap(_.ms).get
      val factor = ms(big, "SparkBlock") / ms(base, "SparkBlock")
      assert(factor < 8.0, s"$big/$base SparkBlock slowdown $factor should amortize below 8x")
    }
  }

  test("shape: results grow with graph size within the repeated family (8x construction)") {
    def res(n: String) = rows.find(_.dataset.name == n).get.results
    assert(res("g1") == 8 * res("funding"))
    assert(res("g2") == 8 * res("wine"))
    assert(res("g3") == 8 * res("pizza"))
  }
}
