package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baseline.{GllCFPQ, HellingsCFPQ}
import repro.cfg.{CnfGrammar, Grammar, Queries}
import repro.core._
import repro.data.{DatasetSpec, Datasets, PaperRow}

/** One engine measurement on one dataset. */
final case class Timing(engine: String, ms: Option[Double], results: Option[Long])

/** One bench table row: our measurements plus the paper's published row. */
final case class BenchRow(dataset: DatasetSpec, results: Long, timings: Seq[Timing]) {
  def timingOf(engine: String): Option[Timing] = timings.find(_.engine == engine)
}

/** Benchmark harness reproducing the paper's Tables 1 and 2.
  *
  * Column mapping (paper → this reproduction, see DESIGN.md §3):
  *   - GLL   → [[repro.baseline.GllCFPQ]] (descriptor/GSS GLL on graphs)
  *   - dGPU  → [[repro.core.DenseCFPQ]] (dense row-major bit-matrix; like
  *             the paper, omitted on g1–g3 where dense representation
  *             degrades)
  *   - sCPU  → [[repro.core.SparseCFPQ]] (CSR on one core)
  *   - sGPU  → [[repro.core.SparkBlockCFPQ]] (distributed block-sparse
  *             kernels; Spark tasks stand in for CUDA thread blocks)
  * Extra columns beyond the paper:
  *   - Hellings (the [16]-style worklist the paper reports beating ~1000×)
  *   - SparkDF (the same closure as pure Catalyst joins)
  *
  * Every engine's `#results` (|R_S|) is asserted identical — the paper's
  * "all implementations have the same #results" invariant.
  */
object TableRunner {

  /** A query of the evaluation section. */
  final case class Query(name: String, grammar: Grammar, cnf: CnfGrammar, start: String)

  val q1: Query = Query("Q1", Queries.q1, Queries.q1CnfPaper, "S")
  val q2: Query = Query("Q2", Queries.q2, Queries.q2Cnf, "S")

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Engines in table order. */
  def engines(spark: SparkSession, q: Query): Seq[CFPQEngine] = Seq(
    new GllCFPQ(q.grammar, q.start), DenseCFPQ, SparseCFPQ,
    new SparkBlockCFPQ(spark), new SparkDataFrameCFPQ(spark), HellingsCFPQ,
  )

  /** Whether `engine` runs on `d`: Dense is omitted on the repeated graphs,
    * exactly as the paper omits dGPU.
    */
  def applies(engine: CFPQEngine, d: DatasetSpec): Boolean = engine != DenseCFPQ || d.repeatK == 1

  /** Run one query over one dataset with every applicable engine.
    *
    * Local engines are measured as the best of two runs (JIT noise at the
    * millisecond scale); the Spark engines run once — their times are
    * dominated by per-iteration stage overhead, not JIT.
    */
  def runDataset(spark: SparkSession, q: Query, d: DatasetSpec): BenchRow = {
    val graph = d.graph
    val timings = engines(spark, q).map { e =>
      if (!applies(e, d)) Timing(e.name, None, None)
      else {
        val runs = if (e.name.startsWith("Spark")) 1 else 2
        val measured = Seq.fill(runs)(time(e.solve(graph, q.cnf)))
        val (res, _) = measured.head
        Timing(e.name, Some(measured.map(_._2).min), Some(res.count(q.start).toLong))
      }
    }
    val counts = timings.flatMap(_.results).distinct
    require(counts.size == 1,
      s"${d.name}/${q.name}: engines disagree on #results: " +
        timings.map(t => s"${t.engine}=${t.results.getOrElse("-")}").mkString(", "))
    BenchRow(d, counts.head, timings)
  }

  /** Warm up JIT and Spark codepaths on the smallest dataset. */
  def warmup(spark: SparkSession, q: Query): Unit = {
    val d = Datasets.skos
    engines(spark, q).foreach(_.solve(d.graph, q.cnf))
  }

  /** Run the full table (all 14 datasets). */
  def runTable(spark: SparkSession, q: Query,
               datasets: Seq[DatasetSpec] = Datasets.all,
               progress: String => Unit = _ => ()): Seq[BenchRow] = {
    warmup(spark, q)
    datasets.map { d =>
      val row = runDataset(spark, q, d)
      progress(s"${q.name} ${d.name}: #results=${row.results} " +
        row.timings.map(t => s"${t.engine}=${t.ms.map(m => f"$m%.0fms").getOrElse("—")}").mkString(" "))
      row
    }
  }

  private def fmtMs(v: Option[Double]): String = v.map(m => f"$m%.0f").getOrElse("—")
  private def fmtMsL(v: Option[Long]): String = v.map(_.toString).getOrElse("—")

  /** Render the paper-vs-measured markdown table for EXPERIMENTS.md. */
  def render(q: Query, rows: Seq[BenchRow]): String = {
    val sb = new StringBuilder
    sb ++= s"### ${q.name} — paper (PODS'18, GTX 1070) vs this reproduction (Spark local)\n\n"
    sb ++= "| Ontology | #triples | #results paper | #results ours | GLL paper | GLL ours | dGPU paper | Dense ours | sCPU paper | SparseCSR ours | sGPU paper | SparkBlock ours | SparkDF ours | Hellings ours |\n"
    sb ++= "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n"
    rows.foreach { r =>
      val p: PaperRow = if (q.name == "Q1") r.dataset.paperQ1 else r.dataset.paperQ2
      def ours(e: String) = fmtMs(r.timingOf(e).flatMap(_.ms))
      sb ++= s"| ${r.dataset.name} | ${r.dataset.triples} | ${p.results} | ${r.results} " +
        s"| ${fmtMsL(p.gllMs)} | ${ours("GLL")} " +
        s"| ${fmtMsL(p.dGpuMs)} | ${ours("Dense")} " +
        s"| ${fmtMsL(p.sCpuMs)} | ${ours("SparseCSR")} " +
        s"| ${fmtMsL(p.sGpuMs)} | ${ours("SparkBlock")} " +
        s"| ${ours("SparkDF")} | ${ours("Hellings")} |\n"
    }
    sb.result()
  }

  /** Write a rendered table to `bench/results/table-<query>.md`, relative
    * to the build root, where the table jobs and the bench suites run.
    */
  def writeReport(q: Query, rendered: String): Unit = {
    val dir = java.nio.file.Paths.get("bench", "results")
    java.nio.file.Files.createDirectories(dir)
    java.nio.file.Files.write(dir.resolve(s"table-${q.name.toLowerCase}.md"),
      rendered.getBytes("UTF-8"))
  }

  /** Run a full table and write the rendered result under bench/results/. */
  def runAndReport(spark: SparkSession, q: Query,
                   datasets: Seq[DatasetSpec] = Datasets.all): String = {
    val rows = runTable(spark, q, datasets, progress = s => println(s"[bench] $s"))
    val out = render(q, rows)
    writeReport(q, out)
    out
  }
}
