package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.broadcast
import org.apache.spark.storage.StorageLevel
import org.scalatest.BeforeAndAfterEach
import repro.SparkSpec
import repro.cfg.Queries
import repro.graph.LabeledGraph

/** SparkDF's materialization of a closure state: its rows are persisted and
  * counted per nonterminal in one job ([[SparkDataFrameCFPQ.pin]]), and the
  * next step's frame is rebuilt over them with
  * `createDataset(rows)(encoder)`, as [[SparkDataFrameCFPQ.solve]] does.
  * Runs Q1 on the paper's example.
  */
class MaterializeSpec extends SparkSpec with BeforeAndAfterEach {
  import SparkDataFrameCFPQ._

  private val cnf = Queries.q1CnfPaper
  private val graph = LabeledGraph.paperExample
  private val cached = ListBuffer.empty[RDD[Row]]

  override def afterEach(): Unit = {
    cached.foreach(_.unpersist(blocking = false))
    cached.clear()
    super.afterEach()
  }

  /** MatrixInit's cells as `(nt, src, dst)` rows: SparkDF's `T₀`. */
  private val t0Cells: Seq[(String, Int, Int)] =
    for ((nt, ps) <- MatrixInit.cells(graph, cnf).toSeq; (s, d) <- ps) yield (nt, s, d)

  private def t0: DataFrame = {
    import spark.implicits._
    t0Cells.toDF("nt", "src", "dst")
  }

  private def rules: DataFrame = {
    import spark.implicits._
    broadcast(cnf.binary.toDF("a", "b", "c"))
  }

  /** Pin a frame's rows and rebuild a frame over them, as SparkDF does. */
  private def pinFrame(df: DataFrame): (Map[String, Long], DataFrame) = {
    val (rows, counts) = pin(df.rdd, cached)
    (counts, spark.createDataset(rows)(df.encoder))
  }

  /** Rows per nonterminal. */
  private def countsOf(cells: Seq[(String, Int, Int)]): Map[String, Long] =
    cells.groupMapReduce(_._1)(_ => 1L)(_ + _)

  private def triple(r: Row): (String, Int, Int) = (r.getString(0), r.getInt(1), r.getInt(2))

  private def triples(df: DataFrame): Seq[(String, Int, Int)] = df.collect().toSeq.map(triple)

  test("frame preserves rows and reports the count") {
    val (counts0, frame0) = pinFrame(t0)
    assert(counts0.values.sum == 5) // Fig. 6: five cells
    assert(counts0 == countsOf(t0Cells))
    assert(triples(frame0).sorted == t0Cells.sorted)
    val (counts1, frame1) = pinFrame(step(frame0, rules))
    val rows1 = triples(frame1)
    assert(counts1 == countsOf(rows1) && rows1.distinct.size == rows1.size)
    assert(t0Cells.toSet.subsetOf(rows1.toSet) && rows1.size > 5)
  }

  test("frame truncates lineage: result plan does not reference the input plan") {
    val (_, frame0) = pinFrame(t0)
    val next = step(frame0, rules)
    assert(next.queryExecution.optimizedPlan.collectLeaves().size > 1)
    val (_, frame1) = pinFrame(next)
    assert(frame1.queryExecution.optimizedPlan.collectLeaves().size == 1)
  }

  test("dataset round-trips typed data") {
    import spark.implicits._
    val (_, frame) = pinFrame(t0)
    val got = frame.as[(String, Int, Int)].collect()
    assert(got.toSeq.sorted == t0Cells.sorted)
  }

  test("the count is the row count, and the input is computed once") {
    val computed = spark.sparkContext.longAccumulator("rows computed")
    val rdd = t0.rdd.map { r => computed.add(1); r }
    val (rows, counts) = pin(rdd, cached)
    assert(counts.values.sum == 5 && counts == countsOf(t0Cells))
    assert(cached.toSeq == Seq(rows) && rows.getStorageLevel == StorageLevel.MEMORY_AND_DISK)
    assert(rows.collect().toSeq.map(triple).sorted == t0Cells.sorted)
    assert(computed.sum == 5) // counted and then read back from the cache
  }

  test("iterated self-join via frame keeps plan statistics bounded") {
    // The localCheckpoint pathology: sizeInBytes compounds per iteration.
    // A frame rebuilt over the pinned rows has a single fresh leaf each
    // time, so the step's estimate stays the same at every iteration.
    var (_, t) = pinFrame(t0)
    var digits = Vector.empty[Int]
    for (_ <- 1 to 6) {
      val next = step(t, rules)
      digits :+= next.queryExecution.optimizedPlan.stats.sizeInBytes.toString.length
      t = pinFrame(next)._2
    }
    // constant-size estimates — no compounding across iterations
    assert(digits.distinct.size == 1, digits.toString)
  }
}
