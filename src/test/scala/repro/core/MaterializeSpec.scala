package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import org.scalatest.BeforeAndAfterEach
import repro.SparkSpec
import repro.cfg.Queries
import repro.graph.LabeledGraph

/** SparkDF's materialization of a closure state: its rows are packed into
  * one block per partition, persisted and their fresh rows counted per
  * nonterminal in one job ([[SparkDataFrameCFPQ.pin]]), and the next step's
  * frame is rebuilt over the blocks ([[SparkDataFrameCFPQ.frame]]), as
  * [[SparkDataFrameCFPQ.solve]] does. Runs Q1 on the paper's example.
  */
class MaterializeSpec extends SparkSpec with BeforeAndAfterEach {
  import SparkDataFrameCFPQ._

  private val cnf = Queries.q1CnfPaper
  private val graph = LabeledGraph.paperExample
  private val cached = ListBuffer.empty[RDD[Block]]
  private val names = cnf.nonterminals.toIndexedSeq.sorted
  private val id = names.zipWithIndex.toMap
  private val rules = byB(cnf, id)

  override def afterEach(): Unit = {
    cached.foreach(_.unpersist(blocking = false))
    cached.clear()
    super.afterEach()
  }

  /** MatrixInit's cells as fresh `(nt, src, dst, fresh)` rows: SparkDF's `T₀`. */
  private val t0Cells: Seq[(Int, Int, Int, Boolean)] =
    for ((nt, ps) <- MatrixInit.cells(graph, cnf).toSeq; (s, d) <- ps) yield (id(nt), s, d, true)

  private def t0: DataFrame = {
    import spark.implicits._
    t0Cells.toDF("nt", "src", "dst", "fresh")
  }

  /** Pin a frame's rows and rebuild a frame over them, as SparkDF does. */
  private def pinFrame(df: DataFrame): (Map[String, Long], DataFrame) = {
    val (blocks, counts) = pin(df, names, cached)
    (counts, frame(spark, blocks))
  }

  /** Fresh rows per nonterminal. */
  private def countsOf(rows: Seq[(Int, Int, Int, Boolean)]): Map[String, Long] =
    rows.filter(_._4).groupMapReduce(r => names(r._1))(_ => 1L)(_ + _)

  private def collected(df: DataFrame): Seq[(Int, Int, Int, Boolean)] =
    df.collect().toSeq.map(r => (r.getInt(0), r.getInt(1), r.getInt(2), r.getBoolean(3)))

  test("frame preserves rows and reports the count") {
    val (counts0, frame0) = pinFrame(t0)
    assert(counts0.values.sum == 5) // Fig. 6: five cells
    assert(counts0 == countsOf(t0Cells))
    assert(collected(frame0).sorted == t0Cells.sorted)
    val (counts1, frame1) = pinFrame(step(frame0, rules))
    val rows1 = collected(frame1)
    val cells1 = rows1.map(r => (r._1, r._2, r._3))
    assert(counts1 == countsOf(rows1) && cells1.distinct.size == cells1.size)
    // T₀'s cells are old now, and every other cell is fresh: the step's new cells.
    val old = t0Cells.map(r => (r._1, r._2, r._3)).toSet
    assert(rows1.forall(r => r._4 != old((r._1, r._2, r._3))))
    assert(old.subsetOf(cells1.toSet) && rows1.size > 5)
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
    val got = frame.as[(Int, Int, Int, Boolean)].collect()
    assert(got.toSeq.sorted == t0Cells.sorted)
  }

  test("the count is the row count, and the input is computed once") {
    import spark.implicits._
    val computed = spark.sparkContext.longAccumulator("rows computed")
    val input = spark.createDataset(spark.sparkContext.parallelize(t0Cells, 2).map { r => computed.add(1); r })
      .toDF("nt", "src", "dst", "fresh")
    val (blocks, counts) = pin(input, names, cached)
    assert(counts.values.sum == 5 && counts == countsOf(t0Cells))
    assert(cached.toSeq == Seq(blocks) && blocks.getStorageLevel == StorageLevel.MEMORY_AND_DISK)
    val packed = blocks.collect()
    assert(packed.length == 2, "one block per partition")
    val rows = packed.toSeq.flatMap { case (ntf, cells) => ntf.indices.map(i => (ntf(i) >> 1, cells(i), ntf(i) % 2 == 1)) }
    assert(rows.sorted == t0Cells.map(r => (r._1, Relation.pack(r._2, r._3), r._4)).sorted)
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
