package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import repro.SparkSpec

class MaterializeSpec extends SparkSpec {

  /** Pin a frame's rows and rebuild a frame over them, as SparkDF does. */
  private def pinFrame(df: DataFrame): (Materialize.Pinned[Row], DataFrame) = {
    val pinned = Materialize(df.rdd)
    (pinned, spark.createDataset(pinned.data)(df.encoder))
  }

  test("frame preserves rows and reports the count") {
    val (pinned, frame) = pinFrame(spark.range(100).select(col("id"), (col("id") * 2).as("x")))
    assert(pinned.count == 100)
    assert(frame.collect().map(r => (r.getLong(0), r.getLong(1))).toSet ==
      (0L until 100L).map(i => (i, 2 * i)).toSet)
    pinned.release()
  }

  test("frame truncates lineage: result plan does not reference the input plan") {
    val df = spark.range(10).toDF("id")
    val (pinned, frame) = pinFrame(df.join(df.withColumnRenamed("id", "id2"), col("id") === col("id2")))
    assert(frame.queryExecution.optimizedPlan.collectLeaves().size == 1)
    pinned.release()
  }

  test("dataset round-trips typed data") {
    import spark.implicits._
    val ds = spark.createDataset(Seq(("a", Array(1, 2)), ("b", Array(3))))
    val pinned = Materialize(ds.rdd)
    assert(pinned.count == 2)
    val got = spark.createDataset(pinned.data)(ds.encoder).collect().map { case (k, v) => (k, v.toSeq) }.toSet
    assert(got == Set(("a", Seq(1, 2)), ("b", Seq(3))))
    pinned.release()
  }

  test("the count is the row count, and the input is computed once") {
    val computed = spark.sparkContext.longAccumulator("rows computed")
    val rdd = spark.sparkContext.parallelize(0L until 10L).map { i => computed.add(1); i }
    val pinned = Materialize(rdd)
    assert(pinned.count == 10)
    assert(pinned.data.collect().sorted.toSeq == (0L until 10L))
    assert(computed.sum == 10) // counted and then read back from the cache
    pinned.release()
  }

  test("iterated self-join via frame keeps plan statistics bounded") {
    // The localCheckpoint pathology: sizeInBytes compounds per iteration.
    // A frame rebuilt over the pinned rows has a single fresh leaf each
    // time, so stats stay at the default regardless of iteration count.
    var (cur, t) = pinFrame(spark.range(4).toDF("id"))
    var digits = Vector.empty[Int]
    for (_ <- 1 to 6) {
      val joined = t.as("l").join(t.as("r"), col("l.id") === col("r.id"))
        .select(col("l.id").as("id")).distinct()
      val (next, frame) = pinFrame(joined)
      digits :+= frame.queryExecution.optimizedPlan.stats.sizeInBytes.toString.length
      cur.release(); cur = next; t = frame
    }
    // constant-size estimates — no compounding across iterations
    assert(digits.distinct.size == 1, digits.toString)
    cur.release()
  }
}
