package repro.core

import org.apache.spark.sql.functions.col
import repro.SparkSpec

class MaterializeSpec extends SparkSpec {

  test("frame preserves rows and reports the count") {
    val df = spark.range(100).select(col("id"), (col("id") * 2).as("x"))
    val pinned = Materialize(df)(_ => 1L)
    assert(pinned.count == 100)
    assert(pinned.data.collect().map(r => (r.getLong(0), r.getLong(1))).toSet ==
      (0L until 100L).map(i => (i, 2 * i)).toSet)
    pinned.release()
  }

  test("frame truncates lineage: result plan does not reference the input plan") {
    val df = spark.range(10).toDF("id")
    val pinned = Materialize(df.join(df.withColumnRenamed("id", "id2"),
      col("id") === col("id2")))(_ => 1L)
    assert(pinned.data.queryExecution.optimizedPlan.collectLeaves().size == 1)
    pinned.release()
  }

  test("dataset round-trips typed data") {
    import spark.implicits._
    val ds = spark.createDataset(Seq(("a", Array(1, 2)), ("b", Array(3))))
    val pinned = Materialize(ds)(_ => 1L)
    assert(pinned.count == 2)
    val got = pinned.data.collect().map { case (k, v) => (k, v.toSeq) }.toSet
    assert(got == Set(("a", Seq(1, 2)), ("b", Seq(3))))
    pinned.release()
  }

  test("the count sums the cells of every row, and the input is computed once") {
    import spark.implicits._
    val computed = spark.sparkContext.longAccumulator("rows computed")
    val ds = spark.range(10).map { i => computed.add(1); i.longValue }
    val pinned = Materialize(ds)(identity)
    assert(pinned.count == 45) // 0 + 1 + … + 9
    assert(pinned.data.collect().sorted.toSeq == (0L until 10L))
    assert(computed.sum == 10) // counted and then read back from the cache
    pinned.release()
  }

  test("iterated self-join via frame keeps plan statistics bounded") {
    // The localCheckpoint pathology: sizeInBytes compounds per iteration.
    // With Materialize the optimized plan is a single fresh leaf each time,
    // so stats stay at the default regardless of iteration count.
    var cur = Materialize(spark.range(4).toDF("id"))(_ => 1L)
    var digits = Vector.empty[Int]
    for (_ <- 1 to 6) {
      val t = cur.data
      val joined = t.as("l").join(t.as("r"), col("l.id") === col("r.id"))
        .select(col("l.id").as("id")).distinct()
      val next = Materialize(joined)(_ => 1L)
      digits :+= next.data.queryExecution.optimizedPlan.stats.sizeInBytes.toString.length
      cur.release(); cur = next
    }
    // constant-size estimates — no compounding across iterations
    assert(digits.distinct.size == 1, digits.toString)
    cur.release()
  }
}
