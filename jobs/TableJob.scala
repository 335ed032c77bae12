package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.TableRunner

/** spark-submit entrypoint reproducing the paper's Table 1 (`q1`: Query 1,
  * same-generation over subClassOf/type) or Table 2 (`q2`: Query 2,
  * adjacent-layer query over subClassOf).
  *
  * Usage: spark-submit --class repro.jobs.TableJob <jar> <q1|q2> [dataset ...]
  * With no dataset arguments all 14 datasets run in the paper's order.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val query = args.headOption.collect { case "q1" => TableRunner.q1; case "q2" => TableRunner.q2 }
      .getOrElse(throw new IllegalArgumentException("usage: TableJob <q1|q2> [dataset ...]"))
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"cfpq-table-${args.head}")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val datasets =
        if (args.length == 1) repro.data.Datasets.all
        else args.toSeq.tail.map(repro.data.Datasets.byName)
      println(TableRunner.runAndReport(spark, query, datasets))
    } finally spark.stop()
  }
}
