package cfpqbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.TableRunner
import repro.core.{SparkBlockCFPQ, SparkDataFrameCFPQ}
import repro.graph.LabeledGraph

/** The Spark listener counts only the jobs of the group it scopes. */
class ListenerSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .appName("cfpqbench-test")
    .config("spark.sql.shuffle.partitions", 2L)
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", false)
    .getOrCreate()
  private lazy val listener = {
    spark.sparkContext.setLogLevel("WARN")
    val l = new GroupListener(spark.sparkContext)
    spark.sparkContext.addSparkListener(l)
    l
  }

  override def afterAll(): Unit = spark.stop()

  test("each scope counts its own jobs, stages, tasks and shuffle bytes") {
    val sc = spark.sparkContext
    val (n, plain) = listener.scoped("a") {
      sc.parallelize(1 to 100, 2).count() + sc.parallelize(1 to 10, 1).count()
    }
    assert(n == 110)
    assert(plain.jobs == 2 && plain.jobsEnded == 2 && plain.stages == 2 && plain.tasks == 3)
    assert(plain.shuffleWriteBytes == 0 && plain.shuffleReadBytes == 0)
    sc.parallelize(1 to 10, 2).count() // outside any scope: counted nowhere
    val (_, shuffled) = listener.scoped("b") {
      sc.parallelize(1 to 1000, 2).map(i => (i % 7, i)).reduceByKey(_ + _, 2).collect()
    }
    assert(shuffled.jobs == 1 && shuffled.stages == 2 && shuffled.tasks == 4)
    assert(shuffled.shuffleWriteBytes > 0 && shuffled.shuffleReadBytes == shuffled.shuffleWriteBytes)
    assert(listener.stats("a") == GroupStats.empty, "a scope's counters are dropped once read")
  }

  test("after the first solve of a session, the counts of a Spark solve repeat exactly") {
    val q = TableRunner.q1
    Seq(new SparkBlockCFPQ(spark, 2), new SparkDataFrameCFPQ(spark)).foreach { engine =>
      engine.solve(LabeledGraph.paperExample, q.cnf)
      val runs = (1 to 3).map { i =>
        val (r, s) = listener.scoped(s"${engine.name}-$i")(engine.solve(LabeledGraph.paperExample, q.cnf))
        assert(r.count(q.start) == 3)
        (s.jobs, s.stages, s.tasks, s.shuffleWriteBytes, s.shuffleReadBytes)
      }
      assert(runs.distinct.size == 1, s"${engine.name}: $runs")
      assert(runs.head._1 > 0)
    }
  }
}
