package repro.core

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import scala.collection.mutable.ListBuffer
import scala.jdk.CollectionConverters._
import scala.util.Random
import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.cfg.{CNF, CnfGrammar, Grammar, Queries}
import repro.data.Datasets
import repro.graph.LabeledGraph

/** The two Spark engines must agree exactly with the local sparse engine
  * (itself verified against the literal Algorithm 1 transcription, the
  * brute-force path oracle, and DuckDB).
  */
class SparkEngineEquivalenceSpec extends SparkSpec {
  import EngineFixtures._

  private lazy val df = new SparkDataFrameCFPQ(spark)

  for {
    (gname, _, cnf, _) <- grammars
    i <- 0 until 3
  } test(s"[$gname #$i] SparkDataFrame engine matches the local sparse engine on a random graph") {
    val rnd = new Random(53 * gname.hashCode + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted, maxNodes = 8)
    val expect = SparseCFPQ.solve(graph, cnf)
    val got = df.solve(graph, cnf)
    assert(got == expect) // relations and iteration count
    assert(got.iterations == NaiveSetMatrixCFPQ.solve(graph, cnf).iterations)
  }

  for {
    (gname, _, cnf, _) <- grammars
    i <- 0 until 2
  } test(s"[$gname #$i] SparkBlock engine matches the local sparse engine on a random graph") {
    val rnd = new Random(59 * gname.hashCode + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted, maxNodes = 9)
    val expect = SparseCFPQ.solve(graph, cnf)
    val got = new SparkBlockCFPQ(spark, blockSize = 4).solve(graph, cnf)
    assert(got == expect) // relations and iteration count
    assert(got.iterations == NaiveSetMatrixCFPQ.solve(graph, cnf).iterations)
  }

  test("no binary rules: one iteration, exactly the initial cells, on both Spark engines") {
    val graph = randomGraph(new Random(37), Seq("a", "b", "x"), maxNodes = 9)
    Seq(df, new SparkBlockCFPQ(spark, blockSize = 4)).foreach { e =>
      assert(e.solve(graph, termOnly) == termOnlyResult(graph), e.name)
    }
  }

  test("skos / Q1: all four engine families agree on R_S and result count") {
    val graph = Datasets.skos.graph
    val cnf = Queries.q1CnfPaper
    val sparse = SparseCFPQ.solve(graph, cnf)("S")
    assert(df.solve(graph, cnf)("S") == sparse)
    assert(new SparkBlockCFPQ(spark, blockSize = 32).solve(graph, cnf)("S") == sparse)
    assert(DenseCFPQ.solve(graph, cnf)("S") == sparse)
    assert(repro.baseline.HellingsCFPQ.solve(graph, cnf)("S") == sparse)
    assert(new repro.baseline.GllCFPQ(Queries.q1, "S").solve(graph)("S") == sparse)
  }

  test("univ-bench / Q2: all four engine families agree on R_S") {
    val graph = Datasets.univBench.graph
    val cnf = Queries.q2Cnf
    val sparse = SparseCFPQ.solve(graph, cnf)("S")
    assert(df.solve(graph, cnf)("S") == sparse)
    assert(new SparkBlockCFPQ(spark, blockSize = 32).solve(graph, cnf)("S") == sparse)
    assert(DenseCFPQ.solve(graph, cnf)("S") == sparse)
    assert(repro.baseline.HellingsCFPQ.solve(graph, cnf)("S") == sparse)
    assert(new repro.baseline.GllCFPQ(Queries.q2, "S").solve(graph)("S") == sparse)
  }

  test("block size does not change the result (1, 7, 64, 4096)") {
    val graph = LabeledGraph_small
    val cnf = Queries.q1CnfPaper
    val expect = SparseCFPQ.solve(graph, cnf)("S")
    for (bs <- Seq(1, 7, 64, 4096)) {
      assert(new SparkBlockCFPQ(spark, bs).solve(graph, cnf)("S") == expect, s"blockSize=$bs")
    }
  }

  test("SparkBlock runs exactly one Spark job per closure step and writes no shuffle") {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val tasks = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val sentinelSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = group(e) match {
        case Some("SparkBlock solve") => jobs.incrementAndGet(); e.stageIds.foreach(stages.add(_))
        case Some("sentinel") => sentinelSeen.countDown()
        case _ =>
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId)) {
          tasks.incrementAndGet()
          if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
        }
    }
    sc.addSparkListener(listener)
    try {
      val graph = Datasets.skos.graph
      sc.setJobGroup("SparkBlock solve", "SparkBlock solve")
      val got = try new SparkBlockCFPQ(spark, blockSize = 32).solve(graph, Queries.q1CnfPaper)
                finally sc.clearJobGroup()
      // Listener events arrive in order: once the sentinel job's start is
      // seen, so are the starts and task ends of every job of the solve.
      sc.setJobGroup("sentinel", "sentinel")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      assert(sentinelSeen.await(60, TimeUnit.SECONDS), "listener saw no sentinel job")
      assert(got.iterations > 2)
      assert(jobs.get == got.iterations)
      assert(!stages.isEmpty)
      // One task per partition and step: P = min(parallelism, block rows).
      val parts = math.min(sc.defaultParallelism, (graph.numNodes + 31) / 32)
      assert(tasks.get == got.iterations * parts, s"P=$parts")
      assert(shuffleBytes.get == 0)
    } finally sc.removeSparkListener(listener)
  }

  test("no Spark engine's solve runs a collect(), and every SparkBlock job is submitted from SparkBlockCFPQ.scala") {
    // A stage's name is its call site: the Spark method called, at the first frame outside Spark.
    def sites(engine: CFPQEngine) = {
      val (got, names) = observeJobs(engine.solve(anbn(4), anbnCnf))(_.stageInfos.map(_.name))
      assert(got.iterations == 8 && names.nonEmpty, engine.name)
      names
    }
    val block = sites(new SparkBlockCFPQ(spark, blockSize = 4))
    val all = block.flatten ++ sites(df).flatten
    assert(!all.exists(_.startsWith("collect at")), all.distinct.mkString(", "))
    assert(block.flatten.forall(_.matches(""".+ at SparkBlockCFPQ\.scala:\d+""")), block.mkString(", "))
  }

  test("SparkBlock's lineage does not grow with the step count: every step's job past the first runs over as many RDDs") {
    val (got, starts) = jobStarts(new SparkBlockCFPQ(spark).solve(anbn(10), anbnCnf))
    assert(got.iterations == 20 && starts.length == 20)
    // The first step runs over the initial empty RDD, every later one over
    // the last T, whose lineage the last step's job cut.
    val rdds = starts.map(_.stageInfos.map(_.rddInfos.size).sum)
    assert(rdds.drop(1).distinct.length == 1, rdds.mkString(", "))
  }

  test("SparkDF's lineage does not grow with the step count: the rows pinned after every step reach as many RDDs") {
    import spark.implicits._
    import SparkDataFrameCFPQ._
    val cached = ListBuffer.empty[RDD[Block]]
    try {
      val names = anbnCnf.nonterminals.toIndexedSeq.sorted
      val id = names.zipWithIndex.toMap
      val t0 = MatrixInit.cells(anbn(4), anbnCnf).toSeq
        .flatMap { case (nt, ps) => ps.map { case (s, d) => (id(nt), s, d, true) } }.toDF("nt", "src", "dst", "fresh")
      val rules = byB(anbnCnf, id)
      val pinned = Iterator.iterate(pin(t0, names, cached)._1)(rows => pin(step(frame(spark, rows), rules), names, cached)._1)
        .take(6).toSeq
      val reached = pinned.map(ancestors(_).size)
      assert(reached.distinct.length == 1, reached.mkString(", "))
    } finally cached.foreach(_.unpersist(blocking = false))
  }

  test("SparkDF's rules lookup: a nonterminal that is no rule's B, rules sharing B or (B, C), an empty graph and no binary rules all equal NaiveSetMatrix") {
    // Under ANSI mode, a missing key must still give null (no product), not an error.
    assert(spark.conf.get("spark.sql.ansi.enabled") == "true")
    val chain = LabeledGraph(Seq((0, "a", 1), (1, "b", 2), (1, "c", 3), (2, "b", 0), (3, "d", 4)))
    val cases = Seq(
      // S is no rule's B; nor is B, the second body symbol.
      "no rule's B" -> CnfGrammar(Seq(("S", "A", "B")), Seq(("A", "a"), ("B", "b"))),
      "two rules share B" -> CnfGrammar(Seq(("S", "A", "B"), ("R", "A", "C"), ("Q", "S", "B")),
        Seq(("A", "a"), ("B", "b"), ("C", "c"))),
      "same (B, C), different A" -> CnfGrammar(Seq(("S", "A", "B"), ("R", "A", "B"), ("A", "S", "B")),
        Seq(("A", "a"), ("B", "b"))),
      "no binary rules" -> termOnly,
    )
    for ((name, cnf) <- cases; graph <- Seq(chain, LabeledGraph(0, Vector.empty))) {
      val got = df.solve(graph, cnf)
      val truth = NaiveSetMatrixCFPQ.solve(graph, cnf)
      assert(got == truth && got.added == truth.added, s"$name on ${graph.numNodes} nodes")
    }
    val shared = df.solve(chain, cases(1)._2)
    assert(shared("S") == Set((0, 2)) && shared("R") == Set((0, 3)) && shared("Q") == Set((0, 0)))
    val sameBody = df.solve(chain, cases(2)._2)
    assert(sameBody("S") == sameBody("R") && sameBody("S").contains((0, 2)))
  }

  test("SparkDF runs exactly four Spark jobs per closure step, plus one to pin T0 and one to collect T") {
    val (graph, cnf) = (LabeledGraph.paperExample, Queries.q1CnfPaper)
    df.solve(graph, cnf) // the session's first solve of this plan may run more jobs
    val (got, starts) = jobStarts(df.solve(graph, cnf))
    val jobs = starts.length
    assert(got.iterations == 6)
    assert(jobs == 4 * got.iterations + 2, s"$jobs jobs over ${got.iterations} steps")
  }

  test("a Spark solve releases each superseded state while it runs: at most two persisted RDDs at every job start, on both Spark engines") {
    val sc = spark.sparkContext
    for (engine <- Seq(new SparkBlockCFPQ(spark, blockSize = 4), df)) {
      // The last state and the one being built; every older one is released.
      val persisted = sc.getPersistentRDDs.keySet
      val (got, held) = observeJobs(engine.solve(anbn(4), anbnCnf))(_ => (sc.getPersistentRDDs.keySet -- persisted).size)
      assert(got.iterations == 8 && held.nonEmpty, engine.name)
      assert(held.max <= 2, s"${engine.name}: ${held.mkString(", ")}")
      assert(sc.getPersistentRDDs.keySet == persisted, engine.name)
    }
  }

  test("SparkBlock finishes a 640-iteration closure (a^320 b^320) and equals SparseCSR") {
    val graph = anbn(320)
    val expect = SparseCFPQ.solve(graph, anbnCnf)
    assert(expect.iterations == 640)
    assert(new SparkBlockCFPQ(spark).solve(graph, anbnCnf) == expect)
  }

  test("a cancelled solve leaves no RDD persisted, on both Spark engines") {
    val sc = spark.sparkContext
    for ((engine, i) <- Seq(new SparkBlockCFPQ(spark, blockSize = 4), df).zipWithIndex) {
      // Cancel the solve at the first job that starts while it holds two
      // persisted states (the last one and the one being built), and every
      // later job of its group.
      val groupId = s"cancelled solve $i"
      val persisted = sc.getPersistentRDDs.keySet
      val cancelled = new AtomicInteger
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit =
          if (group(e).contains(groupId) && (sc.getPersistentRDDs.keySet -- persisted).size >= 2 &&
              cancelled.getAndIncrement() == 0) sc.cancelJobGroupAndFutureJobs(groupId)
      }
      sc.addSparkListener(listener)
      sc.setJobGroup(groupId, groupId)
      try intercept[SparkException](engine.solve(Datasets.skos.graph, Queries.q1CnfPaper))
      finally { sc.clearJobGroup(); sc.removeSparkListener(listener) }
      assert(cancelled.get > 0, engine.name)
      assert(sc.getPersistentRDDs.keySet == persisted, engine.name)
    }
  }

  test("SparkBlock rejects a block size below 1, naming it") {
    for (bs <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](new SparkBlockCFPQ(spark, bs))
      assert(e.getMessage.contains(s"blockSize must be positive, got $bs"))
    }
  }

  private def group(e: SparkListenerJobStart): Option[String] =
    Option(e.properties).map(_.getProperty("spark.jobGroup.id"))

  /** `body`'s result and the start events of the jobs it ran, in order. */
  private def jobStarts[A](body: => A): (A, Seq[SparkListenerJobStart]) = observeJobs(body)(identity)

  /** `body`'s result and `seen` of each job it ran, taken when the listener
    * gets the job's start, in order.
    */
  private def observeJobs[A, B](body: => A)(seen: SparkListenerJobStart => B): (A, Seq[B]) = {
    val sc = spark.sparkContext
    val starts = new ConcurrentLinkedQueue[B]
    val sentinelSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = group(e) match {
        case Some("observed") => starts.add(seen(e))
        case Some("sentinel") => sentinelSeen.countDown()
        case _ =>
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("observed", "observed")
      val result = try body finally sc.clearJobGroup()
      // Events arrive in order: the sentinel's start follows every start of `body`.
      sc.setJobGroup("sentinel", "sentinel")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      assert(sentinelSeen.await(60, TimeUnit.SECONDS), "listener saw no sentinel job")
      (result, starts.asScala.toSeq)
    } finally sc.removeSparkListener(listener)
  }

  /** Every RDD that `rdd`'s dependencies reach, `rdd` included. */
  private def ancestors(rdd: RDD[_]): Set[Int] = rdd.dependencies.map(d => ancestors(d.rdd)).foldLeft(Set(rdd.id))(_ ++ _)

  /** a^n b^n as a path graph; its closure under `S → a S b | a b` takes 2n iterations. */
  private def anbn(n: Int): LabeledGraph =
    LabeledGraph(2 * n + 1, (0 until 2 * n).map(i => (i, if (i < n) "a" else "b", i + 1)).toVector)

  private lazy val anbnCnf = CNF.transform(Grammar.parse("S -> a S b | a b"))

  private lazy val LabeledGraph_small =
    repro.graph.LabeledGraph(Seq(
      (1, "subClassOf", 0), (2, "subClassOf", 0), (3, "subClassOf", 1),
      (4, "type", 3), (4, "type", 2), (5, "type", 1),
    )).withInverses()
}
