package cfpqbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.core.{CFPQResult, MatrixInit}
import repro.graph.LabeledGraph

/** The CFPQ benchmark driver: one workload, one closed-loop client, one
  * solve at a time, on a local Spark session with a task thread per two cores.
  *
  * {{{
  *   Main --workload q1-funding --seed 7 --seconds 5 --trace 0
  * }}}
  *
  * With `--trace 0` it times `CFPQEngine.solve` for every engine and
  * prints the end-to-end metrics; with `--trace 1` it measures each layer
  * from outside (see README.md). Every solve is checked; the last stdout
  * line is the result object, and the exit code is 1 if any check failed.
  */
object Main {

  final case class Options(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parse(args: Seq[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      name <- need("workload")
      w <- Workloads.byName(name).toRight(s"unknown workload $name (${Workloads.all.map(_.name).mkString(", ")})")
      seed <- kv.get("seed").fold[Either[String, Long]](Right(w.dataset.seed))(s =>
        s.toLongOption.toRight(s"bad --seed $s"))
      seconds <- need("seconds").flatMap(s => s.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      trace <- kv.getOrElse("trace", "0") match {
        case "0" => Right(false)
        case "1" => Right(true)
        case t   => Left(s"bad --trace $t")
      }
    } yield Options(w, seed, seconds, trace)
  }

  def main(args: Array[String]): Unit = {
    val code = parse(args.toSeq) match {
      case Left(msg) => System.err.println(s"cfpqbench: $msg"); 2
      case Right(o)  => new Run(o).execute()
    }
    sys.exit(code)
  }
}

/** One timed solve: its wall time and the CPU time the JVM spent in it
  * (all threads). `kernelMs` is the time of the [[HostSpeed]] kernel run
  * just before a local solve (0 for Spark solves). On traced solves,
  * `tracingMs` is the time the tracing added around the solve, and the JVM
  * counters (local engines) or the Spark group counters with the driver gap
  * in ms (Spark engines) are filled.
  */
final case class Sample(ms: Double, tracingMs: Double, allocBytes: Long, gcMs: Long,
                        spark: Option[(GroupStats, Long)], cpuMs: Double = 0.0, kernelMs: Double = 0.0)

/** The timed solves per engine key, each engine's last answer, every time
  * of the [[HostSpeed]] kernel, and the share of the VM's CPU time stolen by
  * the host during the timed phases (if known).
  */
final case class Timed(samples: Map[String, Seq[Sample]], last: Map[String, CFPQResult],
                       kernelMs: Seq[Double], stolenShare: Option[Double]) {

  /** The host's speed over the local phase: the median kernel time. */
  def hostKernelMs: Double = Run.median(kernelMs)

  /** A local engine's metric: the median of its solve times, each scaled to
    * the reference host by the kernel run just before it.
    */
  def scaledMs(key: String): Double =
    Run.median(samples(key).map(x => HostSpeed.scale(x.ms, x.kernelMs)))

  /** A Spark engine's metric: the median wall time of its solves, unscaled. */
  def wallMs(key: String): Double = Run.median(samples(key).map(_.ms))
}

final class Run(o: Main.Options) {
  import Run._

  private val w = o.workload
  private val nproc = Runtime.getRuntime.availableProcessors()
  private val sparkCores = sparkThreads(nproc)
  private var attempted = 0
  private var failed = 0
  private val errors = mutable.ArrayBuffer.empty[String]
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val sampleStats = mutable.LinkedHashMap.empty[String, Any]

  private def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  private def fail(msg: String): Unit = { errors += msg; log(s"FAILED $msg") }

  private def log(msg: String): Unit = System.err.println(s"[cfpqbench] $msg")

  def execute(): Int = {
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark = startSpark()
    val sparkReadyS = (System.currentTimeMillis() - jvmStart) / 1e3
    try {
      measure(spark, sparkReadyS)
    } catch {
      case NonFatal(e) => fail(s"aborted: $e"); e.printStackTrace()
    } finally spark.stop()
    report(spark)
    if (correct) 0 else 1
  }

  private def correct: Boolean = errors.isEmpty && failed == 0

  private def measure(spark: SparkSession, sparkReadyS: Double): Unit = {
    val engines = Engine.all(spark, w.query)
    val (local, distributed) = engines.partition(!_.spark)
    val cnf = w.query.cnf

    val relabel = w.relabel(o.seed)
    val checker = Checker.forInput(w, w.dataset.graph, relabel) match {
      case Left(problems) => problems.foreach(fail); return
      case Right(c)       => c
    }

    def warmUp(e: Engine, g: LabeledGraph): Double = {
      val (r, s) = seconds(e.engine.solve(g, cnf))
      checker.problems(e, r).foreach(p => fail(s"warm-up $p"))
      s
    }
    // Set-up that repeats per input: generate the graph and run each local
    // engine once on it (JIT, lazy graph indexes).
    val reps = (1 to SetupReps).map { _ =>
      val (g, genS) = seconds(relabel.graph(w.dataset.graph))
      (g, genS, genS + local.map(warmUp(_, g)).sum)
    }
    val graph = reps.last._1
    val listener = if (o.trace) Some(new GroupListener(spark.sparkContext)) else None
    val timer = new Timer(graph, checker, listener)
    // The local engines are timed before any Spark job runs in the JVM.
    timer.local(local, o.seconds)
    // Each Spark engine solves the run's own input once, checked and
    // untimed: the first solve of a session compiles Spark's code paths and
    // runs a few more jobs than later ones. The engines warm up side by side
    // to save time.
    val (warm, sparkWarmS) = seconds {
      distributed.map(e => Future(e -> e.engine.solve(graph, cnf))).map(Await.result(_, Duration.Inf))
    }
    warm.foreach { case (e, r) => checker.problems(e, r).foreach(p => fail(s"warm-up $p")) }
    val setupS = sparkReadyS + sparkWarmS + median(reps.map(_._3))
    log(f"Spark ready after $sparkReadyS%.1f s; Spark warm-up $sparkWarmS%.1f s; per-input set-up " +
      f"${reps.map(_._3).map(s => f"$s%.2f").mkString(" ")} s")
    listener.foreach(spark.sparkContext.addSparkListener)
    try timer.spark(distributed)
    finally listener.foreach(spark.sparkContext.removeSparkListener)
    val timed = timer.result

    if (!o.trace) {
      engines.foreach { e =>
        val ms = timed.samples(e.key).map(_.ms)
        sampleStats(e.key) =
          if (e.spark) describe(ms) ++ Map("cpu_ms" -> describe(timed.samples(e.key).map(_.cpuMs)))
          else describe(ms)
        if (ms.nonEmpty) {
          if (e.spark) metric(s"${e.key}_ms", timed.wallMs(e.key), "ms")
          else metric(s"${e.key}_ms", timed.scaledMs(e.key), "ms")
        }
      }
      metric("setup_s", setupS, "s")
    } else traced(engines, graph, timed, reps.map(_._2))
    describeHost(timed)
  }

  /** The timed solves of a run: the local phase, which runs the
    * [[HostSpeed]] kernel before each solve, then, after the Spark warm-up,
    * the Spark phase.
    */
  private final class Timer(graph: LabeledGraph, checker: Checker, listener: Option[GroupListener]) {
    private val samples = mutable.Map.empty[String, mutable.ArrayBuffer[Sample]]
    private val last = mutable.Map.empty[String, CFPQResult]
    private val kernelMs = mutable.ArrayBuffer.empty[Double]
    (1 to KernelWarmUpRuns).foreach(_ => HostSpeed.kernel())
    private val ticks0 = HostSpeed.cpuTicks()

    private def kernel(): Double = { val ms = HostSpeed.kernelMs(); kernelMs += ms; ms }

    private def once(e: Engine, kernelBefore: Double): Unit = {
      val xs = samples.getOrElseUpdate(e.key, mutable.ArrayBuffer.empty)
      solve(e, graph, checker, listener).foreach { case (x, r) =>
        xs += x.copy(kernelMs = kernelBefore); last(e.key) = r
      }
      if (e.spark) log(f"${e.key} ${xs.lastOption.fold(Double.NaN)(_.ms)}%.0f ms")
    }

    /** Times the local engines round-robin for at least `budgetS` and
      * `MinLocalRounds` rounds, each solve after a full GC and right after
      * a run of the kernel.
      */
    def local(engines: Seq[Engine], budgetS: Double): Unit = {
      val until = System.nanoTime() + (budgetS * 1e9).toLong
      var rounds = 0
      do { engines.foreach { e => System.gc(); once(e, kernel()) }; rounds += 1 }
      while (rounds < MinLocalRounds || System.nanoTime() < until)
    }

    /** Times each Spark engine `MinSparkSamples` times (traced:
      * `MinTracedSparkSamples`), one solve at a time, each after a full GC.
      */
    def spark(engines: Seq[Engine]): Unit = {
      val n = if (listener.isDefined) MinTracedSparkSamples else MinSparkSamples
      for (_ <- 1 to n; e <- engines) { System.gc(); once(e, 0.0) }
    }

    def result: Timed = {
      val stolen = for ((s0, t0) <- ticks0; (s1, t1) <- HostSpeed.cpuTicks() if t1 > t0)
        yield (s1 - s0).toDouble / (t1 - t0)
      Timed(samples.map { case (k, v) => k -> v.toSeq }.toMap.withDefaultValue(Seq.empty), last.toMap,
        kernelMs.toSeq, stolen)
    }
  }

  /** One checked solve, traced if a listener is given; `None` if it threw
    * or returned a wrong answer.
    */
  private def solve(e: Engine, graph: LabeledGraph, checker: Checker,
                    listener: Option[GroupListener]): Option[(Sample, CFPQResult)] = {
    attempted += 1
    try {
      val cnf = w.query.cnf
      val t0 = System.nanoTime()
      val (sample, result) = listener match {
        case Some(l) if e.spark =>
          var wallFrom, wallTo = 0L
          val ((r, ms, cpu), stats) = l.scoped(s"cfpqbench/${e.key}/$attempted") {
            wallFrom = System.currentTimeMillis()
            val x = timedCpu(e.engine.solve(graph, cnf))
            wallTo = System.currentTimeMillis()
            x
          }
          (Sample(ms, 0.0, 0L, 0L, Some((stats, (ms - stats.busyMs(wallFrom, wallTo)).round)), cpu), r)
        case Some(_) =>
          val a0 = Threads.getCurrentThreadAllocatedBytes
          val g0 = gcMs()
          val (r, ms, cpu) = timedCpu(e.engine.solve(graph, cnf))
          (Sample(ms, 0.0, Threads.getCurrentThreadAllocatedBytes - a0, gcMs() - g0, None, cpu), r)
        case None =>
          val (r, ms, cpu) = timedCpu(e.engine.solve(graph, cnf))
          (Sample(ms, 0.0, 0L, 0L, None, cpu), r)
      }
      val tracingMs = (System.nanoTime() - t0) / 1e6 - sample.ms
      val problems = checker.problems(e, result)
      problems.foreach(fail)
      if (problems.isEmpty) Some((sample.copy(tracingMs = tracingMs), result)) else { failed += 1; None }
    } catch {
      case NonFatal(ex) =>
        failed += 1
        fail(s"${e.key}: solve threw $ex")
        None
    }
  }

  /** The host's speed during the timed phases, for the info line. */
  private def describeHost(timed: Timed): Unit =
    sampleStats("host") = mutable.LinkedHashMap[String, Any](
      "kernel_ms" -> describe(timed.kernelMs),
      "stolen_share" -> timed.stolenShare.orNull,
    )

  /** The traced run: per-layer metrics measured around public calls. */
  private def traced(engines: Seq[Engine], graph: LabeledGraph, withTrace: Timed,
                     graphGenS: Seq[Double]): Unit = {
    val cnf = w.query.cnf

    // repro.data
    metric("data.graph_ms", median(graphGenS) * 1000, "ms")
    metric("data.nodes", graph.numNodes, "count")
    metric("data.edges", graph.edges.size, "count")

    // repro.core.MatrixInit
    val inits = (1 to LayerReps).map(_ => timedMs(MatrixInit.cells(graph, cnf)))
    metric("init.cells_ms", median(inits.map(_._2)), "ms")
    metric("init.cells", inits.head._1.values.map(_.size.toLong).sum, "count")

    // The engines: the traced solves of the timed phases.
    metric("host.kernel_ms", withTrace.hostKernelMs, "ms")
    engines.foreach { e =>
      val k = e.key
      val ts = withTrace.samples(k)
      sampleStats(k) = describe(ts.map(_.ms))
      if (ts.nonEmpty) {
        val r = withTrace.last(k)
        val ms = median(ts.map(_.ms))
        metric(s"$k.iterations", r.iterations, "count")
        metric(s"$k.result_pairs", r.relations.values.map(_.size.toLong).sum, "count")
        metric(s"$k.traced_ms", ms, "ms")
        metric(s"tracing.$k.overhead_ms", median(ts.map(_.tracingMs)), "ms")
        if (e.spark) {
          val stats = ts.map(_.spark.get._1)
          val last = stats.last
          if (stats.map(s => (s.jobs, s.stages, s.tasks, s.shuffleWriteBytes, s.shuffleReadBytes)).distinct.size > 1)
            fail(s"$k: Spark counts differ between solves of one input: $stats")
          metric(s"$k.jobs", last.jobs, "count")
          metric(s"$k.stages", last.stages, "count")
          metric(s"$k.tasks", last.tasks, "count")
          metric(s"$k.shuffle_write_bytes", last.shuffleWriteBytes, "bytes")
          metric(s"$k.shuffle_read_bytes", last.shuffleReadBytes, "bytes")
          metric(s"$k.jobs_per_iter", last.jobs.toDouble / r.iterations, "jobs/iter")
          metric(s"$k.ms_per_iter", ms / r.iterations, "ms")
          metric(s"$k.executor_run_ms", median(stats.map(_.executorRunMs.toDouble)), "ms")
          metric(s"$k.driver_gap_ms", median(ts.map(_.spark.get._2.toDouble)), "ms")
        } else {
          metric(s"$k.alloc_mb", median(ts.map(_.allocBytes / 1e6)), "MB")
          metric(s"$k.gc_ms", ts.map(_.gcMs).sum.toDouble / ts.size, "ms")
        }
      }
    }

    // repro.linalg.BoolCSR and BitMatrix: replays, checked against the engines.
    def faithful(name: String, replay: ReplayStats, engineKey: String): Unit = {
      attempted += 1
      val engineResult = withTrace.last.get(engineKey)
      if (!engineResult.contains(replay.result)) {
        failed += 1
        fail(s"$name replay differs from $engineKey: ${replay.result.iterations} iterations, " +
          s"${Fingerprint.all(replay.result)} vs ${engineResult.map(r => (r.iterations, Fingerprint.all(r)))}")
      }
    }
    val csr = (1 to LayerReps).map(_ => Replay.csr(graph, cnf))
    faithful("BoolCSR", csr.last, "sparse_csr")
    metric("csr.multiply_calls", csr.last.multiplyCalls, "count")
    metric("csr.multiply_ms", median(csr.map(_.multiplyNs / 1e6)), "ms")
    metric("csr.union_ms", median(csr.map(_.unionNs / 1e6)), "ms")
    metric("csr.extract_ms", median(csr.map(_.extractNs / 1e6)), "ms")
    metric("csr.product_cells", csr.last.productCells, "count")
    metric("csr.new_cells", csr.last.newCells, "count")
    metric("csr.useful_ratio", csr.last.usefulRatio, "ratio")
    metric("csr.ns_per_product_cell", median(csr.map(_.nsPerProductCell)), "ns")

    val bit = (1 to LayerReps).map(_ => Replay.bit(graph, cnf))
    faithful("BitMatrix", bit.last, "dense")
    metric("bit.multiply_ms", median(bit.map(_.multiplyNs / 1e6)), "ms")
    metric("bit.or_ms", median(bit.map(_.unionNs / 1e6)), "ms")
    metric("bit.extract_ms", median(bit.map(_.extractNs / 1e6)), "ms")
  }

  private def startSpark(): SparkSession = {
    val work = new java.io.File(sys.props.getOrElse("cfpqbench.workdir", "target/cfpqbench-work")).getAbsoluteFile
    val s = SparkSession.builder
      .master(s"local[$sparkCores]")
      .appName("cfpqbench")
      .config("spark.sql.shuffle.partitions", sparkCores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new java.io.File(work, "warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def report(spark: SparkSession): Unit = {
    val conf = spark.conf
    val env = mutable.LinkedHashMap[String, Any](
      "nproc" -> nproc,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "java_version" -> sys.props("java.version"),
      "spark_version" -> spark.version,
      "spark_master" -> s"local[$sparkCores]",
      "shuffle_partitions" -> conf.getOption("spark.sql.shuffle.partitions").orNull,
      "auto_broadcast_join_threshold" -> conf.getOption("spark.sql.autoBroadcastJoinThreshold").orNull,
      "spark_block_size" -> Engine.SparkBlockSize,
      "seed" -> o.seed,
      "dataset_seed" -> w.dataset.seed,
      "git_commit" -> sys.props.getOrElse("cfpqbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("cfpqbench.sources", "unknown"),
    )
    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name,
      "trace" -> o.trace,
      "seconds" -> o.seconds,
      "env" -> env,
      "samples" -> sampleStats,
      "error_rate" -> (if (attempted == 0) 1.0 else failed.toDouble / attempted),
      "errors" -> errors.take(20),
    )
    println(Json.render(info))
    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> correct,
      "attempted" -> math.max(attempted, 1),
      "failed" -> (if (attempted == 0) 1 else failed),
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) },
    )
    println(Json.render(result))
  }
}

object Run {
  /** Repetitions of the per-input set-up; `setup_s` uses their median. */
  val SetupReps = 3
  /** Repetitions of each layer call in the traced run. */
  val LayerReps = 3
  /** Spark's task threads: half the cores, so that the driver thread and
    * the JVM's compiler and GC threads keep cores of their own. With a task
    * thread per core the CPU time of a solve varied by 10-15% from run to
    * run (busy threads on the VM's shared cores slow each other); with half
    * as many, by 1-4%.
    */
  def sparkThreads(nproc: Int): Int = math.max(1, nproc / 2)
  /** Rounds of the local engines in the timed phase at the least. */
  val MinLocalRounds = 8
  /** Untimed runs of the [[HostSpeed]] kernel before a timed loop (JIT). */
  val KernelWarmUpRuns = 30
  /** Timed solves per Spark engine at the least. More solves of one run do
    * not steady a Spark metric: run to run, the host's speed moves the
    * solves of one run together.
    */
  val MinSparkSamples = 1
  /** The same in a traced run: two, so that it can check that the Spark
    * counts of one input repeat.
    */
  val MinTracedSparkSamples = 2

  private val Threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def timedMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  private val Os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** `body`'s result, wall time and the CPU time of the JVM (all threads), in ms. */
  def timedCpu[A](body: => A): (A, Double, Double) = {
    val c0 = Os.getProcessCpuTime
    val (r, ms) = timedMs(body)
    (r, ms, (Os.getProcessCpuTime - c0) / 1e6)
  }

  def seconds[A](body: => A): (A, Double) = {
    val (r, ms) = timedMs(body)
    (r, ms / 1e3)
  }

  /** Sample count and order statistics of a run's solve times, in ms. */
  def describe(ms: Seq[Double]): Map[String, Any] =
    if (ms.isEmpty) Map("n" -> 0)
    else Map("n" -> ms.size) ++ Seq("min" -> 0.0, "p10" -> 0.1, "median" -> 0.5, "max" -> 1.0)
      .map { case (k, p) => k -> quantile(ms, p) }

  /** The `p`-quantile of `xs` by nearest rank. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    s(((s.size - 1) * p).round.toInt)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
