package cfpqbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Spark work done by the jobs of one job group (one solve). The counts
  * (`jobs`, `stages`, `tasks`, shuffle bytes) depend only on the plans and
  * the data, so they repeat exactly from run to run; the timings do not.
  */
final case class GroupStats(jobs: Int,
                            jobsEnded: Int,
                            stages: Int,
                            tasks: Long,
                            shuffleWriteBytes: Long,
                            shuffleReadBytes: Long,
                            executorRunMs: Long,
                            jobIntervals: Seq[(Long, Long)]) {

  /** Milliseconds of `[from, to]` covered by at least one job interval. */
  def busyMs(from: Long, to: Long): Long = {
    val clipped = jobIntervals
      .map { case (s, e) => (math.max(s, from), math.min(e, to)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) covered += curE - curS
    covered
  }
}

object GroupStats {
  val empty: GroupStats = GroupStats(0, 0, 0, 0L, 0L, 0L, 0L, Seq.empty)
}

/** A listener that attributes jobs, stages, tasks and shuffle bytes to the
  * job group (`SparkContext.setJobGroup`) that submitted them.
  *
  * Listener events arrive asynchronously, in the order they were posted.
  * [[GroupListener#scoped]] therefore ends each measured body with a
  * one-task sentinel job in a group of its own and waits until the
  * sentinel's `SparkListenerJobEnd` arrives: every event of the body was
  * posted before it, so by then the body's counters are complete. It then
  * checks that every job started in the body's group has also ended.
  */
final class GroupListener(sc: SparkContext) extends SparkListener {
  private final class Acc {
    var jobs = 0
    var jobsEnded = 0
    var stages = 0
    var tasks = 0L
    var shuffleWrite = 0L
    var shuffleRead = 0L
    var runMs = 0L
    val starts = mutable.Map.empty[Int, Long]
    val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  }

  private val groups = mutable.Map.empty[String, Acc]
  private val groupOfJob = mutable.Map.empty[Int, String]
  private val groupOfStage = mutable.Map.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(GroupListener.JobGroupKey))).foreach { g =>
      val acc = groups.getOrElseUpdate(g, new Acc)
      acc.jobs += 1
      acc.starts(e.jobId) = e.time
      groupOfJob(e.jobId) = g
      e.stageIds.foreach(groupOfStage(_) = g)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    groupOfJob.remove(e.jobId).foreach { g =>
      val acc = groups(g)
      acc.jobsEnded += 1
      acc.intervals += ((acc.starts.remove(e.jobId).getOrElse(e.time), e.time))
      notifyAll()
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    groupOfStage.get(e.stageInfo.stageId).foreach(g => groups(g).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    groupOfStage.get(e.stageId).foreach { g =>
      val acc = groups(g)
      acc.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        acc.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        acc.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        acc.runMs += m.executorRunTime
      }
    }
  }

  /** Counters of `group` so far. */
  def stats(group: String): GroupStats = synchronized {
    groups.get(group).fold(GroupStats.empty) { a =>
      GroupStats(a.jobs, a.jobsEnded, a.stages, a.tasks, a.shuffleWrite, a.shuffleRead, a.runMs,
        a.intervals.toSeq)
    }
  }

  /** Block until a job of `group` has ended, or fail after `timeoutMs`. */
  private def awaitJobEnd(group: String, timeoutMs: Long): Unit = synchronized {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (groups.get(group).forall(_.jobsEnded == 0)) {
      val left = deadline - System.currentTimeMillis()
      if (left <= 0) throw new IllegalStateException(s"listener saw no end of job group $group")
      wait(left)
    }
  }

  /** Forget the counters of `group`. */
  def drop(group: String): Unit = synchronized {
    groups.remove(group)
    groupOfStage.filterInPlace { case (_, g) => g != group }
  }

  /** Run `body` with its jobs in `group` and return its result with the
    * group's complete counters.
    */
  def scoped[A](group: String)(body: => A): (A, GroupStats) = {
    sc.setJobGroup(group, group, interruptOnCancel = false)
    val result =
      try body
      finally sc.clearJobGroup()
    val sentinel = s"$group/sentinel"
    sc.setJobGroup(sentinel, sentinel, interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    awaitJobEnd(sentinel, timeoutMs = 60000)
    drop(sentinel)
    val s = stats(group)
    drop(group)
    if (s.jobsEnded != s.jobs)
      throw new IllegalStateException(s"job group $group: ${s.jobs} jobs started, ${s.jobsEnded} ended")
    (result, s)
  }
}

object GroupListener {

  /** The local property `SparkContext.setJobGroup` sets (the constant in
    * `SparkContext` is `private[spark]`).
    */
  val JobGroupKey = "spark.jobGroup.id"
}
