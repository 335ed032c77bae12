package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** Iteration-safe materialization for SparkDF's fixpoint loop: persist a
  * closure state and count its rows (one cell each) in the one job that
  * fills the cache.
  * The previous iteration's state is released by [[Closure.run]] once the
  * new one is live.
  */
object Materialize {

  /** A persisted RDD and its row count. */
  final case class Pinned[T](data: RDD[T], count: Long) {
    def release(): Unit = data.unpersist(blocking = false)
  }

  /** Persist `rdd` and count its rows. */
  def apply[T](rdd: RDD[T]): Pinned[T] = {
    rdd.persist(StorageLevel.MEMORY_AND_DISK)
    Pinned(rdd, rdd.count())
  }
}
