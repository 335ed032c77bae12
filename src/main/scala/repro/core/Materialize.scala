package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel

/** Iteration-safe materialization for fixpoint loops.
  *
  * `Dataset.localCheckpoint()` truncates lineage but *carries over* the
  * optimized plan's statistics into the resulting `LogicalRDD`. In an
  * iterated self-join (the transitive-closure loop, Algorithm 1 line 9)
  * those `sizeInBytes` estimates compound multiplicatively: iteration k's
  * plan multiplies iteration k−1's checkpointed stats several times, so
  * the BigInt estimate grows with ~3^k digits and Catalyst ends up
  * spending minutes multiplying million-digit integers (observed on the
  * wine graph at ~12 iterations).
  *
  * [[Materialize.apply]] instead persists the underlying RDD, forces it,
  * and rebuilds a fresh Dataset — lineage truncated *and* statistics
  * reset to defaults. The previous iteration's handle is released by
  * [[Closure.run]] once the new one is live.
  */
object Materialize {

  /** A materialized dataset, its cell count, and the persisted RDD backing
    * it (kept so that it can be unpersisted once superseded).
    */
  final case class Pinned[T](data: Dataset[T], count: Long, handle: RDD[T]) {
    def release(): Unit = handle.unpersist(blocking = false)
  }

  /** Persist `ds` and count its cells, `Σ cells(row)`, in the one job that
    * fills the cache.
    */
  def apply[T](ds: Dataset[T])(cells: T => Long): Pinned[T] = {
    val rdd = ds.rdd
    rdd.persist(StorageLevel.MEMORY_AND_DISK)
    val n = rdd.map(cells).fold(0L)(_ + _)
    Pinned(ds.sparkSession.createDataset(rdd)(ds.encoder), n, rdd)
  }
}
