package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BlockBoolMatrix.{Key, Tiles, absorb, colOf, colSide, rowOf, rowSide}
import repro.linalg.{BlockBoolMatrix, BoolCSR}

/** Algorithm 1 over a *distributed block-sparse* Boolean matrix — the
  * paper's **sGPU** analog.
  *
  * The paper offloads CSR Boolean multiplications to CUSPARSE on a GPU;
  * here the per-nonterminal matrices are tiled into [[repro.linalg.BoolCSR]]
  * tiles of a pair RDD spread over Spark partitions, and every tile product
  * runs the same masked CSR kernel as [[SparseCFPQ]] (sCPU) inside a Spark
  * task. Spark tasks over tiles stand in for CUDA thread blocks: the
  * speedup mechanism (parallel sparse kernels on independent sub-matrices)
  * is the same.
  *
  * The closure is [[LocalMatrixCFPQ]]'s semi-naive step with `T` kept in
  * place: `T` is persisted twice, placed by block row and by block column
  * ([[repro.linalg.BlockBoolMatrix]]), and only `Δ` moves, broadcast from
  * the driver. A step absorbs `Δ` into both copies and collects
  * `Δ' = (⋃_{A→BC} T_B·Δ_C ∪ Δ_B·T_C) ∖ T_A` from them: one Spark job with
  * no shuffle. The driver keeps every `Δ`, so the result `T₀ ∪ ⋃ Δ` needs
  * no further job.
  *
  * @param spark     session to run on
  * @param blockSize side of square tiles; small graphs collapse to one
  *                  block, large ones fan out across the cluster
  */
final class SparkBlockCFPQ(spark: SparkSession, blockSize: Int = 1024) extends CFPQEngine {
  require(blockSize > 0, s"blockSize must be positive, got $blockSize")
  override val name = "SparkBlock"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val sc = spark.sparkContext
    val blockRows = (math.max(graph.numNodes, 1) + blockSize - 1) / blockSize
    val empty = sc.parallelize(Seq.empty[(Key, BoolCSR)], math.min(sc.defaultParallelism, blockRows))
    val t0 = BlockBoolMatrix.tile(blockSize, MatrixInit.cells(graph, grammar))
    val deltas = ListBuffer(t0)
    val broadcasts = ListBuffer.empty[Broadcast[Tiles]]
    // State: T placed by block row, T placed by block column (both without
    // Δ yet), Δ on the driver (Δ₀ = T₀) and |T ∪ Δ|.
    def release(s: (RDD[(Key, BoolCSR)], RDD[(Key, BoolCSR)], Tiles, Long)): Unit = {
      s._1.unpersist(blocking = false); s._2.unpersist(blocking = false)
    }
    val (last, iterations) = try {
      Closure.run((empty, empty, t0, BlockBoolMatrix.nnz(t0)))(_._4, release) { case (r, c, delta, size) =>
        val d = sc.broadcast(delta)
        broadcasts += d
        val r2 = absorb(r, d, rowOf).persist(StorageLevel.MEMORY_AND_DISK)
        val c2 = absorb(c, d, colOf).persist(StorageLevel.MEMORY_AND_DISK)
        val fresh = rowSide(r2, d, grammar.byFirst).union(colSide(c2, d, grammar.bySecond))
          .collect().groupMapReduce(_._1)(_._2)(_ union _)
        deltas += fresh
        (r2, c2, fresh, size + BlockBoolMatrix.nnz(fresh))
      }
    } finally broadcasts.foreach(_.destroy())
    release(last)
    CFPQResult(BlockBoolMatrix.cells(deltas), iterations)
  }
}
