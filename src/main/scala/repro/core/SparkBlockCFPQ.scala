package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BoolCSR

/** Algorithm 1 over a *distributed block-sparse* Boolean matrix — the
  * paper's **sGPU** analog. The paper offloads CSR Boolean multiplications
  * to CUSPARSE on a GPU; here the per-nonterminal matrices are tiled into
  * [[repro.linalg.BoolCSR]] tiles of a pair RDD, and each output tile of a
  * step is one call of [[SparseCFPQ]]'s (sCPU) masked kernel inside a
  * Spark task, standing in for a CUDA thread block.
  *
  * The closure is [[LocalMatrixCFPQ]]'s semi-naive step with `T` kept in
  * place: `T` is persisted once, each tile on the partitions of its block
  * row and of its block column, and only `Δ` moves, broadcast from the
  * driver. A step absorbs `Δ` into `T` and collects
  * `Δ' = (⋃_{A→BC} T_B·Δ_C ∪ Δ_B·T_C) ∖ T_A` from it: one Spark job with
  * no shuffle, and reports `Δ'`'s tile `nnz` summed per nonterminal. The
  * driver keeps every `Δ`, so the result `T₀ ∪ ⋃ Δ` needs no further job.
  *
  * @param spark     session to run on
  * @param blockSize side of square tiles; small graphs collapse to one
  *                  block, large ones fan out across the cluster
  */
final class SparkBlockCFPQ(spark: SparkSession, blockSize: Int = 1024) extends CFPQEngine {
  import SparkBlockCFPQ._
  require(blockSize > 0, s"blockSize must be positive, got $blockSize")
  override val name = "SparkBlock"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val sc = spark.sparkContext
    val blockRows = (math.max(graph.numNodes, 1) + blockSize - 1) / blockSize
    val empty = sc.parallelize(Seq.empty[(Key, BoolCSR)], math.min(sc.defaultParallelism, blockRows))
    val t0 = tile(blockSize, MatrixInit.cells(graph, grammar))
    val deltas = ListBuffer(t0)
    val cached = ListBuffer.empty[RDD[(Key, BoolCSR)]]
    val broadcasts = ListBuffer.empty[Broadcast[Tiles]]
    // State: T without Δ yet and Δ on the driver (Δ₀ = T₀).
    val (_, added) = try {
      Closure.run((empty, t0))(_._1.unpersist(blocking = false)) { case (t, delta) =>
        val d = sc.broadcast(delta)
        broadcasts += d
        // The step's job stores T ∪ Δ and cuts its lineage, which then stays one step deep.
        val t2 = absorb(t, d).persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()
        cached += t2
        val fresh = step(t2, d, grammar).collect().groupMapReduce(_._1)(_._2)(_ union _)
        deltas += fresh
        ((t2, fresh), fresh.toSeq.groupMapReduce(_._1._1)(_._2.nnz.toLong)(_ + _))
      }
    } finally {
      // The last state; after a failed step, the one it started from too.
      cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist(blocking = false))
      broadcasts.foreach(_.destroy())
    }
    CFPQResult(cells(deltas), added.length, added)
  }
}

/** SparkBlock's tiles. The matrix of nonterminal `nt` is `n×n`, tiled into
  * square blocks of side `blockSize`; the tile at key `(nt, bi, bj)` covers
  * rows `[bi·bs, (bi+1)·bs)` and columns `[bj·bs, (bj+1)·bs)` and holds its
  * cells in block-local coordinates.
  */
object SparkBlockCFPQ {

  /** A tile's nonterminal, block row and block column. */
  type Key = (String, Int, Int)

  /** Tiles held on the driver. */
  type Tiles = Map[Key, BoolCSR]

  /** Tile a set of per-nonterminal cell lists. */
  private[repro] def tile(blockSize: Int, cells: Map[String, Seq[(Int, Int)]]): Tiles =
    cells.flatMap { case (nt, pairs) =>
      pairs
        .groupBy { case (i, j) => (i / blockSize, j / blockSize) }
        .map { case ((bi, bj), ps) =>
          (nt, bi, bj) -> BoolCSR.fromPairs(blockSize, blockSize,
            ps.map { case (i, j) => (i - bi * blockSize, j - bj * blockSize) })
        }
    }

  /** Per-nonterminal relation of several tile sets: a tile's packed cells plus its packed origin. */
  private[repro] def cells(tiles: Iterable[Tiles]): Map[String, Relation] =
    tiles.iterator.flatten.toArray.groupBy(_._1._1).map { case (nt, ts) =>
      Relation.requireFits(nt, ts.iterator.map(_._2.nnz.toLong).sum)
      nt -> Relation(ts.flatMap { case ((_, bi, bj), m) => m.toPacked.map(_ + Relation.pack(bi * m.numRows, bj * m.numCols)) })
    }

  /** `T ∪ Δ` in place: partition `p` of `P` holds the tiles whose block row
    * or block column is `p` modulo `P`, so a tile lives on one partition
    * when `bi ≡ bj (mod P)` and on two otherwise. Over an empty RDD this
    * places `delta` itself.
    */
  private[repro] def absorb(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles]): RDD[(Key, BoolCSR)] = {
    val parts = t.getNumPartitions
    t.mapPartitionsWithIndex { (p, it) =>
      val local = it.toMap
      val own = delta.value.iterator.filter { case ((_, bi, bj), _) => bi % parts == p || bj % parts == p }
      (local ++ own.map { case (key, d) => key -> local.get(key).fold(d)(_ union d) }).iterator
    }
  }

  /** One semi-naive step over `t ⊇ Δ` placed by [[absorb]]: the non-empty
    * tiles of `Δ' = (⋃_{A→BC} T_B·Δ_C ∪ Δ_B·T_C) ∖ T_A`, one masked kernel
    * call per output tile of a partition. An output tile made on two
    * partitions comes out twice; the caller unions the copies.
    */
  private[repro] def step(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles], grammar: CnfGrammar): RDD[(Key, BoolCSR)] = {
    val parts = t.getNumPartitions
    val (byFirst, bySecond) = (grammar.byFirst, grammar.bySecond)
    t.mapPartitionsWithIndex { (p, it) =>
      val local = it.toMap
      val d = delta.value
      val dByRow = d.toSeq.groupMap { case ((nt, k, _), _) => (nt, k) } { case ((_, _, bj), m) => bj -> m }
      val dByCol = d.toSeq.groupMap { case ((nt, _, k), _) => (nt, k) } { case ((_, bi, _), m) => bi -> m }
      // Row terms only from the tiles of block rows ≡ p, column terms only
      // from those of block columns ≡ p: each term is then made once, and
      // where its output tile's mask T_A(bi, bj) is held, as the output
      // shares the operand's block row (or column). Taken from every local
      // tile, a tile held twice would make its terms twice, once without
      // the mask. Where bi ≡ bj, both kinds of term meet in one call.
      val rowTerms = for {
        ((b, bi, k), tb) <- local.iterator if bi % parts == p
        (a, c) <- byFirst.getOrElse(b, Nil)
        (bj, dc) <- dByRow.getOrElse((c, k), Nil)
      } yield (a, bi, bj) -> (tb, dc)
      val colTerms = for {
        ((c, k, bj), tc) <- local.iterator if bj % parts == p
        (a, b) <- bySecond.getOrElse(c, Nil)
        (bi, db) <- dByCol.getOrElse((b, k), Nil)
      } yield (a, bi, bj) -> (db, tc)
      (rowTerms ++ colTerms).toSeq.groupMap(_._1)(_._2).iterator.flatMap { case (key, ts) =>
        val m = BoolCSR.multiplyMasked(ts, local.get(key))
        if (m.nnz == 0) None else Some(key -> m)
      }
    }
  }
}
