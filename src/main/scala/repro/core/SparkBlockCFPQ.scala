package repro.core

import scala.collection.mutable.ListBuffer
import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BoolCSR

/** Algorithm 1 over a *distributed block-sparse* Boolean matrix — the
  * paper's **sGPU** analog. The paper offloads CSR Boolean multiplications
  * to CUSPARSE on a GPU; here the per-nonterminal matrices are tiled into
  * [[repro.linalg.BoolCSR]] tiles, one tile map per RDD partition, and each
  * output tile of a step is one call of [[SparseCFPQ]]'s (sCPU) masked
  * kernel inside a Spark task, standing in for a CUDA thread block.
  *
  * The closure is [[LocalMatrixCFPQ]]'s semi-naive step with `T` kept in
  * place: `T` is persisted once, each tile on the partitions of its block
  * row and of its block column, and only `Δ` moves, from the driver in the
  * step's task binary. A step absorbs `Δ` into `T` and gathers [[Closure.fresh]]'s
  * `Δ'` from it: one Spark job with no shuffle, and reports `Δ'`'s tile `nnz`
  * summed per nonterminal. The work per partition is the companion's plain
  * [[SparkBlockCFPQ.absorb]] and [[SparkBlockCFPQ.step]]; Spark only
  * schedules them. The driver keeps every `Δ`, so the result `T₀ ∪ ⋃ Δ`
  * needs no further job.
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
    val parts = math.min(sc.defaultParallelism, (math.max(graph.numNodes, 1) + blockSize - 1) / blockSize)
    val t0 = tile(blockSize, MatrixInit.cells(graph, grammar))
    val deltas = ListBuffer(t0)
    val cached = ListBuffer.empty[RDD[Tiles]]
    // State: T without Δ yet (none before the first step) and Δ on the driver (Δ₀ = T₀).
    val (_, added) = try {
      Closure.run((Option.empty[RDD[Tiles]], t0), Closure.capacity(graph, grammar))(_._1.foreach(_.unpersist())) { case (t, delta) =>
        // Δ rides in the step's task binary; its job stores T ∪ Δ and cuts T's lineage to one step.
        val t2 = t.getOrElse(sc.parallelize(Seq.fill(parts)(Map.empty: Tiles), parts))
          .mapPartitionsWithIndex((p, it) => it.map(absorb(p, parts, _, delta))).persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()
        cached += t2
        val fresh = gather(t2)((p, it) => it.flatMap(step(p, parts, _, delta, grammar))).groupMapReduce(_._1)(_._2)(_ union _)
        deltas += fresh
        ((Some(t2), fresh), fresh.toSeq.groupMapReduce(_._1._1)(_._2.nnz.toLong)(_ + _))
      }
    } finally {
      // The last state; after a failed step, the one it started from too.
      cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist())
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

  /** What `f` makes of each partition of `rdd` and its index, in partition order, from one job. Spark's ClosureCleaner
    * parses the class that declares a job's function: this object here, the far larger `RDD` for `collect()`.
    */
  private[repro] def gather[T, U: ClassTag](rdd: RDD[T])(f: (Int, Iterator[T]) => Iterator[U]): Array[U] =
    rdd.sparkContext.runJob(rdd, (ctx: TaskContext, it: Iterator[T]) => f(ctx.partitionId(), it).toArray).flatten

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

  /** `T ∪ Δ` on partition `p` of `parts`, which holds the tiles whose block
    * row or block column is `p` modulo `parts`: a tile lives on one partition
    * when `bi ≡ bj (mod parts)` and on two otherwise. Over an empty `local`
    * this places `delta` itself.
    */
  private[repro] def absorb(p: Int, parts: Int, local: Tiles, delta: Tiles): Tiles =
    local ++ delta.collect { case (key @ (_, bi, bj), d) if bi % parts == p || bj % parts == p =>
      key -> local.get(key).fold(d)(_ union d)
    }

  /** One semi-naive step on partition `p` of `parts`, over `local ⊇ Δ`
    * placed by [[absorb]]: its non-empty tiles of [[Closure.fresh]]'s `Δ'`,
    * one masked kernel call per output tile. An output tile made on two
    * partitions comes out of both; the caller unions the copies.
    */
  private[repro] def step(p: Int, parts: Int, local: Tiles, delta: Tiles, grammar: CnfGrammar): Tiles = {
    type Blocks = Map[(Int, Int), BoolCSR] // one nonterminal's tiles by block row and column
    def byNt(tiles: Tiles): Map[String, Blocks] =
      tiles.toSeq.groupMap(_._1._1) { case ((_, bi, bj), m) => (bi, bj) -> m }.map { case (nt, ms) => nt -> ms.toMap }
    // The tile products x(bi,k)·y(k,bj) of a term (x, y) whose output tile is kept.
    def products(keep: (Int, Int) => Boolean)(term: (Blocks, Blocks)) = {
      val xByCol = term._1.toSeq.groupMap(_._1._2) { case ((bi, _), m) => bi -> m }
      for (((k, bj), y) <- term._2.iterator; (bi, x) <- xByCol.getOrElse(k, Nil) if keep(bi, bj)) yield (bi, bj) -> (x, y)
    }
    // Left terms Δ_B·T_C only into block columns ≡ p and right terms T_B·Δ_C
    // only into block rows ≡ p, as their T tile lies: each tile product is then
    // made once, where its mask T_A(bi, bj) is held (made wherever its operands
    // are, it would also come out unmasked). Where bi ≡ bj both kinds meet.
    def kernel(left: Seq[(Blocks, Blocks)], right: Seq[(Blocks, Blocks, Blocks)], mask: Blocks): Blocks =
      (left.iterator.flatMap(products((_, bj) => bj % parts == p)) ++
        right.iterator.map(r => r._1 -> r._2).flatMap(products((bi, _) => bi % parts == p)))
        .toSeq.groupMap(_._1)(_._2).map { case (tile, ts) => tile -> BoolCSR.multiplyMasked(ts, mask.get(tile)) }
        .filter(_._2.nnz > 0)
    val fresh = Closure.fresh(grammar.binary.groupBy(_._1), byNt(local).withDefaultValue(Map.empty), byNt(delta))(
      kernel, _.valuesIterator.map(_.nnz.toLong).sum)
    fresh.iterator.flatMap { case (a, d, _) => d.map { case ((bi, bj), m) => (a, bi, bj) -> m } }.toMap
  }
}
