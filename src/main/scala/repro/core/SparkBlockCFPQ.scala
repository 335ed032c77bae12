package repro.core

import scala.collection.mutable.ListBuffer
import scala.reflect.ClassTag
import org.apache.spark.{TaskContext, TaskKilledException}
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
  * place, over `P = min(defaultParallelism, block rows)` partitions. With
  * `P = 1` no `Δ` has to move between tasks, so one job's one task runs the
  * whole closure ([[SparkBlockCFPQ.closure]]) and returns `T`. With `P ≥ 2`
  * `T` is persisted once, each tile on the partitions of its block row and
  * of its block column, and only `Δ` moves, from the driver in the step's
  * task binary. A step absorbs `Δ` into `T` and gathers [[Closure.fresh]]'s
  * `Δ'` from it: one Spark job with no shuffle, and reports `Δ'`'s tile `nnz`
  * summed per nonterminal. The work per partition is the companion's plain
  * [[SparkBlockCFPQ.absorb]] and [[SparkBlockCFPQ.step]] on either path;
  * Spark only schedules them. The driver absorbs every `Δ` into its own
  * `T`, so the result needs no further job.
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
    val capacity = Closure.capacity(graph, grammar)
    val (tiles, added) = if (parts == 1) {
      // One task holds T: it runs the whole closure, and the job's one result is T and each step's growth.
      val Array((t, added)) = gather(sc.parallelize(Seq(t0), 1))((_, it) => it.map(closure(_, capacity, grammar)))
      (t, added)
    } else {
      var all = t0 // T ∪ Δ on the driver: one partition of one holds every tile
      val cached = ListBuffer.empty[RDD[Tiles]]
      // State: T without Δ yet (none before the first step) and Δ on the driver (Δ₀ = T₀).
      val (_, added) = try {
        Closure.run((Option.empty[RDD[Tiles]], t0), capacity)(_._1.foreach(_.unpersist())) { case (t, delta) =>
          // Δ rides in the step's task binary; its job stores T ∪ Δ and cuts T's lineage to one step.
          val t2 = t.getOrElse(sc.parallelize(Seq.fill(parts)(Map.empty: Tiles), parts))
            .mapPartitionsWithIndex((p, it) => it.map(absorb(p, parts, _, delta))).persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()
          cached += t2
          val fresh = gather(t2)((p, it) => it.flatMap(step(p, parts, _, delta, grammar))).groupMapReduce(_._1)(_._2)(_ union _)
          all = absorb(0, 1, all, fresh)
          ((Some(t2), fresh), fresh.toSeq.groupMapReduce(_._1._1)(_._2.nnz.toLong)(_ + _))
        }
      } finally {
        // The last state; after a failed step, the one it started from too.
        cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist())
      }
      (all, added)
    }
    CFPQResult(cells(tiles), added.length, added)
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

  /** Tile a set of per-nonterminal cell lists, duplicates allowed. A
    * nonterminal's packed cells, sorted and distinct as a [[Relation]]'s, go
    * stably into block-column order by a counting sort, so that each tile's
    * cells are one row-major run.
    */
  private[repro] def tile(blockSize: Int, cells: Map[String, Seq[(Int, Int)]]): Tiles =
    cells.flatMap { case (nt, pairs) =>
      val packed = new Array[Long](pairs.length)
      var n = 0
      pairs.foreach { case (i, j) =>
        require(i >= 0 && j >= 0, s"cell ($i,$j) of $nt is negative")
        packed(n) = Relation.pack(i, j); n += 1
      }
      val sorted = Relation(packed).cells
      def bi(c: Long) = (c >>> 32).toInt / blockSize
      def bj(c: Long) = c.toInt / blockSize
      // start(b + 1): the cells of block column b; then, summed, where they go.
      val start = new Array[Int](sorted.foldLeft(0)(_ max bj(_)) + 2)
      sorted.foreach(c => start(bj(c) + 1) += 1)
      for (b <- 1 until start.length) start(b) += start(b - 1)
      val byTile = new Array[Long](sorted.length)
      sorted.foreach { c => byTile(start(bj(c))) = c; start(bj(c)) += 1 }
      // One run per tile, its cells made local by taking off the tile's packed origin.
      val out = Map.newBuilder[Key, BoolCSR]
      var s = 0
      while (s < byTile.length) {
        val key @ (_, r, c) = (nt, bi(byTile(s)), bj(byTile(s)))
        var e = s
        while (e < byTile.length && bi(byTile(e)) == r && bj(byTile(e)) == c) e += 1
        val origin = Relation.pack(r * blockSize, c * blockSize)
        out += key -> BoolCSR.fromPacked(blockSize, blockSize, byTile.slice(s, e).map(_ - origin))
        s = e
      }
      out.result()
    }

  /** Per-nonterminal relation of a tile map, its packed cells written in
    * row-major order and so sorted with no sort: each block row's local rows
    * in turn, each taking its tiles' cells in block-column order.
    */
  private[repro] def cells(tiles: Tiles): Map[String, Relation] =
    tiles.groupBy(_._1._1).map { case (nt, ts) =>
      val total = ts.valuesIterator.map(_.nnz.toLong).sum
      Relation.requireFits(nt, total)
      val out = new Array[Long](total.toInt)
      var n = 0
      for ((bi, row) <- ts.toSeq.groupBy(_._1._2).toSeq.sortBy(_._1); byCol = row.sortBy(_._1._3); i <- 0 until row.head._2.numRows;
           ((_, _, bj), m) <- byCol; p <- m.rowPtr(i) until m.rowPtr(i + 1)) {
        out(n) = Relation.pack(bi * m.numRows + i, bj * m.numCols + m.colIdx(p)); n += 1
      }
      nt -> Relation.sorted(out)
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

  /** Why [[closure]] ended its task: its job was cancelled. */
  private[repro] val killedBetweenSteps = "job cancelled; killed between closure steps"

  /** The whole closure from `t0` on the one partition of a Spark task: `T`
    * and each step's added cells, as [[Closure.run]] gives them. Between
    * steps it ends the task if its job was cancelled; Spark marks the task
    * interrupted whether or not the job interrupts its threads.
    */
  private[repro] def closure(t0: Tiles, capacity: Long, grammar: CnfGrammar): (Tiles, Seq[Map[String, Long]]) = {
    val ((t, _), added) = Closure.run((Map.empty: Tiles, t0), capacity)() { case (t, delta) =>
      if (TaskContext.get.isInterrupted()) throw new TaskKilledException(killedBetweenSteps)
      val t2 = absorb(0, 1, t, delta)
      val fresh = step(0, 1, t2, delta, grammar)
      ((t2, fresh), fresh.toSeq.groupMapReduce(_._1._1)(_._2.nnz.toLong)(_ + _))
    }
    (t, added)
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
