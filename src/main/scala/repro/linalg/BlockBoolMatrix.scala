package repro.linalg

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD

/** Distributed sparse Boolean matrices over plain pair RDDs — the
  * distributed analog of the paper's CUSPARSE kernels (sGPU): each block
  * product is a [[BoolCSR.multiplyMasked]] call inside a Spark task,
  * standing in for a CUDA thread block.
  *
  * The matrix of nonterminal `nt` is `n×n`, tiled into square blocks of
  * side `blockSize`; the tile at key `(nt, bi, bj)` covers rows
  * `[bi·bs, (bi+1)·bs)` and columns `[bj·bs, (bj+1)·bs)` and holds its cells
  * in block-local coordinates.
  *
  * The closure state `T` is held twice, in the same tiles: placed by block
  * row ([[rowOf]]) and by block column ([[colOf]]), each tile on partition
  * `block % P`. The delta `Δ` (cells new in the last step) is a driver-side
  * [[Tiles]] map that tasks read from a broadcast. Placing `Δ` into either
  * copy ([[absorb]]) and both semi-naive products ([[rowSide]],
  * [[colSide]]) are per-partition maps, so no step shuffles.
  */
object BlockBoolMatrix {

  /** A tile's nonterminal, block row and block column. */
  type Key = (String, Int, Int)

  /** Tiles held on the driver. */
  type Tiles = Map[Key, BoolCSR]

  def rowOf(key: Key): Int = key._2
  def colOf(key: Key): Int = key._3

  /** Tile a set of per-nonterminal cell lists. */
  def tile(blockSize: Int, cells: Map[String, Seq[(Int, Int)]]): Tiles =
    cells.flatMap { case (nt, pairs) =>
      pairs
        .groupBy { case (i, j) => (i / blockSize, j / blockSize) }
        .map { case ((bi, bj), ps) =>
          (nt, bi, bj) -> BoolCSR.fromPairs(blockSize, blockSize,
            ps.map { case (i, j) => (i - bi * blockSize, j - bj * blockSize) })
        }
    }

  /** Per-nonterminal global (row, col) cells of several tile sets. */
  def cells(tiles: Iterable[Tiles]): Map[String, Set[(Int, Int)]] =
    tiles.iterator.flatten.toSeq.groupMap(_._1._1) { case ((_, bi, bj), m) =>
      m.toPairs.map { case (i, j) => (bi * m.numRows + i, bj * m.numCols + j) }
    }.map { case (nt, ps) => nt -> ps.flatten.toSet }

  /** Total set cells. */
  def nnz(tiles: Tiles): Long = tiles.valuesIterator.map(_.nnz.toLong).sum

  /** `T ∪ Δ` in place: each partition `p` of `t` takes the tiles of `delta`
    * whose `block` is `p` modulo the partition count. Over an empty RDD
    * this places `delta` itself.
    */
  def absorb(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles], block: Key => Int): RDD[(Key, BoolCSR)] = {
    val parts = t.getNumPartitions
    t.mapPartitionsWithIndex { (p, it) =>
      val local = it.toMap
      val own = delta.value.iterator.filter { case (key, _) => block(key) % parts == p }
      (local ++ own.map { case (key, d) => key -> local.get(key).fold(d)(_ union d) }).iterator
    }
  }

  /** Row side of a semi-naive step over `T` placed by [[rowOf]]: for every
    * rule `A → BC` (`byFirst` maps `B` to its `(A, C)` pairs), the new cells
    * of `T_B(bi, k)·Δ_C(k, bj)`.
    */
  def rowSide(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles],
              byFirst: Map[String, Seq[(String, String)]]): RDD[(Key, BoolCSR)] =
    masked(t, delta) { (local, d) =>
      val dByRow = d.toSeq.groupMap { case ((nt, k, _), _) => (nt, k) } { case ((_, _, bj), m) => bj -> m }
      for {
        ((b, bi, k), tb) <- local.iterator
        (a, c) <- byFirst.getOrElse(b, Nil)
        (bj, dc) <- dByRow.getOrElse((c, k), Nil)
      } yield (a, bi, bj) -> (tb, dc)
    }

  /** Column side over `T` placed by [[colOf]]: for every rule `A → BC`
    * (`bySecond` maps `C` to its `(A, B)` pairs), the new cells of
    * `Δ_B(bi, k)·T_C(k, bj)`.
    */
  def colSide(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles],
              bySecond: Map[String, Seq[(String, String)]]): RDD[(Key, BoolCSR)] =
    masked(t, delta) { (local, d) =>
      val dByCol = d.toSeq.groupMap { case ((nt, _, k), _) => (nt, k) } { case ((_, bi, _), m) => bi -> m }
      for {
        ((c, k, bj), tc) <- local.iterator
        (a, b) <- bySecond.getOrElse(c, Nil)
        (bi, db) <- dByCol.getOrElse((b, k), Nil)
      } yield (a, bi, bj) -> (db, tc)
    }

  /** One masked kernel call per output tile of a partition: its terms
    * summed, minus the output tile's cells in `T`, which the placement puts
    * in the same partition. Empty results are dropped.
    */
  private def masked(t: RDD[(Key, BoolCSR)], delta: Broadcast[Tiles])(
      terms: (Map[Key, BoolCSR], Tiles) => Iterator[(Key, (BoolCSR, BoolCSR))]): RDD[(Key, BoolCSR)] =
    t.mapPartitions { it =>
      val local = it.toMap
      terms(local, delta.value).toSeq.groupMap(_._1)(_._2).iterator.flatMap { case (key, ts) =>
        val d = BoolCSR.multiplyMasked(ts, local.get(key))
        if (d.nnz == 0) None else Some(key -> d)
      }
    }
}
