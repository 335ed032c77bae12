package repro.linalg

import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.rdd.RDD

/** Distributed sparse Boolean matrices over plain pair RDDs — the
  * distributed analog of the paper's CUSPARSE kernels (sGPU): each block
  * product is a [[BoolCSR]] multiply executed inside a Spark task, standing
  * in for a CUDA thread block.
  *
  * The matrix of nonterminal `nt` is `n×n`, tiled into square blocks of
  * side `blockSize`; the tile at key `(nt, bi, bj)` covers rows
  * `[bi·bs, (bi+1)·bs)` and columns `[bj·bs, (bj+1)·bs)` and holds its cells
  * in block-local coordinates. Every product and union is
  * [[BoolCSR.multiply]] / [[BoolCSR.union]], the kernel of the local sparse
  * engine.
  *
  * The multiply is *rule-driven*: the paper's set-matrix product
  * `(T·T)[i,k] = ⋃_j T[i,j]·T[j,k]` decomposes into one Boolean block
  * SpGEMM per grammar rule `A → BC` per matching block pair, which is
  * exactly what [[multiplyPartials]] computes for all rules at once.
  */
object BlockBoolMatrix {

  /** A tile's nonterminal, block row and block column. */
  type Key = (String, Int, Int)

  /** Tile a set of per-nonterminal cell lists. */
  def fromPairs(sc: SparkContext,
                blockSize: Int,
                cells: Map[String, Seq[(Int, Int)]]): RDD[(Key, BoolCSR)] = {
    val tiles = cells.toSeq.flatMap { case (nt, pairs) =>
      pairs
        .groupBy { case (i, j) => (i / blockSize, j / blockSize) }
        .map { case ((bi, bj), ps) =>
          (nt, bi, bj) -> BoolCSR.fromPairs(blockSize, blockSize,
            ps.map { case (i, j) => (i - bi * blockSize, j - bj * blockSize) })
        }
    }
    sc.parallelize(tiles, math.max(1, math.min(sc.defaultParallelism, tiles.size)))
  }

  /** Rule-driven distributed product: for every rule `A → B C` (`byFirst`
    * maps `B` to its `(A, C)` pairs) and every pair of tiles `(B, bi, k)`,
    * `(C, k, bj)`, emit their Boolean product at `(A, bi, bj)`, unless it
    * is empty. Keys may repeat: the closure loop unions them with the
    * previous matrix in a single [[coalesceBlocks]].
    */
  def multiplyPartials(t: RDD[(Key, BoolCSR)],
                       byFirst: Map[String, Seq[(String, String)]]): RDD[(Key, BoolCSR)] = {
    val left = t.flatMap { case ((b, bi, k), m) =>
      byFirst.getOrElse(b, Nil).map { case (a, c) => (c, k) -> (a, bi, m) }
    }
    val right = t.map { case ((nt, bi, bj), m) => (nt, bi) -> (bj, m) }
    left.join(right).flatMap { case (_, ((a, bi, l), (bj, r))) =>
      val p = l.multiply(r)
      if (p.nnz == 0) None else Some((a, bi, bj) -> p)
    }
  }

  /** Union the tiles sharing a key, into `defaultParallelism` partitions.
    * The fixed partitioner matters: an RDD `union` adds up the partition
    * counts of its inputs, so without it the count would double on every
    * closure step.
    */
  def coalesceBlocks(tiles: RDD[(Key, BoolCSR)]): RDD[(Key, BoolCSR)] =
    tiles.reduceByKey(new HashPartitioner(tiles.sparkContext.defaultParallelism), _ union _)

  /** Collect to per-nonterminal global (row, col) cells. */
  def collectPairs(tiles: RDD[(Key, BoolCSR)]): Map[String, Set[(Int, Int)]] =
    tiles.collect().toSeq
      .groupBy(_._1._1)
      .map { case (nt, ts) =>
        nt -> ts.flatMap { case ((_, bi, bj), m) =>
          m.toPairs.map { case (i, j) => (bi * m.numRows + i, bj * m.numCols + j) }
        }.toSet
      }
}
