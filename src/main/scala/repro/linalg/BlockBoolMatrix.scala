package repro.linalg

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col, struct}

/** One block of a distributed sparse Boolean matrix.
  *
  * The full matrix for nonterminal `nt` is `n×n`, tiled into square blocks
  * of side `blockSize`; block (bi, bj) covers rows `[bi·bs, (bi+1)·bs)` and
  * columns `[bj·bs, (bj+1)·bs)`. Its set cells, in block-local coordinates,
  * are the arrays of a `blockSize×blockSize` [[BoolCSR]] ([[tile]]), so
  * every product and union inside a Spark task runs the same kernel as the
  * local sparse engine.
  *
  * @param nt     nonterminal whose Boolean matrix this block belongs to
  * @param bi     block-row index
  * @param bj     block-column index
  * @param rowPtr the tile's CSR row pointers (length `blockSize + 1`)
  * @param colIdx the tile's CSR column indices
  */
final case class Block(nt: String, bi: Int, bj: Int, rowPtr: Array[Int], colIdx: Array[Int]) {
  def nnz: Int = colIdx.length

  /** The block's cells as a square CSR matrix, sharing this block's arrays. */
  def tile: BoolCSR = new BoolCSR(rowPtr.length - 1, rowPtr.length - 1, rowPtr, colIdx)
}

/** Distributed sparse Boolean matrix operations over `Dataset[Block]` —
  * the distributed analog of the paper's CUSPARSE kernels (sGPU): each
  * block product is a [[BoolCSR]] multiply executed inside a Spark task,
  * standing in for a CUDA thread block.
  *
  * The multiply is *rule-driven*: the paper's set-matrix product
  * `(T·T)[i,k] = ⋃_j T[i,j]·T[j,k]` decomposes into one Boolean block
  * SpGEMM per grammar rule `A → BC` per matching block pair, which is
  * exactly what [[multiplyPartials]] computes for all rules at once.
  */
object BlockBoolMatrix {

  /** Build the block dataset for a set of per-nonterminal cell lists. */
  def fromPairs(spark: SparkSession,
                blockSize: Int,
                cells: Map[String, Seq[(Int, Int)]]): Dataset[Block] = {
    import spark.implicits._
    val blocks = cells.toSeq.flatMap { case (nt, pairs) =>
      pairs
        .groupBy { case (i, j) => (i / blockSize, j / blockSize) }
        .map { case ((bi, bj), ps) =>
          val t = BoolCSR.fromPairs(blockSize, blockSize,
            ps.map { case (i, j) => (i - bi * blockSize, j - bj * blockSize) })
          Block(nt, bi, bj, t.rowPtr, t.colIdx)
        }
    }
    val slices = math.max(1, math.min(spark.sparkContext.defaultParallelism, blocks.size))
    spark.createDataset(spark.sparkContext.parallelize(blocks, math.max(1, slices)))
  }

  /** Rule-driven distributed product: for every rule `(a, b, c)` and every
    * pair of blocks `B(b, bi, k)`, `C(c, k, bj)`, emit the Boolean product
    * block into `a`'s matrix at (bi, bj), unless it is empty. Partial blocks
    * may repeat per (nt, bi, bj): the closure loop unions them with the
    * previous matrix in a single [[coalesceBlocks]], one shuffle stage per
    * iteration.
    */
  def multiplyPartials(spark: SparkSession,
                       t: Dataset[Block],
                       rules: Seq[(String, String, String)]): Dataset[Block] = {
    import spark.implicits._
    val rulesDf = spark.createDataset(rules).toDF("a", "b", "c")
    val l = t.toDF().as("l")
    val r = t.toDF().as("r")
    l.join(broadcast(rulesDf), col("l.nt") === col("b"))
      .join(r, col("r.nt") === col("c") && col("l.bj") === col("r.bi"))
      .select(col("a"), struct(col("l.*")), struct(col("r.*")))
      .as[(String, Block, Block)]
      .flatMap { case (a, lb, rb) =>
        val p = lb.tile.multiply(rb.tile)
        if (p.nnz == 0) None else Some(Block(a, lb.bi, rb.bj, p.rowPtr, p.colIdx))
      }
  }

  /** Merge partial blocks sharing (nt, bi, bj) by unioning their cells. */
  def coalesceBlocks(blocks: Dataset[Block]): Dataset[Block] = {
    import blocks.sparkSession.implicits._
    blocks
      .groupByKey(blk => (blk.nt, blk.bi, blk.bj))
      .reduceGroups { (a, b) =>
        val u = a.tile.union(b.tile)
        a.copy(rowPtr = u.rowPtr, colIdx = u.colIdx)
      }
      .map(_._2)
  }

  /** Collect to per-nonterminal global (row, col) cells. */
  def collectPairs(blocks: Dataset[Block]): Map[String, Set[(Int, Int)]] =
    blocks.collect().toSeq
      .groupBy(_.nt)
      .map { case (nt, bs) =>
        nt -> bs.flatMap { b =>
          val t = b.tile
          t.toPairs.map { case (i, j) => (b.bi * t.numRows + i, b.bj * t.numCols + j) }
        }.toSet
      }
}
