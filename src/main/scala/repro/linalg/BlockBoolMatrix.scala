package repro.linalg

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}

/** One block of a distributed sparse Boolean matrix.
  *
  * The full matrix for nonterminal `nt` is `n×n`, tiled into square blocks
  * of side `blockSize`; block (bi, bj) covers rows `[bi·bs, (bi+1)·bs)` and
  * columns `[bj·bs, (bj+1)·bs)`. Set cells are stored in COO form with
  * block-local coordinates, sorted lexicographically by (row, col) and
  * deduplicated.
  *
  * @param nt   nonterminal whose Boolean matrix this block belongs to
  * @param bi   block-row index
  * @param bj   block-column index
  * @param rows block-local row indices of set cells
  * @param cols block-local column indices of set cells (parallel to rows)
  */
final case class Block(nt: String, bi: Int, bj: Int, rows: Array[Int], cols: Array[Int]) {
  def nnz: Int = rows.length
}

/** Distributed sparse Boolean matrix operations over `Dataset[Block]` —
  * the distributed analog of the paper's CUSPARSE kernels (sGPU): each
  * block product is a local CSR-style Boolean multiply executed inside a
  * Spark task, standing in for a CUDA thread block.
  *
  * The multiply is *rule-driven*: the paper's set-matrix product
  * `(T·T)[i,k] = ⋃_j T[i,j]·T[j,k]` decomposes into one Boolean block
  * SpGEMM per grammar rule `A → BC` per matching block pair, which is
  * exactly what [[multiplyPartials]] computes for all rules at once.
  */
object BlockBoolMatrix {

  /** Build the block dataset for a set of per-nonterminal cell lists. */
  def fromPairs(spark: SparkSession,
                n: Int,
                blockSize: Int,
                cells: Map[String, Seq[(Int, Int)]]): Dataset[Block] = {
    import spark.implicits._
    val blocks = cells.toSeq.flatMap { case (nt, pairs) =>
      pairs
        .groupBy { case (i, j) => (i / blockSize, j / blockSize) }
        .map { case ((bi, bj), ps) =>
          val sorted = ps.map { case (i, j) => (i - bi * blockSize, j - bj * blockSize) }
            .distinct.sorted
          Block(nt, bi, bj, sorted.map(_._1).toArray, sorted.map(_._2).toArray)
        }
    }
    val slices = math.max(1, math.min(spark.sparkContext.defaultParallelism, blocks.size))
    spark.createDataset(spark.sparkContext.parallelize(blocks, math.max(1, slices)))
  }

  /** Rule-driven distributed product: for every rule `(a, b, c)` and every
    * pair of blocks `B(b, bi, k)`, `C(c, k, bj)`, emit the Boolean product
    * block into `a`'s matrix at (bi, bj). Partial blocks may repeat per
    * (nt, bi, bj): the closure loop unions them with the previous matrix in
    * a single [[coalesceBlocks]], one shuffle stage per iteration.
    */
  def multiplyPartials(spark: SparkSession,
                       t: Dataset[Block],
                       rules: Seq[(String, String, String)],
                       blockSize: Int): Dataset[Block] = {
    import spark.implicits._
    val rulesDf = spark.createDataset(rules).toDF("a", "b", "c")
    val l = t.toDF().as("l")
    val r = t.toDF().as("r")
    val paired = l
      .join(broadcast(rulesDf), col("l.nt") === col("b"))
      .join(r, col("r.nt") === col("c") && col("l.bj") === col("r.bi"))
      .select(
        col("a").as("nt"), col("l.bi").as("bi"), col("r.bj").as("bj"),
        col("l.rows").as("lrows"), col("l.cols").as("lcols"),
        col("r.rows").as("rrows"), col("r.cols").as("rcols"),
      )
      .as[(String, Int, Int, Array[Int], Array[Int], Array[Int], Array[Int])]
    paired.flatMap { case (nt, bi, bj, lr, lc, rr, rc) =>
      multiplyLocal(nt, bi, bj, lr, lc, rr, rc, blockSize)
    }
  }

  /** Merge partial blocks sharing (nt, bi, bj) by unioning their cells. */
  def coalesceBlocks(blocks: Dataset[Block]): Dataset[Block] = {
    import blocks.sparkSession.implicits._
    blocks
      .groupByKey(blk => (blk.nt, blk.bi, blk.bj))
      .reduceGroups(unionLocal _)
      .map(_._2)
  }

  /** Collect to per-nonterminal global (row, col) cells. */
  def collectPairs(blocks: Dataset[Block], blockSize: Int): Map[String, Set[(Int, Int)]] =
    blocks.collect().toSeq
      .groupBy(_.nt)
      .map { case (nt, bs) =>
        nt -> bs.flatMap { b =>
          b.rows.indices.map(k => (b.bi * blockSize + b.rows(k), b.bj * blockSize + b.cols(k)))
        }.toSet
      }

  /** Local Boolean block product (runs inside a Spark task). */
  private[linalg] def multiplyLocal(nt: String, bi: Int, bj: Int,
                                    lrows: Array[Int], lcols: Array[Int],
                                    rrows: Array[Int], rcols: Array[Int],
                                    blockSize: Int): Option[Block] = {
    // Index the right block's rows: k -> bitset of columns.
    val rightRows = new Array[java.util.BitSet](blockSize)
    var q = 0
    while (q < rrows.length) {
      val k = rrows(q)
      if (rightRows(k) == null) rightRows(k) = new java.util.BitSet(blockSize)
      rightRows(k).set(rcols(q))
      q += 1
    }
    val acc = new Array[java.util.BitSet](blockSize)
    var p = 0
    while (p < lrows.length) {
      val rrow = rightRows(lcols(p))
      if (rrow != null) {
        val i = lrows(p)
        if (acc(i) == null) acc(i) = new java.util.BitSet(blockSize)
        acc(i).or(rrow)
      }
      p += 1
    }
    val outR = new scala.collection.mutable.ArrayBuilder.ofInt
    val outC = new scala.collection.mutable.ArrayBuilder.ofInt
    var i = 0
    var cnt = 0
    while (i < blockSize) {
      val bs = acc(i)
      if (bs != null) {
        var j = bs.nextSetBit(0)
        while (j >= 0) { outR += i; outC += j; cnt += 1; j = bs.nextSetBit(j + 1) }
      }
      i += 1
    }
    if (cnt == 0) None else Some(Block(nt, bi, bj, outR.result(), outC.result()))
  }

  /** Local union of two blocks at the same (nt, bi, bj).
    *
    * Blocks are kept sorted lexicographically by (row, col) — `fromPairs`
    * sorts and `multiplyLocal` emits in order — so this is a linear merge
    * over primitive arrays (cells packed as `row << 32 | col`); no boxing,
    * which matters because reduceGroups calls this on every partial block
    * of every closure iteration.
    */
  private[linalg] def unionLocal(a: Block, b: Block): Block = {
    val n = a.rows.length; val m = b.rows.length
    val outR = new Array[Int](n + m)
    val outC = new Array[Int](n + m)
    var i = 0; var j = 0; var w = 0
    while (i < n || j < m) {
      val ka = if (i < n) (a.rows(i).toLong << 32) | (a.cols(i) & 0xffffffffL) else Long.MaxValue
      val kb = if (j < m) (b.rows(j).toLong << 32) | (b.cols(j) & 0xffffffffL) else Long.MaxValue
      if (ka == kb) { outR(w) = a.rows(i); outC(w) = a.cols(i); i += 1; j += 1 }
      else if (ka < kb) { outR(w) = a.rows(i); outC(w) = a.cols(i); i += 1 }
      else { outR(w) = b.rows(j); outC(w) = b.cols(j); j += 1 }
      w += 1
    }
    Block(a.nt, a.bi, a.bj,
      java.util.Arrays.copyOf(outR, w), java.util.Arrays.copyOf(outC, w))
  }
}
