package repro.linalg

import scala.collection.mutable
import repro.core.Relation

/** Immutable sparse Boolean matrix in CSR (compressed sparse row) format —
  * the local analog of the paper's Math.NET / CUSPARSE CSR matrices
  * (sCPU / sGPU implementations).
  *
  * Column indices within each row are strictly increasing.
  *
  * @param numRows number of rows
  * @param numCols number of columns
  * @param rowPtr  length numRows+1; row i occupies colIdx[rowPtr(i) until rowPtr(i+1))
  * @param colIdx  column indices of set cells
  */
final class BoolCSR private (val numRows: Int,
                             val numCols: Int,
                             val rowPtr: Array[Int],
                             val colIdx: Array[Int]) extends Serializable {

  /** Number of set cells. */
  def nnz: Int = colIdx.length

  /** All set cells as packed [[Relation]] cells, row-major ascending. */
  def toPacked: Array[Long] = {
    val out = new Array[Long](nnz)
    var i = 0
    while (i < numRows) {
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) { out(p) = Relation.pack(i, colIdx(p)); p += 1 }
      i += 1
    }
    out
  }

  /** All set cells as (row, col) pairs, row-major ascending. */
  def toPairs: Vector[(Int, Int)] = toPacked.iterator.map(Relation.unpack).toVector

  /** Boolean matrix product `this × that`: [[BoolCSR.multiplyMasked]]
    * with one term and no mask.
    */
  def multiply(that: BoolCSR): BoolCSR = BoolCSR.multiplyMasked(Seq(this -> that), None)

  /** Boolean union (elementwise OR). The output is allocated once at
    * `nnz + that.nnz` cells. Each run of rows that `that` leaves empty is
    * copied with one `System.arraycopy`, its row offsets shifted by a
    * constant; a row that `that` holds cells in is merged, duplicates
    * dropped, because SparkBlock unions overlapping copies of a tile. The
    * output is trimmed only if the operands overlapped.
    */
  def union(that: BoolCSR): BoolCSR = {
    require(numRows == that.numRows && numCols == that.numCols, "dim mismatch in union")
    Relation.requireFits("BoolCSR union", nnz.toLong + that.nnz)
    val outPtr = new Array[Int](numRows + 1)
    val out = new Array[Int](nnz + that.nnz)
    var w = 0
    var i = 0
    while (i < numRows) {
      var e = i
      while (e < numRows && that.rowPtr(e + 1) == that.rowPtr(i)) e += 1
      if (e > i) { // rows i until e hold no cell of `that`
        val shift = w - rowPtr(i)
        System.arraycopy(colIdx, rowPtr(i), out, w, rowPtr(e) - rowPtr(i))
        while (i < e) { outPtr(i + 1) = rowPtr(i + 1) + shift; i += 1 }
        w = outPtr(e)
      }
      if (i < numRows) {
        var p = rowPtr(i); var q = that.rowPtr(i)
        val pe = rowPtr(i + 1); val qe = that.rowPtr(i + 1)
        while (p < pe && q < qe) {
          val a = colIdx(p); val b = that.colIdx(q)
          if (a <= b) { out(w) = a; p += 1; if (a == b) q += 1 }
          else { out(w) = b; q += 1 }
          w += 1
        }
        System.arraycopy(colIdx, p, out, w, pe - p); w += pe - p
        System.arraycopy(that.colIdx, q, out, w, qe - q); w += qe - q
        outPtr(i + 1) = w
        i += 1
      }
    }
    new BoolCSR(numRows, numCols, outPtr, if (w == out.length) out else java.util.Arrays.copyOf(out, w))
  }

  override def equals(o: Any): Boolean = o match {
    case m: BoolCSR =>
      numRows == m.numRows && numCols == m.numCols &&
        java.util.Arrays.equals(rowPtr, m.rowPtr) &&
        java.util.Arrays.equals(colIdx, m.colIdx)
    case _ => false
  }

  override def hashCode(): Int =
    31 * java.util.Arrays.hashCode(rowPtr) + java.util.Arrays.hashCode(colIdx)

  override def toString: String = s"BoolCSR(${numRows}x$numCols, nnz=$nnz)"
}

object BoolCSR {

  /** The flops per accumulator word from which a row is [[heavy]]. A
    * heavy row pays one OR per flop where a light row pays a stamp test per
    * flop and a sort of its cells; it then emits its cells in order by a
    * scan of at most `⌈numCols/64⌉` words, which at 2 flops per word is at
    * most one word read per two flops. In same-JVM probes of funding/Q1
    * solves the kernel's time at 1, 2 and 4 flops per word differed by at
    * most 5%.
    */
  private val HeavyFlopsPerWord = 2

  /** Whether a row of `flops` products into `words` accumulator words is built in a word array. */
  private[linalg] def heavy(flops: Long, words: Int): Boolean = flops >= HeavyFlopsPerWord.toLong * words

  /** Complement-masked sum of products, `C⟨¬mask⟩ = ⋃_{(a, b) ∈ terms} a × b`
    * (GraphBLAS's masked `mxm`): the cells of the summed products that are
    * not in `mask`.
    *
    * Fused SpGEMM: one accumulator per output row serves every term, chosen
    * per row from the row's flops, `Σ |b row k|` over its cells `k` in each
    * term's `a`, as SuiteSparse's `saxpy3` chooses between Gustavson's and
    * a hash accumulator (Nagasaka et al., Parallel Computing 2019):
    *  - a [[heavy]] row ORs its products into a word array, clears the mask
    *    row's bits, and emits the set bits of the words between its least
    *    and greatest product column in ascending order, zeroing each word;
    *  - a light row stamps the mask row first, so a known cell is never
    *    added, then stamps each product, lists the columns it stamped, and
    *    sorts them on emit.
    * A row with no flops is skipped.
    */
  def multiplyMasked(terms: Seq[(BoolCSR, BoolCSR)], mask: Option[BoolCSR]): BoolCSR = {
    require(terms.nonEmpty, "multiplyMasked needs at least one term")
    val numRows = terms.head._1.numRows
    val numCols = terms.head._2.numCols
    for ((a, b) <- terms)
      require(a.numCols == b.numRows && a.numRows == numRows && b.numCols == numCols,
        s"dim mismatch: ${a.numRows}x${a.numCols} * ${b.numRows}x${b.numCols} in a ${numRows}x$numCols sum")
    mask.foreach(m => require(m.numRows == numRows && m.numCols == numCols, "dim mismatch in mask"))
    val as = terms.map(_._1).toArray
    val bs = terms.map(_._2).toArray
    val m = mask.orNull
    val words = (numCols + 63) >>> 6
    val acc = new Array[Long](words) // a heavy row's cells; zero between rows
    // stamp(j) == i + 1: column j is already in light row i (masked or added).
    val stamp = new Array[Int](numCols)
    val cols = new Array[Int](numCols) // the row's columns
    val outPtr = new Array[Int](numRows + 1)
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < numRows) {
      var flops = 0L
      var t = 0
      while (t < as.length) {
        val a = as(t); val b = bs(t)
        var p = a.rowPtr(i)
        while (p < a.rowPtr(i + 1)) { val k = a.colIdx(p); flops += b.rowPtr(k + 1) - b.rowPtr(k); p += 1 }
        t += 1
      }
      var cnt = 0
      if (flops > 0) {
        if (heavy(flops, words)) {
          var lo = numCols; var hi = -1 // the least and greatest product column
          t = 0
          while (t < as.length) {
            val a = as(t); val b = bs(t)
            var p = a.rowPtr(i)
            while (p < a.rowPtr(i + 1)) {
              val k = a.colIdx(p)
              var q = b.rowPtr(k); val e = b.rowPtr(k + 1)
              if (q < e) { lo = math.min(lo, b.colIdx(q)); hi = math.max(hi, b.colIdx(e - 1)) }
              while (q < e) { val j = b.colIdx(q); acc(j >>> 6) |= 1L << (j & 63); q += 1 }
              p += 1
            }
            t += 1
          }
          if (m != null) {
            var p = m.rowPtr(i)
            while (p < m.rowPtr(i + 1)) { val j = m.colIdx(p); acc(j >>> 6) &= ~(1L << (j & 63)); p += 1 }
          }
          var w = lo >>> 6
          val last = hi >>> 6
          while (w <= last) {
            var word = acc(w)
            acc(w) = 0
            while (word != 0) { cols(cnt) = (w << 6) + java.lang.Long.numberOfTrailingZeros(word); cnt += 1; word &= word - 1 }
            w += 1
          }
        } else {
          val mark = i + 1
          if (m != null) {
            var p = m.rowPtr(i)
            while (p < m.rowPtr(i + 1)) { stamp(m.colIdx(p)) = mark; p += 1 }
          }
          t = 0
          while (t < as.length) {
            val a = as(t); val b = bs(t)
            var p = a.rowPtr(i)
            while (p < a.rowPtr(i + 1)) {
              val k = a.colIdx(p)
              var q = b.rowPtr(k)
              while (q < b.rowPtr(k + 1)) {
                val j = b.colIdx(q)
                if (stamp(j) != mark) { stamp(j) = mark; cols(cnt) = j; cnt += 1 }
                q += 1
              }
              p += 1
            }
            t += 1
          }
          java.util.Arrays.sort(cols, 0, cnt)
        }
        out.addAll(cols, 0, cnt)
      }
      outPtr(i + 1) = outPtr(i) + cnt
      i += 1
    }
    new BoolCSR(numRows, numCols, outPtr, out.result())
  }

  /** Build from packed [[Relation]] cells, strictly ascending
    * and inside the matrix, as [[BoolCSR#toPacked]] gives them.
    */
  private[repro] def fromPacked(numRows: Int, numCols: Int, cells: Array[Long]): BoolCSR = {
    val rowPtr = new Array[Int](numRows + 1)
    cells.foreach(c => rowPtr((c >>> 32).toInt + 1) += 1)
    for (r <- 0 until numRows) rowPtr(r + 1) += rowPtr(r)
    new BoolCSR(numRows, numCols, rowPtr, cells.map(_.toInt))
  }

  /** Build from (row, col) pairs, duplicates allowed, by counting sort
    * (Gustavson 1978): count the cells per row, prefix-sum the counts into
    * `rowPtr`, scatter the columns, then sort each row and drop its
    * duplicates in place. `pairs` is traversed twice.
    */
  def fromPairs(numRows: Int, numCols: Int, pairs: Iterable[(Int, Int)]): BoolCSR = {
    val rowPtr = new Array[Int](numRows + 1)
    pairs.foreach { case (i, j) =>
      require(i >= 0 && i < numRows && j >= 0 && j < numCols, s"cell ($i,$j) out of ${numRows}x$numCols")
      rowPtr(i + 1) += 1
    }
    var r = 0
    while (r < numRows) { rowPtr(r + 1) += rowPtr(r); r += 1 }
    val colIdx = new Array[Int](rowPtr(numRows))
    val next = java.util.Arrays.copyOf(rowPtr, numRows)
    pairs.foreach { case (i, j) => colIdx(next(i)) = j; next(i) += 1 }
    var w = 0
    r = 0
    while (r < numRows) {
      val s = rowPtr(r); val e = rowPtr(r + 1)
      java.util.Arrays.sort(colIdx, s, e)
      rowPtr(r) = w
      var p = s
      while (p < e) {
        if (w == rowPtr(r) || colIdx(w - 1) != colIdx(p)) { colIdx(w) = colIdx(p); w += 1 }
        p += 1
      }
      r += 1
    }
    rowPtr(numRows) = w
    new BoolCSR(numRows, numCols, rowPtr, if (w == colIdx.length) colIdx else java.util.Arrays.copyOf(colIdx, w))
  }
}
