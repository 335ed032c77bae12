package repro.linalg

import scala.collection.mutable

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

  /** All set cells as (row, col) pairs. */
  def toPairs: Vector[(Int, Int)] = {
    val b = Vector.newBuilder[(Int, Int)]
    var i = 0
    while (i < numRows) {
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) { b += ((i, colIdx(p))); p += 1 }
      i += 1
    }
    b.result()
  }

  /** Boolean matrix product `this × that` (SpGEMM with a bitset accumulator). */
  def multiply(that: BoolCSR): BoolCSR = {
    require(numCols == that.numRows, s"dim mismatch: ${numCols}x? * ${that.numRows}x?")
    val outPtr = new Array[Int](numRows + 1)
    val rows = new Array[Array[Int]](numRows)
    val acc = new java.util.BitSet(that.numCols)
    var i = 0
    while (i < numRows) {
      acc.clear()
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) {
        val k = colIdx(p)
        var q = that.rowPtr(k)
        while (q < that.rowPtr(k + 1)) { acc.set(that.colIdx(q)); q += 1 }
        p += 1
      }
      val cnt = acc.cardinality()
      val r = new Array[Int](cnt)
      var j = acc.nextSetBit(0); var w = 0
      while (j >= 0) { r(w) = j; w += 1; j = acc.nextSetBit(j + 1) }
      rows(i) = r
      outPtr(i + 1) = outPtr(i) + cnt
      i += 1
    }
    val outIdx = new Array[Int](outPtr(numRows))
    i = 0
    while (i < numRows) {
      System.arraycopy(rows(i), 0, outIdx, outPtr(i), rows(i).length)
      i += 1
    }
    new BoolCSR(numRows, that.numCols, outPtr, outIdx)
  }

  /** Boolean union (elementwise OR) — merge of sorted rows. */
  def union(that: BoolCSR): BoolCSR = {
    require(numRows == that.numRows && numCols == that.numCols, "dim mismatch in union")
    val outPtr = new Array[Int](numRows + 1)
    val buf = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (i < numRows) {
      var p = rowPtr(i); var q = that.rowPtr(i)
      val pe = rowPtr(i + 1); val qe = that.rowPtr(i + 1)
      var cnt = 0
      while (p < pe || q < qe) {
        val a = if (p < pe) colIdx(p) else Int.MaxValue
        val b = if (q < qe) that.colIdx(q) else Int.MaxValue
        if (a == b) { buf += a; p += 1; q += 1 }
        else if (a < b) { buf += a; p += 1 }
        else { buf += b; q += 1 }
        cnt += 1
      }
      outPtr(i + 1) = outPtr(i) + cnt
      i += 1
    }
    new BoolCSR(numRows, numCols, outPtr, buf.result())
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

  /** Build from (row, col) pairs (duplicates allowed). */
  def fromPairs(numRows: Int, numCols: Int, pairs: IterableOnce[(Int, Int)]): BoolCSR = {
    val perRow = Array.fill(numRows)(new mutable.ArrayBuilder.ofInt)
    pairs.iterator.foreach { case (i, j) =>
      require(i >= 0 && i < numRows && j >= 0 && j < numCols, s"cell ($i,$j) out of ${numRows}x$numCols")
      perRow(i) += j
    }
    val rowPtr = new Array[Int](numRows + 1)
    val rows = new Array[Array[Int]](numRows)
    var i = 0
    while (i < numRows) {
      val r = perRow(i).result().distinct.sorted
      rows(i) = r
      rowPtr(i + 1) = rowPtr(i) + r.length
      i += 1
    }
    val colIdx = new Array[Int](rowPtr(numRows))
    i = 0
    while (i < numRows) {
      System.arraycopy(rows(i), 0, colIdx, rowPtr(i), rows(i).length)
      i += 1
    }
    new BoolCSR(numRows, numCols, rowPtr, colIdx)
  }
}
