package repro.linalg

import repro.core.Relation

/** Mutable dense Boolean matrix, rows packed into 64-bit words — the local
  * analog of the paper's row-major dense matrices (dGPU/CUBLAS): every cell
  * is materialized, and the multiply cost is Θ(n³/64) regardless of
  * sparsity, which is exactly why the dense variant degrades on larger
  * graphs (the paper omits dGPU on g1–g3 for the same reason).
  *
  * @param n matrix dimension (square, n×n)
  */
final class BitMatrix(val n: Int) extends Serializable {
  private val wordsPerRow = (n + 63) >>> 6
  require(n >= 0 && n.toLong * wordsPerRow <= Int.MaxValue,
    s"a ${n}x$n BitMatrix needs ${n.toLong * wordsPerRow} words, more than one array holds (${Int.MaxValue})")
  private val bits = new Array[Long](n * wordsPerRow)
  private var count = 0L // number of set cells; -1 once a write has made it unknown

  def apply(i: Int, j: Int): Boolean =
    (bits(i * wordsPerRow + (j >>> 6)) & (1L << (j & 63))) != 0

  def set(i: Int, j: Int): Unit = {
    bits(i * wordsPerRow + (j >>> 6)) |= (1L << (j & 63))
    count = -1
  }

  /** Number of set cells; the masked kernel's result knows it already. */
  def cardinality: Long = {
    if (count < 0) {
      var s = 0L; var w = 0
      while (w < bits.length) { s += java.lang.Long.bitCount(bits(w)); w += 1 }
      count = s
    }
    count
  }

  /** In-place OR: this |= that. Returns true iff any bit changed. */
  def orInPlace(that: BitMatrix): Boolean = {
    require(n == that.n)
    var changed = false
    var w = 0
    while (w < bits.length) {
      val nw = bits(w) | that.bits(w)
      if (nw != bits(w)) { bits(w) = nw; changed = true }
      w += 1
    }
    if (changed) count = -1
    changed
  }

  /** Dense Boolean product `this × that`: [[BitMatrix.multiplyMasked]] with
    * one term and no mask.
    */
  def multiply(that: BitMatrix): BitMatrix = BitMatrix.multiplyMasked(Seq(this -> that), None)

  /** All set cells as packed [[Relation]] cells, row-major ascending. */
  def toPacked: Array[Long] = {
    val out = new Array[Long](Math.toIntExact(cardinality))
    var c = 0; var w = 0
    while (w < bits.length) {
      var word = bits(w)
      while (word != 0) {
        out(c) = Relation.pack(w / wordsPerRow, ((w % wordsPerRow) << 6) + java.lang.Long.numberOfTrailingZeros(word))
        word &= word - 1; c += 1
      }
      w += 1
    }
    out
  }

  /** All set cells as (row, col) pairs, row-major ascending. */
  def toPairs: Vector[(Int, Int)] = toPacked.iterator.map(Relation.unpack).toVector

  private def rowEmpty(i: Int): Boolean = {
    var w = i * wordsPerRow
    val end = w + wordsPerRow
    while (w < end && bits(w) == 0) w += 1
    w == end
  }
}

object BitMatrix {
  def fromPairs(n: Int, pairs: IterableOnce[(Int, Int)]): BitMatrix = {
    val m = new BitMatrix(n)
    pairs.iterator.foreach { case (i, j) => m.set(i, j) }
    m
  }

  /** Complement-masked sum of products, `C⟨¬mask⟩ = ⋃_{(a, b) ∈ terms} a × b`:
    * for every set (i, k) of a term's `a`, OR row k of its `b` into row i,
    * 64 cells per word operation; then clear the mask's cells from the row,
    * one `andNot` per word, counting the cells left. Empty rows of `b` are
    * not OR-ed, and a row that received nothing is not masked.
    */
  def multiplyMasked(terms: Seq[(BitMatrix, BitMatrix)], mask: Option[BitMatrix]): BitMatrix = {
    require(terms.nonEmpty, "multiplyMasked needs at least one term")
    val n = terms.head._1.n
    require(terms.forall { case (a, b) => a.n == n && b.n == n } && mask.forall(_.n == n),
      s"dim mismatch in a ${n}x$n sum")
    val out = new BitMatrix(n)
    val wpr = out.wordsPerRow
    val as = terms.map(_._1).toArray
    val bs = terms.map(_._2).toArray
    // Per right operand, per row: 0 not looked at yet, 1 empty, 2 holds a cell.
    val rowStates = bs.distinct.map(b => b -> new Array[Byte](n)).toMap
    val bRows = bs.map(rowStates)
    val m = mask.orNull
    var cells = 0L
    var i = 0
    while (i < n) {
      val rowBase = i * wpr
      var wrote = false
      var t = 0
      while (t < as.length) {
        val a = as(t).bits; val b = bs(t); val bRow = bRows(t)
        var kw = 0
        while (kw < wpr) {
          var word = a(rowBase + kw)
          while (word != 0) {
            val k = (kw << 6) + java.lang.Long.numberOfTrailingZeros(word)
            word &= word - 1
            if (bRow(k) == 0) bRow(k) = if (b.rowEmpty(k)) 1 else 2
            if (bRow(k) == 2) {
              wrote = true
              val src = k * wpr
              var w = 0
              while (w < wpr) { out.bits(rowBase + w) |= b.bits(src + w); w += 1 }
            }
          }
          kw += 1
        }
        t += 1
      }
      if (wrote) {
        var w = 0
        while (w < wpr) {
          if (m != null) out.bits(rowBase + w) &= ~m.bits(rowBase + w)
          cells += java.lang.Long.bitCount(out.bits(rowBase + w))
          w += 1
        }
      }
      i += 1
    }
    out.count = cells
    out
  }
}
