package repro.linalg

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
  private val bits = new Array[Long](n * wordsPerRow)

  def apply(i: Int, j: Int): Boolean =
    (bits(i * wordsPerRow + (j >>> 6)) & (1L << (j & 63))) != 0

  def set(i: Int, j: Int): Unit =
    bits(i * wordsPerRow + (j >>> 6)) |= (1L << (j & 63))

  /** Number of set cells. */
  def cardinality: Long = {
    var s = 0L; var w = 0
    while (w < bits.length) { s += java.lang.Long.bitCount(bits(w)); w += 1 }
    s
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
    changed
  }

  /** Dense Boolean product `this × that`: for every set (i,k), OR row k of
    * `that` into row i of the result — 64 cells per word operation.
    */
  def multiply(that: BitMatrix): BitMatrix = {
    require(n == that.n)
    val out = new BitMatrix(n)
    var i = 0
    while (i < n) {
      val rowBase = i * wordsPerRow
      var kw = 0
      while (kw < wordsPerRow) {
        var word = bits(rowBase + kw)
        while (word != 0) {
          val k = (kw << 6) + java.lang.Long.numberOfTrailingZeros(word)
          word &= word - 1
          val src = k * wordsPerRow
          var w = 0
          while (w < wordsPerRow) {
            out.bits(rowBase + w) |= that.bits(src + w)
            w += 1
          }
        }
        kw += 1
      }
      i += 1
    }
    out
  }

  /** All set cells as (row, col) pairs. */
  def toPairs: Vector[(Int, Int)] = {
    val b = Vector.newBuilder[(Int, Int)]
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) { if (apply(i, j)) b += ((i, j)); j += 1 }
      i += 1
    }
    b.result()
  }
}

object BitMatrix {
  def fromPairs(n: Int, pairs: IterableOnce[(Int, Int)]): BitMatrix = {
    val m = new BitMatrix(n)
    pairs.iterator.foreach { case (i, j) => m.set(i, j) }
    m
  }
}
