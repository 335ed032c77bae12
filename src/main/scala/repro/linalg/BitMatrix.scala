package repro.linalg

import repro.core.Relation

/** Mutable dense Boolean matrix, rows packed into 64-bit words — the local
  * analog of the paper's row-major dense matrices (dGPU/CUBLAS): every cell
  * is materialized, n²/8 bytes whatever the sparsity, which is exactly why
  * the dense variant degrades on larger graphs (the paper omits dGPU on
  * g1–g3 for the same reason). Every write keeps exact the number of set
  * cells, so `cardinality` takes no pass, and a row-occupancy bitmap, so
  * empty rows are skipped unread. A matrix whose rows are not read
  * [[BitMatrix.straight]] also keeps per row a bitmap of its non-zero
  * words (⌈n/4096⌉ longs), so a row that holds a few cells is read word by
  * word only where it has them.
  *
  * @param n matrix dimension (square, n×n)
  */
final class BitMatrix(val n: Int) extends Serializable {
  private val wordsPerRow = (n + 63) >>> 6
  private val indexPerRow = BitMatrix.indexPerRow(wordsPerRow) // 0: no word index
  // The word index is never longer than `bits`, so one bound covers both arrays.
  require(n >= 0 && n.toLong * wordsPerRow <= Int.MaxValue,
    s"a ${n}x$n BitMatrix needs ${n.toLong * wordsPerRow} words and ${n.toLong * indexPerRow} index words, " +
      s"more than one array holds (${Int.MaxValue})")
  private val bits = new Array[Long](n * wordsPerRow)
  private val wordOcc = new Array[Long](n * indexPerRow) // bit w of row i's longs set iff word w of row i is non-zero
  private val rowOcc = new Array[Long](wordsPerRow) // bit i set iff row i holds a cell
  private var count = 0L

  private def occupy(i: Int): Unit = rowOcc(i >>> 6) |= 1L << (i & 63)
  /** Records that word `w` of row `i` is non-zero, where the matrix keeps a word index. */
  private def mark(i: Int, w: Int): Unit = if (indexPerRow > 0) wordOcc(i * indexPerRow + (w >>> 6)) |= 1L << (w & 63)
  private def occupied(i: Int): Boolean = (rowOcc(i >>> 6) & (1L << (i & 63))) != 0

  def apply(i: Int, j: Int): Boolean =
    (bits(i * wordsPerRow + (j >>> 6)) & (1L << (j & 63))) != 0

  def set(i: Int, j: Int): Unit = {
    require(i >= 0 && i < n && j >= 0 && j < n, s"cell ($i,$j) out of ${n}x$n")
    val w = i * wordsPerRow + (j >>> 6)
    val bit = 1L << (j & 63)
    if ((bits(w) & bit) == 0) { bits(w) |= bit; count += 1; occupy(i); mark(i, j >>> 6) }
  }

  /** Number of set cells. */
  def cardinality: Long = count

  /** In-place OR: this |= that, written as `that`'s [[BitMatrix.Delta]]. Returns true iff any bit changed. */
  def orInPlace(that: BitMatrix): Boolean = {
    val before = count
    orInPlace(BitMatrix.Delta(that))
    count != before
  }

  /** In-place OR of a [[BitMatrix.Delta]]: writes only `d`'s rows, a word
    * row word by word and a column row cell by cell, and counts the cells
    * that were not set before.
    */
  def orInPlace(d: BitMatrix.Delta): Unit = {
    require(n == d.n, s"dim mismatch: ${d.n}x${d.n} into ${n}x$n")
    var r = 0
    while (r < d.size) {
      val i = d.rows(r)
      occupy(i)
      val base = i * wordsPerRow
      val s = d.ptr(r); val e = d.ptr(r + 1)
      if (e - s == wordsPerRow) {
        var w = 0
        while (w < wordsPerRow) {
          val add = d.data(s + w) & ~bits(base + w)
          if (add != 0) { bits(base + w) |= add; count += java.lang.Long.bitCount(add); mark(i, w) }
          w += 1
        }
      } else {
        var q = s
        while (q < e) {
          val j = d.data(q).toInt
          val w = base + (j >>> 6); val bit = 1L << (j & 63)
          if ((bits(w) & bit) == 0) { bits(w) |= bit; count += 1; mark(i, j >>> 6) }
          q += 1
        }
      }
      r += 1
    }
  }

  /** Dense Boolean product `this × that`: [[BitMatrix.multiplyMasked]] with
    * `this` as the one left term and an empty mask.
    */
  def multiply(that: BitMatrix): BitMatrix = {
    val out = new BitMatrix(n)
    // `out` is still empty while the kernel runs, so it serves as the empty mask.
    out.orInPlace(BitMatrix.multiplyMasked(Seq(BitMatrix.Delta(this) -> that), Seq.empty, out))
    out
  }

  /** All set cells as packed [[Relation]] cells, row-major ascending; empty
    * rows are skipped unread, and a row is read as [[BitMatrix.nextWord]] walks it.
    */
  def toPacked: Array[Long] = {
    val out = new Array[Long](Math.toIntExact(count))
    var c = 0; var ow = 0
    while (ow < rowOcc.length) {
      var occupied = rowOcc(ow)
      while (occupied != 0) {
        val i = (ow << 6) + java.lang.Long.numberOfTrailingZeros(occupied)
        occupied &= occupied - 1
        val ib = i * indexPerRow
        var w = BitMatrix.nextWord(wordOcc, ib, wordsPerRow, -1)
        while (w < wordsPerRow) {
          var word = bits(i * wordsPerRow + w)
          while (word != 0) {
            out(c) = Relation.pack(i, (w << 6) + java.lang.Long.numberOfTrailingZeros(word))
            word &= word - 1; c += 1
          }
          w = BitMatrix.nextWord(wordOcc, ib, wordsPerRow, w)
        }
      }
      ow += 1
    }
    out
  }

  /** All set cells as (row, col) pairs, row-major ascending. */
  def toPairs: Vector[(Int, Int)] = toPacked.iterator.map(Relation.unpack).toVector
}

object BitMatrix {
  def fromPairs(n: Int, pairs: IterableOnce[(Int, Int)]): BitMatrix = {
    val m = new BitMatrix(n)
    pairs.iterator.foreach { case (i, j) => m.set(i, j) }
    m
  }

  /** An immutable n×n Boolean matrix that stores only its non-empty rows,
    * each in the cheaper of two forms: a row with at least `wordsPerRow`
    * cells as its `wordsPerRow` words, any other as its ascending columns,
    * one word each. So a `Delta` never needs more words than it has cells
    * (plus an index of n/64 words), and a row's form is told by its length.
    * This is the bitmap-versus-sparse choice of SuiteSparse:GraphBLAS
    * (Davis, "Algorithm 1000", TOMS 2019) made per row.
    *
    * @param size  the number of non-empty rows
    * @param rows  the non-empty rows, ascending, in `rows(0 until size)`
    * @param ptr   row `rows(r)` occupies `data(ptr(r) until ptr(r + 1))`
    * @param occ   row-occupancy bitmap: bit `i` set iff row `i` is non-empty
    * @param cells number of set cells
    */
  final class Delta private[linalg] (val n: Int, private[linalg] val size: Int, private[linalg] val rows: Array[Int],
                                     private[linalg] val ptr: Array[Int], private[linalg] val data: Array[Long],
                                     private[linalg] val occ: Array[Long], val cells: Long)

  object Delta {

    /** The cells of `m`. */
    def apply(m: BitMatrix): Delta = {
      val out = new DeltaWriter(m.n)
      var i = 0
      while (i < m.n) {
        if (m.occupied(i)) {
          val base = i * m.wordsPerRow; val ib = i * m.indexPerRow
          var c = 0
          var w = nextWord(m.wordOcc, ib, m.wordsPerRow, -1)
          while (w < m.wordsPerRow) { c += java.lang.Long.bitCount(m.bits(base + w)); w = nextWord(m.wordOcc, ib, m.wordsPerRow, w) }
          out.words(i, m.bits, base, m.wordOcc, ib, c)
        }
        i += 1
      }
      out.result()
    }
  }

  /** Whether the rows of a matrix `words` words wide are read with a
    * straight loop rather than through their word index: a row of at most
    * 32 words is, because a walk through the index costs a branch per word
    * it reads and so pays only where it skips many. The choice is the
    * matrix's own, from its width.
    */
  private[linalg] def straight(words: Int): Boolean = words <= 32

  /** The longs of the word index per row of a matrix `words` words wide: none where its rows are read [[straight]]. */
  private def indexPerRow(words: Int): Int = if (straight(words)) 0 else (words + 63) >>> 6

  /** The longs an n×n matrix holds: its words and its word index. */
  private[repro] def longs(n: Int): Long = {
    val words = ((n.toLong + 63) >>> 6).toInt
    n.toLong * (words + indexPerRow(words))
  }

  /** The word after `w` (the first one for `w = -1`) that a walk over a row
    * of `words` words reads, given the bitmap `index(from until from +
    * ⌈words/64⌉)` of the row's non-zero words: in a [[straight]] row the
    * next word, otherwise the next word set in the bitmap, found as
    * `java.util.BitSet.nextSetBit` finds it, so that the walk costs the words
    * the row holds. Past the last word the result is at least `words`.
    */
  private def nextWord(index: Array[Long], from: Int, words: Int, w: Int): Int =
    if (straight(words)) w + 1
    else {
      val len = (words + 63) >>> 6
      var x = (w + 1) >>> 6
      if (x >= len) words
      else {
        var word = index(from + x) & (-1L << ((w + 1) & 63))
        while (word == 0 && x + 1 < len) { x += 1; word = index(from + x) }
        if (word == 0) words else (x << 6) + java.lang.Long.numberOfTrailingZeros(word)
      }
    }

  /** Writes a [[Delta]] row by row, in ascending row order. Its row arrays
    * are sized for all `n` rows, its `data` grows by doubling, and all are
    * handed over untrimmed.
    */
  private final class DeltaWriter(n: Int) {
    private val wpr = (n + 63) >>> 6
    private val rows = new Array[Int](n)
    private val ptr = new Array[Int](n + 1)
    private var data = new Array[Long](64)
    private val occ = new Array[Long](wpr)
    private var size = 0 // rows so far
    private var end = 0 // data's length so far
    private var cells = 0L

    /** Makes room for row `i` of `c` cells taking `len` words of `data`. */
    private def add(i: Int, c: Int, len: Int): Unit = {
      if (end + len > data.length) data = java.util.Arrays.copyOf(data, math.max(2 * data.length, end + len))
      rows(size) = i
      size += 1
      ptr(size) = end + len
      occ(i >>> 6) |= 1L << (i & 63)
      cells += c
    }

    /** Row `i` given as its words `row(from until from + wpr)` and its `c`
      * cells; a row of fewer than `wpr` cells is read at the words that
      * [[nextWord]] visits given `index(ifrom until ifrom + ⌈wpr/64⌉)`.
      * An empty row is skipped.
      */
    def words(i: Int, row: Array[Long], from: Int, index: Array[Long], ifrom: Int, c: Int): Unit = if (c > 0) {
      if (c >= wpr) {
        add(i, c, wpr)
        System.arraycopy(row, from, data, end, wpr)
      } else {
        add(i, c, c)
        var q = end
        var w = nextWord(index, ifrom, wpr, -1)
        while (w < wpr) {
          var word = row(from + w)
          while (word != 0) {
            data(q) = (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
            word &= word - 1; q += 1
          }
          w = nextWord(index, ifrom, wpr, w)
        }
      }
      end = ptr(size)
    }

    def result(): Delta = new Delta(n, size, rows, ptr, data, occ, cells)
  }

  /** The closure step's kernel, `(⋃ Δ_B × T_C ∪ ⋃ T_B × T_C|rows(Δ_C)) ∖ mask`,
    * built one dense accumulator row at a time, where `T_C|rows(Δ_C)` is
    * `T_C` at the non-empty rows of `Δ_C`:
    *  - a left term `(Δ_B, T_C)` ORs row k of `T_C` into the row for each
    *    cell k of `Δ_B`'s row, 64 cells per word operation;
    *  - a right term `(T_B, Δ_C, T_C)` ANDs `T_B`'s row words with `Δ_C`'s
    *    row-occupancy bitmap, and for each k left ORs in row k of `T_C` the
    *    same way; it reads no row of `Δ_C`.
    * [[repro.core.Closure.fresh]] passes `T_C ⊇ Δ_C`, for which the sum is
    * its `Δ'`. Empty rows of `T_C` and `T_B` are neither OR-ed nor scanned. A row
    * that received something is then cleared of the mask's cells (one
    * `andNot` per word), emitted in its cheaper form and zeroed; a row that
    * received nothing is skipped. Unless the rows are read [[straight]], a
    * row of `T_C` or `T_B` is read only at its non-zero words, and the
    * accumulator records the words it was written at and is masked,
    * emitted and zeroed only there, as the per-row accumulators of
    * SuiteSparse's `saxpy3` and of Nagasaka et al. (Parallel Computing,
    * 2019) do. The kernel allocates no n×n matrix: its working space is one
    * row and its word bitmap.
    */
  def multiplyMasked(left: Seq[(Delta, BitMatrix)], right: Seq[(BitMatrix, Delta, BitMatrix)], mask: BitMatrix): Delta = {
    val n = mask.n
    require(left.forall { case (d, m) => d.n == n && m.n == n } && right.forall { case (m, d, u) => m.n == n && d.n == n && u.n == n },
      s"dim mismatch in a ${n}x$n sum")
    val wpr = mask.wordsPerRow
    val ipr = mask.indexPerRow
    val ls = left.map(_._1).toArray
    val lt = left.map(_._2).toArray
    val rt = right.map(_._1).toArray
    val ro = right.map(_._2.occ).toArray // Δ_C's row occupancy
    val ru = right.map(_._3).toArray
    val next = new Array[Int](ls.length) // per left term: the index of its next row in `rows`
    val acc = new Array[Long](wpr)
    val touched = new Array[Long]((wpr + 63) >>> 6) // bit w set if acc(w) was written since the last row
    val wide = !straight(wpr) // else every walk reads every word, so `touched` is not kept
    val out = new DeltaWriter(n)

    // OR row k of `m` into the accumulator unless it is empty; true iff it was not.
    def orRow(m: BitMatrix, k: Int): Boolean = m.occupied(k) && {
      val src = k * wpr; val ib = k * ipr
      if (!wide) {
        var w = 0
        while (w < wpr) { acc(w) |= m.bits(src + w); w += 1 }
      } else {
        var x = 0
        while (x < ipr) {
          var z = m.wordOcc(ib + x)
          touched(x) |= z
          while (z != 0) { val w = (x << 6) + java.lang.Long.numberOfTrailingZeros(z); acc(w) |= m.bits(src + w); z &= z - 1 }
          x += 1
        }
      }
      true
    }

    var i = 0
    while (i < n) {
      var wrote = false
      var t = 0
      while (t < ls.length) {
        val d = ls(t); val r = next(t)
        if (r < d.size && d.rows(r) == i) {
          next(t) = r + 1
          val s = d.ptr(r); val e = d.ptr(r + 1)
          if (e - s == wpr) {
            var kw = 0
            while (kw < wpr) {
              var word = d.data(s + kw)
              while (word != 0) {
                if (orRow(lt(t), (kw << 6) + java.lang.Long.numberOfTrailingZeros(word))) wrote = true
                word &= word - 1
              }
              kw += 1
            }
          } else {
            var q = s
            while (q < e) { if (orRow(lt(t), d.data(q).toInt)) wrote = true; q += 1 }
          }
        }
        t += 1
      }
      t = 0
      while (t < rt.length) {
        val m = rt(t); val occ = ro(t)
        if (m.occupied(i)) { // an empty row of T_B meets no row of T_C
          val base = i * wpr; val ib = i * ipr
          var kw = nextWord(m.wordOcc, ib, wpr, -1)
          while (kw < wpr) {
            var word = m.bits(base + kw) & occ(kw)
            while (word != 0) {
              if (orRow(ru(t), (kw << 6) + java.lang.Long.numberOfTrailingZeros(word))) wrote = true
              word &= word - 1
            }
            kw = nextWord(m.wordOcc, ib, wpr, kw)
          }
        }
        t += 1
      }
      if (wrote) {
        val base = i * wpr
        var c = 0
        var w = nextWord(touched, 0, wpr, -1)
        while (w < wpr) {
          acc(w) &= ~mask.bits(base + w); c += java.lang.Long.bitCount(acc(w))
          w = nextWord(touched, 0, wpr, w)
        }
        out.words(i, acc, 0, touched, 0, c)
        w = nextWord(touched, 0, wpr, -1)
        while (w < wpr) { acc(w) = 0; w = nextWord(touched, 0, wpr, w) }
        var x = 0
        while (x < touched.length) { touched(x) = 0; x += 1 }
      }
      i += 1
    }
    out.result()
  }
}
