package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks

/** Generated checks of the complement-masked kernels against plain set
  * algebra: `multiplyMasked(terms, mask) = (⋃ a × b) ∖ mask`, where
  * BitMatrix's right term `(a, b, u)` makes `a × u|rows(b)`, `u ⊇ b` at the
  * non-empty rows of `b`.
  */
class MaskedKernelPropertySpec extends AnyFunSuite with PropertyChecks {
  import MaskedKernelPropertySpec._

  test("BoolCSR and BitMatrix multiplyMasked equal (⋃ a×b) ∖ mask (generated, >64 columns, empty rows and masks)") {
    // Rows of every Delta the BitMatrix kernel read or built, by form: (words, columns).
    var forms = (0, 0)
    def seen(d: BitMatrix.Delta): BitMatrix.Delta = { val (w, c) = rowForms(d); forms = (forms._1 + w, forms._2 + c); d }
    // Rows of every T the kernel read, by the side of BitMatrix's straight/indexed switch: (straight, indexed),
    // and the indexed rows with a non-zero word in the second long of their word index.
    var sides = (0, 0, 0)
    // Rows of the BoolCSR kernel's output by accumulator: (heavy, light).
    var accumulators = (0, 0)
    // Product cells that only extra cells of a right term's u make, from a row of its Δ and from another row.
    var extras = (0, 0)
    def read(n: Int, cells: Set[(Int, Int)]): BitMatrix = {
      val (s, i, wide) = rowSides(n, cells)
      sides = (sides._1 + s, sides._2 + i, sides._3 + wide)
      BitMatrix.fromPairs(n, cells)
    }
    checkProperty(Prop.forAllNoShrink(genCase) { c =>
      extras = (extras._1 + (c.bitProduct -- c.product).size, extras._2 + (c.reach -- c.bitProduct).size)
      val expected = c.product -- c.mask
      val bitExpected = c.bitProduct -- c.mask
      val csrTerms = c.terms.map { case (a, b) => BoolCSR.fromPairs(c.n, c.n, a) -> BoolCSR.fromPairs(c.n, c.n, b) }
      val (h, l) = rowAccumulators(csrTerms)
      accumulators = (accumulators._1 + h, accumulators._2 + l)
      val csr = BoolCSR.multiplyMasked(csrTerms, Some(BoolCSR.fromPairs(c.n, c.n, c.mask)))
      // A left term is (Δ, T), a right term (T, Δ, u).
      def delta(cells: Set[(Int, Int)]) = seen(BitMatrix.Delta(BitMatrix.fromPairs(c.n, cells)))
      val (left, right) = c.terms.indices.partitionMap { t =>
        val (a, b) = c.terms(t)
        if (c.leftSide(t)) Left(delta(a) -> read(c.n, b)) else Right((read(c.n, a), delta(b), read(c.n, c.u(t))))
      }
      def bit(mask: Set[(Int, Int)]) = {
        val d = seen(BitMatrix.multiplyMasked(left, right, BitMatrix.fromPairs(c.n, mask)))
        val m = new BitMatrix(c.n)
        m.orInPlace(d)
        (m.toPairs.toSet, d.cells)
      }
      Prop(csr.toPairs.toSet == expected) :| "BoolCSR" &&
        Prop(bit(c.mask) == (bitExpected, bitExpected.size.toLong)) :| "BitMatrix" &&
        Prop(BoolCSR.multiplyMasked(csrTerms, None).toPairs.toSet == c.product) :| "BoolCSR, no mask" &&
        Prop(bit(Set.empty) == (c.bitProduct, c.bitProduct.size.toLong)) :| "BitMatrix, no mask"
    }, seed = 20190L)
    assert(extras._1 > 0 && extras._2 > 0, s"cells of extra u cells (from a Δ row, kept out from another row): $extras")
    assert(forms._1 > 0 && forms._2 > 0, s"rows by form (words, columns): $forms")
    assert(sides._1 > 0 && sides._2 > 0 && sides._3 > 0, s"rows by side (straight, indexed, indexed past word 63): $sides")
    assert(accumulators._1 > 0 && accumulators._2 > 0, s"BoolCSR rows by accumulator (heavy, light): $accumulators")
  }
}

object MaskedKernelPropertySpec {

  /** The number of (word-form, column-form) rows of `d`: a word-form row is `n / 64` rounded up words long. */
  def rowForms(d: BitMatrix.Delta): (Int, Int) = {
    val words = (0 until d.size).count(r => d.ptr(r + 1) - d.ptr(r) == (d.n + 63) / 64)
    (words, d.size - words)
  }

  /** The non-empty rows of the n×n `cells` by the side of BitMatrix's
    * straight/indexed switch, (straight, indexed, indexed with a non-zero
    * word past word 63), as `BitMatrix.straight` tells the side of a matrix
    * `n / 64` rounded up words wide.
    */
  def rowSides(n: Int, cells: Set[(Int, Int)]): (Int, Int, Int) = {
    val lastWords = cells.groupMapReduce(_._1)(_._2 >>> 6)(math.max).values
    if (BitMatrix.straight((n + 63) / 64)) (lastWords.size, 0, 0)
    else (0, lastWords.size, lastWords.count(_ >= 64))
  }

  /** The rows with products of `BoolCSR.multiplyMasked(terms, _)` by
    * accumulator, (heavy, light), as `BoolCSR.heavy` tells them from a
    * row's flops, `Σ |b row k|` over its cells `k` in each term's `a`.
    */
  def rowAccumulators(terms: Seq[(BoolCSR, BoolCSR)]): (Int, Int) = {
    val words = (terms.head._2.numCols + 63) / 64
    val flops = (0 until terms.head._1.numRows).map { i =>
      terms.map { case (a, b) => (a.rowPtr(i) until a.rowPtr(i + 1)).map(p => b.rowPtr(a.colIdx(p) + 1) - b.rowPtr(a.colIdx(p))).sum.toLong }.sum
    }.filter(_ > 0)
    val heavy = flops.count(BoolCSR.heavy(_, words))
    (heavy, flops.size - heavy)
  }

  /** Square `n×n` terms and a mask; `leftSide(t)` puts term `t`'s `Δ` on
    * the left in the BitMatrix kernel, else on the right, with `u(t)`, its
    * `Δ`'s cells and `extra(t)`, as the `T` whose rows it reads.
    */
  final case class Case(n: Int, terms: Seq[(Set[(Int, Int)], Set[(Int, Int)])], leftSide: Seq[Boolean],
                        extra: Seq[Set[(Int, Int)]], mask: Set[(Int, Int)]) {
    def u(t: Int): Set[(Int, Int)] = terms(t)._2 ++ extra(t)
    private def rights = terms.indices.filterNot(leftSide)
    /** `⋃ a × b`. */
    lazy val product: Set[(Int, Int)] = terms.map { case (a, b) => BoolRef.multiply(n, a, b) }.reduce(_ ++ _)
    /** `product` with each right term's `a × u|rows(b)`. */
    lazy val bitProduct: Set[(Int, Int)] = product ++ rights.flatMap { t =>
      val rows = terms(t)._2.map(_._1)
      BoolRef.multiply(n, terms(t)._1, u(t).filter(c => rows(c._1)))
    }
    /** `product` with each right term's `a × u`. */
    lazy val reach: Set[(Int, Int)] = product ++ rights.flatMap(t => BoolRef.multiply(n, terms(t)._1, u(t)))
  }

  /** Cells at a small density, up to a few per row on either side of
    * BitMatrix.Delta's words/columns switch (`n / 64` rounded up cells);
    * some rows are left empty on purpose.
    */
  private def genMatrix(n: Int): Gen[Set[(Int, Int)]] = for {
    density <- Gen.oneOf(0.0, 0.005, 0.02, 0.06)
    emptyRows <- Gen.containerOfN[Set, Int](n / 2, Gen.choose(0, n - 1))
    seed <- Gen.long
  } yield {
    val rnd = new scala.util.Random(seed)
    BoolRef.randomPairs(rnd, n, n, density).filterNot(c => emptyRows(c._1))
  }

  /** For n > 4,096, where a row's word index spans two longs: 1–4 cells
    * in about half the rows, a quarter of them in the last 300 columns; in
    * one matrix of three, one more row of 100 cells, which a `Delta` holds
    * as words.
    */
  private def genWide(n: Int): Gen[Set[(Int, Int)]] = Gen.long.map { seed =>
    val rnd = new scala.util.Random(seed)
    def col() = if (rnd.nextInt(4) == 0) n - 1 - rnd.nextInt(300) else rnd.nextInt(n)
    val few = for { i <- 0 until n if rnd.nextBoolean(); _ <- 0 to rnd.nextInt(4) } yield (i, col())
    val hub = if (rnd.nextInt(3) == 0) { val i = rnd.nextInt(n); Seq.fill(100)((i, col())) } else Seq.empty
    (few ++ hub).toSet
  }

  val genCase: Gen[Case] = for {
    n <- Gen.frequency(1 -> Gen.choose(1, 64), 3 -> Gen.choose(65, 140), 1 -> Gen.choose(4097, 4300))
    k <- Gen.choose(1, 4)
    gen = if (n > 4096) genWide(n) else genMatrix(n)
    terms <- Gen.listOfN(k, Gen.zip(gen, gen))
    // Left-only, right-only or mixed.
    leftSide <- Gen.oneOf(Gen.const(List.fill(k)(true)), Gen.const(List.fill(k)(false)), Gen.listOfN(k, Gen.oneOf(true, false)))
    // Cells of a right term's u beyond its Δ's, in rows its Δ holds and in rows it leaves empty.
    extra <- Gen.listOfN(k, gen)
    other <- gen
    pick <- Gen.choose(0, 3)
  } yield {
    val c = Case(n, terms, leftSide, extra, Set.empty)
    // No mask, a mask covering the whole product, an unrelated mask, or part of the product.
    val mask = pick match {
      case 0 => Set.empty[(Int, Int)]
      case 1 => c.bitProduct ++ other
      case 2 => other
      case _ => c.bitProduct.filter(p => (p._1 + p._2) % 2 == 0) ++ other
    }
    c.copy(mask = mask)
  }
}
