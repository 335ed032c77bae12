package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks

/** Generated checks of the complement-masked kernels against plain set
  * algebra: `multiplyMasked(terms, mask) = (⋃ a × b) ∖ mask`.
  */
class MaskedKernelPropertySpec extends AnyFunSuite with PropertyChecks {
  import MaskedKernelPropertySpec._

  test("BoolCSR and BitMatrix multiplyMasked equal (⋃ a×b) ∖ mask (generated, >64 columns, empty rows and masks)") {
    // Rows of every Delta the BitMatrix kernel read or built, by form: (words, columns).
    var forms = (0, 0)
    def seen(d: BitMatrix.Delta): BitMatrix.Delta = { val (w, c) = rowForms(d); forms = (forms._1 + w, forms._2 + c); d }
    checkProperty(Prop.forAllNoShrink(genCase) { c =>
      val expected = c.product -- c.mask
      val csrTerms = c.terms.map { case (a, b) => BoolCSR.fromPairs(c.n, c.n, a) -> BoolCSR.fromPairs(c.n, c.n, b) }
      val csr = BoolCSR.multiplyMasked(csrTerms, Some(BoolCSR.fromPairs(c.n, c.n, c.mask)))
      // A left term is (Δ, T), a right term (T, Δ).
      def delta(cells: Set[(Int, Int)]) = seen(BitMatrix.Delta(BoolCSR.fromPairs(c.n, c.n, cells)))
      val (left, right) = c.terms.zip(c.leftSide).partitionMap { case ((a, b), isLeft) =>
        if (isLeft) Left(delta(a) -> BitMatrix.fromPairs(c.n, b)) else Right(BitMatrix.fromPairs(c.n, a) -> delta(b))
      }
      def bit(mask: Set[(Int, Int)]) = {
        val d = seen(BitMatrix.multiplyMasked(left, right, BitMatrix.fromPairs(c.n, mask)))
        val m = new BitMatrix(c.n)
        m.orInPlace(d)
        (m.toPairs.toSet, d.cells)
      }
      Prop(csr.toPairs.toSet == expected) :| "BoolCSR" &&
        Prop(bit(c.mask) == (expected, expected.size.toLong)) :| "BitMatrix" &&
        Prop(BoolCSR.multiplyMasked(csrTerms, None).toPairs.toSet == c.product) :| "BoolCSR, no mask" &&
        Prop(bit(Set.empty) == (c.product, c.product.size.toLong)) :| "BitMatrix, no mask"
    }, seed = 20190L)
    assert(forms._1 > 0 && forms._2 > 0, s"rows by form (words, columns): $forms")
  }
}

object MaskedKernelPropertySpec {

  /** The number of (word-form, column-form) rows of `d`: a word-form row is `n / 64` rounded up words long. */
  def rowForms(d: BitMatrix.Delta): (Int, Int) = {
    val words = (0 until d.size).count(r => d.ptr(r + 1) - d.ptr(r) == (d.n + 63) / 64)
    (words, d.size - words)
  }

  /** Square `n×n` terms and a mask; `leftSide(t)` puts term `t`'s `Δ` on
    * the left in the BitMatrix kernel, else on the right.
    */
  final case class Case(n: Int, terms: Seq[(Set[(Int, Int)], Set[(Int, Int)])], leftSide: Seq[Boolean],
                        mask: Set[(Int, Int)]) {
    lazy val product: Set[(Int, Int)] = terms.map { case (a, b) => BoolRef.multiply(n, a, b) }.reduce(_ ++ _)
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

  val genCase: Gen[Case] = for {
    n <- Gen.frequency(1 -> Gen.choose(1, 64), 3 -> Gen.choose(65, 140))
    k <- Gen.choose(1, 4)
    terms <- Gen.listOfN(k, Gen.zip(genMatrix(n), genMatrix(n)))
    // Left-only, right-only or mixed.
    leftSide <- Gen.oneOf(Gen.const(List.fill(k)(true)), Gen.const(List.fill(k)(false)), Gen.listOfN(k, Gen.oneOf(true, false)))
    other <- genMatrix(n)
    pick <- Gen.choose(0, 3)
  } yield {
    val c = Case(n, terms, leftSide, Set.empty)
    // No mask, a mask covering the whole product, an unrelated mask, or part of the product.
    val mask = pick match {
      case 0 => Set.empty[(Int, Int)]
      case 1 => c.product ++ other
      case 2 => other
      case _ => c.product.filter(p => (p._1 + p._2) % 2 == 0) ++ other
    }
    c.copy(mask = mask)
  }
}
