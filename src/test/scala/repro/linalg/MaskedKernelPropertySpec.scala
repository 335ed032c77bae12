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
    checkProperty(Prop.forAllNoShrink(genCase) { c =>
      val expected = c.product -- c.mask
      val csrTerms = c.terms.map { case (a, b) => BoolCSR.fromPairs(c.n, c.n, a) -> BoolCSR.fromPairs(c.n, c.n, b) }
      val bitTerms = c.terms.map { case (a, b) => BitMatrix.fromPairs(c.n, a) -> BitMatrix.fromPairs(c.n, b) }
      val csr = BoolCSR.multiplyMasked(csrTerms, Some(BoolCSR.fromPairs(c.n, c.n, c.mask)))
      val bit = BitMatrix.multiplyMasked(bitTerms, Some(BitMatrix.fromPairs(c.n, c.mask)))
      Prop(csr.toPairs.toSet == expected) :| "BoolCSR" &&
        Prop(bit.toPairs.toSet == expected && bit.cardinality == expected.size) :| "BitMatrix" &&
        Prop(BoolCSR.multiplyMasked(csrTerms, None).toPairs.toSet == c.product) :| "BoolCSR, no mask" &&
        Prop(BitMatrix.multiplyMasked(bitTerms, None).toPairs.toSet == c.product) :| "BitMatrix, no mask"
    }, seed = 20190L)
  }
}

object MaskedKernelPropertySpec {

  /** Square `n×n` terms and a mask. */
  final case class Case(n: Int, terms: Seq[(Set[(Int, Int)], Set[(Int, Int)])], mask: Set[(Int, Int)]) {
    lazy val product: Set[(Int, Int)] = terms.map { case (a, b) => BoolRef.multiply(n, a, b) }.reduce(_ ++ _)
  }

  /** Cells at a small density; some rows are left empty on purpose. */
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
    other <- genMatrix(n)
    pick <- Gen.choose(0, 3)
  } yield {
    val c = Case(n, terms, Set.empty)
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
