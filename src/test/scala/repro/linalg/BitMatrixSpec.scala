package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class BitMatrixSpec extends AnyFunSuite {

  test("set/apply round-trip across word boundaries") {
    val m = new BitMatrix(130)
    val cells = Seq((0, 0), (0, 63), (0, 64), (1, 127), (129, 129), (64, 65))
    cells.foreach { case (i, j) => m.set(i, j) }
    cells.foreach { case (i, j) => assert(m(i, j), s"($i,$j)") }
    assert(!m(0, 1) && !m(2, 0) && !m(128, 129))
    assert(m.cardinality == cells.size)
  }

  test("orInPlace reports change correctly") {
    val a = BitMatrix.fromPairs(5, Seq((0, 1)))
    val b = BitMatrix.fromPairs(5, Seq((2, 3)))
    assert(a.orInPlace(b))
    assert(a(0, 1) && a(2, 3))
    assert(!a.orInPlace(b)) // already contained
  }

  test("multiply: two-hop reachability") {
    val m = BitMatrix.fromPairs(3, Seq((0, 1), (1, 2)))
    val p = m.multiply(m)
    assert(p.toPairs == Vector((0, 2)))
  }

  test("multiply with identity") {
    val id = BitMatrix.fromPairs(70, (0 until 70).map(i => (i, i)))
    val m = BitMatrix.fromPairs(70, Seq((0, 69), (69, 0), (5, 64)))
    assert(m.multiply(id).toPairs == m.toPairs)
    assert(id.multiply(m).toPairs == m.toPairs)
  }

  test("toPairs lists cells row-major ascending across word boundaries (n % 64 != 0)") {
    val cells = Vector((0, 0), (0, 63), (0, 64), (0, 129), (1, 127), (1, 128), (64, 65), (129, 0), (129, 129))
    val m = BitMatrix.fromPairs(130, cells.reverse)
    assert(m.toPairs == cells)
    assert(BitMatrix.fromPairs(70, Seq.empty).toPairs.isEmpty)
  }

  test("a matrix too large for one array fails fast instead of wrapping its size") {
    // 524,288 × 8,192 words wraps to 0 in Int arithmetic; 600,000 × 9,375 to a wrong positive size.
    for (n <- Seq(524288, 600000)) {
      val e = intercept[IllegalArgumentException](new BitMatrix(n))
      assert(e.getMessage.contains(s"${n.toLong * ((n + 63) / 64)} words"), e.getMessage)
    }
  }

  test("multiplyMasked sums the terms' products and leaves out the mask's cells") {
    val a = BitMatrix.fromPairs(70, Seq((0, 1), (2, 69)))
    val b = BitMatrix.fromPairs(70, Seq((1, 5), (1, 66), (69, 3)))
    val c = BitMatrix.fromPairs(70, Seq((0, 2)))
    val d = BitMatrix.fromPairs(70, Seq((2, 7)))
    val mask = BitMatrix.fromPairs(70, Seq((0, 66), (2, 3)))
    val p = BitMatrix.multiplyMasked(Seq(a -> b, c -> d), Some(mask))
    assert(p.toPairs == Vector((0, 5), (0, 7)))
    // The kernel counts its cells; later writes keep the count right.
    assert(p.cardinality == 2)
    p.set(69, 69)
    assert(p.cardinality == 3)
    assert(p.orInPlace(mask) && p.cardinality == 5)
    assert(BitMatrix.multiplyMasked(Seq(a -> b, c -> d), None).toPairs == Vector((0, 5), (0, 7), (0, 66), (2, 3)))
    assertThrows[IllegalArgumentException](BitMatrix.multiplyMasked(Seq(a -> new BitMatrix(3)), None))
  }

  for (i <- 0 until 15) {
    test(s"property #$i: multiply matches set-algebra reference (incl. >64 cols)") {
      val rnd = new Random(600 + i)
      val n = 1 + rnd.nextInt(100)
      val ap = BoolRef.randomPairs(rnd, n, n, 0.1)
      val bp = BoolRef.randomPairs(rnd, n, n, 0.1)
      val got = BitMatrix.fromPairs(n, ap).multiply(BitMatrix.fromPairs(n, bp)).toPairs.toSet
      assert(got == BoolRef.multiply(n, ap, bp))
    }
  }

  for (i <- 0 until 10) {
    test(s"property #$i: BitMatrix multiply agrees with BoolCSR multiply") {
      val rnd = new Random(700 + i)
      val n = 1 + rnd.nextInt(80)
      val ap = BoolRef.randomPairs(rnd, n, n, 0.15)
      val bp = BoolRef.randomPairs(rnd, n, n, 0.15)
      val dense = BitMatrix.fromPairs(n, ap).multiply(BitMatrix.fromPairs(n, bp)).toPairs.toSet
      val sparse = BoolCSR.fromPairs(n, n, ap).multiply(BoolCSR.fromPairs(n, n, bp)).toPairs.toSet
      assert(dense == sparse)
    }
  }
}
