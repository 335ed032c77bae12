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

  /** The cells of `d`, row-major ascending. */
  private def pairs(d: BitMatrix.Delta): Vector[(Int, Int)] = { val m = new BitMatrix(d.n); m.orInPlace(d); m.toPairs }
  private def delta(n: Int, cells: Seq[(Int, Int)]) = BitMatrix.Delta(BitMatrix.fromPairs(n, cells))

  test("multiplyMasked sums the terms' products and leaves out the mask's cells") {
    val a = delta(70, Seq((0, 1), (2, 69)))
    val b = BitMatrix.fromPairs(70, Seq((1, 5), (1, 66), (69, 3)))
    val c = BitMatrix.fromPairs(70, Seq((0, 2), (0, 3)))
    val d = delta(70, Seq((2, 7)))
    // The right term's T_C: d's cell, one more in d's row 2, and one in row 3, which d leaves empty.
    val u = BitMatrix.fromPairs(70, Seq((2, 7), (2, 9), (3, 11)))
    val mask = BitMatrix.fromPairs(70, Seq((0, 66), (2, 3)))
    val p = BitMatrix.multiplyMasked(Seq(a -> b), Seq((c, d, u)), mask)
    assert(pairs(p) == Vector((0, 5), (0, 7), (0, 9)) && p.cells == 3)
    assert(pairs(BitMatrix.multiplyMasked(Seq(a -> b), Seq((c, d, u)), new BitMatrix(70))) ==
      Vector((0, 5), (0, 7), (0, 9), (0, 66), (2, 3)))
    assertThrows[IllegalArgumentException](BitMatrix.multiplyMasked(Seq(a -> new BitMatrix(3)), Seq.empty, mask))
    assertThrows[IllegalArgumentException](BitMatrix.multiplyMasked(Seq.empty, Seq((c, delta(3, Seq.empty), c)), mask))
    assertThrows[IllegalArgumentException](BitMatrix.multiplyMasked(Seq.empty, Seq((c, d, new BitMatrix(3))), mask))
  }

  test("orInPlace(Delta) writes the Delta's rows in both forms and keeps cardinality exact") {
    // Row 0 has 2 cells of 2 words per row (word form), row 1 one cell (column form).
    val d = delta(70, Seq((0, 3), (0, 68), (1, 69)))
    assert(MaskedKernelPropertySpec.rowForms(d) == (1, 1) && d.cells == 3)
    val m = BitMatrix.fromPairs(70, Seq((0, 3), (5, 5)))
    m.orInPlace(d)
    assert(m.toPairs == Vector((0, 3), (0, 68), (1, 69), (5, 5)))
    assert(m.cardinality == 4) // (0, 3) was set already
    m.orInPlace(d)
    assert(m.cardinality == 4)
    assert(m.orInPlace(BitMatrix.fromPairs(70, Seq((0, 3), (6, 6)))) && m.cardinality == 5)
    m.set(6, 6)
    assert(m.cardinality == 5)
    assertThrows[IllegalArgumentException](m.orInPlace(delta(3, Seq.empty)))
  }

  test("every write keeps the word index exact (n = 4,160: 65 words, a word index of 2 longs per row)") {
    val n = 4160
    val cols = Seq(0, 63 * 64 + 5, 64 * 64, n - 1) // in words 0, 63 and 64, the last word
    // Rows 1 and 4 hold all four; row 2 skips word 63 (its walk jumps to the index's second long), row 3 word 0.
    def row(i: Int) = (if (i == 2) cols.filter(_ / 64 != 63) else if (i == 3) cols.tail else cols).map(i -> _)
    // Row 0 gathers rows 1-4 when m is a left term; rows `cols` are the identity when m is a right term.
    val probe = (1 to 4).map(0 -> _) ++ cols.map(j => j -> j)
    val mask = Set((0, n - 1), (2, 0))
    def check(m: BitMatrix, ref: Set[(Int, Int)]): Unit = {
      assert(m.toPairs == ref.toVector.sorted && m.cardinality == ref.size)
      val d = delta(n, probe)
      val p = BitMatrix.multiplyMasked(Seq(d -> m), Seq((m, d, BitMatrix.fromPairs(n, probe))), BitMatrix.fromPairs(n, mask))
      val expected = BoolRef.multiply(n, probe.toSet, ref) ++ BoolRef.multiply(n, ref, probe.toSet) -- mask
      assert(pairs(p) == expected.toVector.sorted && p.cells == expected.size)
    }
    val m = new BitMatrix(n)
    row(1).foreach { case (i, j) => m.set(i, j) }
    check(m, row(1).toSet)
    assert(m.orInPlace(BitMatrix.fromPairs(n, row(2))))
    check(m, (row(1) ++ row(2)).toSet)
    val columns = delta(n, row(3))
    val words = delta(n, row(4) ++ (1000 until 1070).map(4 -> _)) // 74 cells of 65 words per row
    assert(MaskedKernelPropertySpec.rowForms(columns) == (0, 1) && MaskedKernelPropertySpec.rowForms(words) == (1, 0))
    m.orInPlace(columns)
    check(m, (row(1) ++ row(2) ++ row(3)).toSet)
    m.orInPlace(words)
    check(m, (row(1) ++ row(2) ++ row(3) ++ row(4) ++ (1000 until 1070).map(4 -> _)).toSet)
  }

  test("set rejects a cell outside n x n instead of setting another or a padding bit") {
    // (0, 130) would land on (1, 2) and (0, 100) on a padding bit of row 0.
    for ((i, j) <- Seq((0, 130), (0, 100), (0, 70), (70, 0), (-1, 0), (0, -1))) {
      val e = intercept[IllegalArgumentException](BitMatrix.fromPairs(70, Seq((i, j))))
      assert(e.getMessage.contains(s"($i,$j) out of 70x70"), e.getMessage)
    }
    assert(BitMatrix.fromPairs(70, Seq((69, 69))).toPairs == Vector((69, 69)))
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
