package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Reference semantics for the sparse kernels: plain set-of-pairs algebra. */
object BoolRef {
  def multiply(n: Int, a: Set[(Int, Int)], b: Set[(Int, Int)]): Set[(Int, Int)] =
    for { (i, k) <- a; (k2, j) <- b if k == k2 } yield (i, j)

  def randomPairs(rnd: Random, rows: Int, cols: Int, density: Double): Set[(Int, Int)] =
    (for {
      i <- 0 until rows; j <- 0 until cols
      if rnd.nextDouble() < density
    } yield (i, j)).toSet
}

class BoolCSRSpec extends AnyFunSuite {

  test("fromPairs/toPairs round-trip with duplicates and unordered input") {
    val m = BoolCSR.fromPairs(3, 4, Seq((2, 1), (0, 3), (2, 1), (0, 0)))
    assert(m.toPairs.toSet == Set((2, 1), (0, 3), (0, 0)))
    assert(m.nnz == 3)
  }

  test("apply: membership via binary search") {
    val m = BoolCSR.fromPairs(3, 5, Seq((1, 0), (1, 2), (1, 4)))
    assert(m(1, 0) && m(1, 2) && m(1, 4))
    assert(!m(1, 1) && !m(1, 3) && !m(0, 0) && !m(2, 4))
  }

  private def row(m: BoolCSR, i: Int): Seq[Int] = m.colIdx.slice(m.rowPtr(i), m.rowPtr(i + 1)).toSeq

  test("row returns sorted column indices") {
    val m = BoolCSR.fromPairs(2, 5, Seq((0, 4), (0, 1), (0, 3)))
    assert(row(m, 0) == Seq(1, 3, 4))
    assert(row(m, 1).isEmpty)
  }

  test("empty matrix has zero nnz and empty rows") {
    val m = BoolCSR.fromPairs(4, 4, Seq.empty)
    assert(m.nnz == 0)
    (0 until 4).foreach(i => assert(row(m, i).isEmpty))
  }

  test("multiply: identity behaves as identity") {
    val id = BoolCSR.fromPairs(4, 4, (0 until 4).map(i => (i, i)))
    val m = BoolCSR.fromPairs(4, 4, Seq((0, 1), (1, 2), (3, 0)))
    assert(m.multiply(id).toPairs == m.toPairs)
    assert(id.multiply(m).toPairs == m.toPairs)
  }

  test("multiply: two-hop reachability") {
    val m = BoolCSR.fromPairs(3, 3, Seq((0, 1), (1, 2)))
    assert(m.multiply(m).toPairs.toSet == Set((0, 2)))
  }

  test("multiply: rectangular dimensions") {
    val a = BoolCSR.fromPairs(2, 3, Seq((0, 0), (1, 2)))
    val b = BoolCSR.fromPairs(3, 4, Seq((0, 3), (2, 1)))
    assert(a.multiply(b).toPairs.toSet == Set((0, 3), (1, 1)))
    assertThrows[IllegalArgumentException](b.multiply(a))
  }

  test("union merges rows and deduplicates") {
    val a = BoolCSR.fromPairs(2, 3, Seq((0, 0), (0, 2)))
    val b = BoolCSR.fromPairs(2, 3, Seq((0, 1), (0, 2), (1, 0)))
    assert(a.union(b).toPairs.toSet == Set((0, 0), (0, 1), (0, 2), (1, 0)))
  }

  test("equals/hashCode are structural") {
    val a = BoolCSR.fromPairs(2, 2, Seq((0, 1)))
    val b = BoolCSR.fromPairs(2, 2, Seq((0, 1)))
    assert(a == b && a.hashCode == b.hashCode)
    assert(a != BoolCSR.fromPairs(2, 2, Seq((1, 0))))
  }

  test("fromPairs rejects out-of-range cells") {
    assertThrows[IllegalArgumentException](BoolCSR.fromPairs(2, 2, Seq((2, 0))))
    assertThrows[IllegalArgumentException](BoolCSR.fromPairs(2, 2, Seq((0, -1))))
  }

  for (i <- 0 until 20) {
    test(s"property #$i: multiply matches set-algebra reference") {
      val rnd = new Random(400 + i)
      val n = 1 + rnd.nextInt(12)
      val m = 1 + rnd.nextInt(12)
      val k = 1 + rnd.nextInt(12)
      val ap = BoolRef.randomPairs(rnd, n, m, 0.3)
      val bp = BoolRef.randomPairs(rnd, m, k, 0.3)
      val got = BoolCSR.fromPairs(n, m, ap).multiply(BoolCSR.fromPairs(m, k, bp)).toPairs.toSet
      assert(got == BoolRef.multiply(m, ap, bp))
    }
  }

  for (i <- 0 until 10) {
    test(s"property #$i: union matches set union") {
      val rnd = new Random(500 + i)
      val n = 1 + rnd.nextInt(12)
      val m = 1 + rnd.nextInt(12)
      val ap = BoolRef.randomPairs(rnd, n, m, 0.3)
      val bp = BoolRef.randomPairs(rnd, n, m, 0.3)
      val got = BoolCSR.fromPairs(n, m, ap).union(BoolCSR.fromPairs(n, m, bp)).toPairs.toSet
      assert(got == (ap ++ bp))
    }
  }
}
