package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import scala.util.Random

/** Reference semantics for the sparse kernels: plain set-of-pairs algebra. */
object BoolRef {
  def multiply(n: Int, a: Set[(Int, Int)], b: Set[(Int, Int)]): Set[(Int, Int)] = {
    val bRows = b.groupMap(_._1)(_._2) // the join on k, without trying every pair of cells
    for { (i, k) <- a; j <- bRows.getOrElse(k, Set.empty) } yield (i, j)
  }

  def randomPairs(rnd: Random, rows: Int, cols: Int, density: Double): Set[(Int, Int)] =
    (for {
      i <- 0 until rows; j <- 0 until cols
      if rnd.nextDouble() < density
    } yield (i, j)).toSet
}

class BoolCSRSpec extends AnyFunSuite with PropertyChecks {
  import BoolCSRSpec._

  test("fromPairs/toPairs round-trip with duplicates and unordered input") {
    val m = BoolCSR.fromPairs(3, 4, Seq((2, 1), (0, 3), (2, 1), (0, 0)))
    assert(m.toPairs.toSet == Set((2, 1), (0, 3), (0, 0)))
    assert(m.nnz == 3)
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

  test("multiplyMasked sums the terms' products and leaves out the mask's cells") {
    val a = BoolCSR.fromPairs(3, 3, Seq((0, 1), (2, 2)))
    val b = BoolCSR.fromPairs(3, 4, Seq((1, 0), (1, 3), (2, 1)))
    val c = BoolCSR.fromPairs(3, 2, Seq((0, 0)))
    val d = BoolCSR.fromPairs(2, 4, Seq((0, 2), (0, 3)))
    val mask = BoolCSR.fromPairs(3, 4, Seq((0, 3), (2, 1)))
    val got = BoolCSR.multiplyMasked(Seq(a -> b, c -> d), Some(mask))
    assert(got.toPairs == Vector((0, 0), (0, 2)))
    assert(row(got, 1).isEmpty && row(got, 2).isEmpty)
    assert(BoolCSR.multiplyMasked(Seq(a -> b, c -> d), None).toPairs == Vector((0, 0), (0, 2), (0, 3), (2, 1)))
    assertThrows[IllegalArgumentException](BoolCSR.multiplyMasked(Seq(a -> d), None))
    assertThrows[IllegalArgumentException](BoolCSR.multiplyMasked(Seq(a -> b), Some(a)))
  }

  test("union merges rows and deduplicates") {
    val a = BoolCSR.fromPairs(2, 3, Seq((0, 0), (0, 2)))
    val b = BoolCSR.fromPairs(2, 3, Seq((0, 1), (0, 2), (1, 0)))
    assert(a.union(b).toPairs.toSet == Set((0, 0), (0, 1), (0, 2), (1, 0)))
  }

  test("union at the ends of the runs of rows that `that` leaves empty") {
    val (rows, cols) = (9, 70)
    val full = (0 until rows).flatMap(i => Seq((i, i), (i, 64 + i % 6))).toSet // a cell or two in every row
    val gaps = full.filter(c => c._1 % 3 != 1) // rows 1, 4 and 7 empty
    def union(a: Set[(Int, Int)], b: Set[(Int, Int)]) = BoolCSR.fromPairs(rows, cols, a).union(BoolCSR.fromPairs(rows, cols, b))
    val cases = Seq(
      "that empty" -> Set.empty[(Int, Int)],
      "first row only" -> Set((0, 5)),
      "last row only" -> Set((rows - 1, 69)),
      "first and last rows" -> Set((0, 69), (rows - 1, 0)),
      "alternating with runs" -> Set((1, 0), (2, 3), (2, 66), (5, 69), (7, 7)),
      "every row" -> (0 until rows).map(i => (i, 40)).toSet,
      "overlapping" -> (full.filter(_._1 % 2 == 0) ++ Set((2, 30), (8, 1))),
    )
    for (a <- Seq(full, gaps, Set.empty[(Int, Int)]); (what, b) <- cases) {
      val expected = BoolCSR.fromPairs(rows, cols, a ++ b) // structurally: same rowPtr and colIdx, no duplicate kept
      assert(union(a, b) == expected, s"$what, ${a.size} cells on the left")
      assert(union(b, a) == expected, s"$what, swapped, ${a.size} cells on the right")
    }
    // SparkBlock's driver unions two partitions' copies of the same tile.
    assert(union(full, full) == BoolCSR.fromPairs(rows, cols, full) && union(gaps, gaps).nnz == gaps.size)
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

  test("fromPairs builds exactly the CSR arrays of its distinct cells (generated: duplicates, unordered, empty rows, >64 columns)") {
    checkProperty(Prop.forAllNoShrink(genUnionCase) { c =>
      val m = BoolCSR.fromPairs(c.rows, c.cols, c.aInput)
      val (rowPtr, colIdx) = arrays(c.rows, c.a)
      Prop(m.rowPtr.toSeq == rowPtr) :| "rowPtr" && Prop(m.colIdx.toSeq == colIdx) :| "colIdx" &&
        Prop(m.numRows == c.rows && m.numCols == c.cols) :| "shape"
    }, seed = 1978L)
  }

  test("union equals the matrix of the set union, structurally (generated: disjoint, overlapping and one-sided rows)") {
    checkProperty(Prop.forAllNoShrink(genUnionCase) { c =>
      val a = BoolCSR.fromPairs(c.rows, c.cols, c.aInput)
      val b = BoolCSR.fromPairs(c.rows, c.cols, c.bInput)
      val expected = BoolCSR.fromPairs(c.rows, c.cols, c.a ++ c.b)
      Prop(a.union(b) == expected) :| "a ∪ b" && Prop(b.union(a) == expected) :| "b ∪ a" &&
        Prop(a.union(a) == a) :| "a ∪ a"
    }, seed = 2019L)
  }
}

object BoolCSRSpec {

  /** The CSR arrays of `cells`, built directly from the sorted set. */
  def arrays(rows: Int, cells: Set[(Int, Int)]): (Seq[Int], Seq[Int]) = {
    val sorted = cells.toSeq.sorted
    ((0 to rows).map(i => sorted.count(_._1 < i)), sorted.map(_._2))
  }

  /** Two operands as cell sets and as the input lists `fromPairs` gets. */
  final case class UnionCase(rows: Int, cols: Int, a: Set[(Int, Int)], b: Set[(Int, Int)],
                             aInput: Seq[(Int, Int)], bInput: Seq[(Int, Int)])

  /** Cells at a random density; some rows are left empty on purpose. */
  private def genCells(rows: Int, cols: Int): Gen[Set[(Int, Int)]] = for {
    density <- Gen.oneOf(0.0, 0.02, 0.1, 0.4)
    emptyRows <- Gen.containerOf[Set, Int](Gen.choose(0, rows - 1))
    seed <- Gen.long
  } yield BoolRef.randomPairs(new Random(seed), rows, cols, density).filterNot(c => emptyRows(c._1))

  /** Each cell one to three times, in random order. */
  private def input(cells: Set[(Int, Int)], seed: Long): Seq[(Int, Int)] = {
    val rnd = new Random(seed)
    rnd.shuffle(cells.toSeq.flatMap(c => Seq.fill(1 + rnd.nextInt(3))(c)))
  }

  val genUnionCase: Gen[UnionCase] = for {
    rows <- Gen.choose(1, 24)
    cols <- Gen.frequency(1 -> Gen.choose(1, 64), 2 -> Gen.choose(65, 140))
    a <- genCells(rows, cols)
    other <- genCells(rows, cols)
    kind <- Gen.choose(0, 2)
    seed <- Gen.long
  } yield {
    // Disjoint (the closure's T_A ∪ Δ'_A), overlapping (SparkBlock's duplicate tiles),
    // or only on rows `a` leaves empty, so that every row has cells on one side at most.
    val b = kind match {
      case 0 => other -- a
      case 1 => other ++ a.filter(c => (c._1 + c._2) % 2 == 0)
      case _ => other.filterNot(c => a.exists(_._1 == c._1))
    }
    UnionCase(rows, cols, a, b, input(a, seed), input(b, ~seed))
  }
}
