package repro.linalg

import org.apache.spark.sql.Dataset
import repro.SparkSpec
import repro.core.Materialize
import scala.util.Random

class BlockBoolMatrixSpec extends SparkSpec {

  private val selfRule = Seq(("A", "A", "A")) // A -> A A: plain Boolean square

  /** The full product: partial products coalesced per block. */
  private def multiply(t: Dataset[Block], rules: Seq[(String, String, String)],
                       blockSize: Int): Dataset[Block] =
    BlockBoolMatrix.coalesceBlocks(BlockBoolMatrix.multiplyPartials(spark, t, rules, blockSize))

  /** Total set cells, as the closure loop counts them. */
  private def nnz(t: Dataset[Block]): Long = {
    val pinned = Materialize(t)(_.nnz.toLong)
    pinned.release()
    pinned.count
  }

  test("fromPairs/collectPairs round-trip across blocks") {
    val cells = Map("A" -> Seq((0, 0), (0, 5), (5, 3), (7, 7)), "B" -> Seq((2, 6)))
    val ds = BlockBoolMatrix.fromPairs(spark, 8, 4, cells)
    val back = BlockBoolMatrix.collectPairs(ds, 4)
    assert(back("A") == cells("A").toSet)
    assert(back("B") == cells("B").toSet)
  }

  test("nnz counts cells across blocks and nonterminals") {
    val ds = BlockBoolMatrix.fromPairs(spark, 8, 4,
      Map("A" -> Seq((0, 0), (7, 7), (0, 0)), "B" -> Seq((1, 1))))
    assert(nnz(ds) == 3) // duplicate deduped
  }

  test("nnz of an empty dataset is zero") {
    val ds = BlockBoolMatrix.fromPairs(spark, 8, 4, Map.empty[String, Seq[(Int, Int)]])
    assert(nnz(ds) == 0)
  }

  test("multiply: two-hop reachability within one block") {
    val ds = BlockBoolMatrix.fromPairs(spark, 4, 4, Map("A" -> Seq((0, 1), (1, 2))))
    val p = multiply(ds, selfRule, 4)
    assert(BlockBoolMatrix.collectPairs(p, 4).getOrElse("A", Set.empty) == Set((0, 2)))
  }

  test("multiply: two-hop reachability across block boundary") {
    // (0,5) in block (0,1), (5,9) in block (1,2) with blockSize 4
    val ds = BlockBoolMatrix.fromPairs(spark, 12, 4, Map("A" -> Seq((0, 5), (5, 9))))
    val p = multiply(ds, selfRule, 4)
    assert(BlockBoolMatrix.collectPairs(p, 4).getOrElse("A", Set.empty) == Set((0, 9)))
  }

  test("multiply with multiple rules routes products to the right lhs") {
    // S -> A B and X -> B A over distinct matrices.
    val ds = BlockBoolMatrix.fromPairs(spark, 4, 4,
      Map("A" -> Seq((0, 1)), "B" -> Seq((1, 2))))
    val p = multiply(ds, Seq(("S", "A", "B"), ("X", "B", "A")), 4)
    val got = BlockBoolMatrix.collectPairs(p, 4)
    assert(got.getOrElse("S", Set.empty) == Set((0, 2)))
    assert(got.get("X").forall(_.isEmpty)) // B then A never connects here
  }

  test("union merges per-nonterminal matrices") {
    val a = BlockBoolMatrix.fromPairs(spark, 8, 4, Map("A" -> Seq((0, 0))))
    val b = BlockBoolMatrix.fromPairs(spark, 8, 4, Map("A" -> Seq((0, 0), (7, 1)), "B" -> Seq((3, 3))))
    val u = BlockBoolMatrix.collectPairs(BlockBoolMatrix.coalesceBlocks(a.union(b)), 4)
    assert(u("A") == Set((0, 0), (7, 1)))
    assert(u("B") == Set((3, 3)))
  }

  test("unionLocal merges two sorted blocks, deduplicating overlaps") {
    // Blocks are sorted lexicographically by (row, col) — an invariant of
    // fromPairs and multiplyLocal that unionLocal's linear merge relies on.
    val a = Block("A", 0, 0, Array(0, 1), Array(0, 1))
    val b = Block("A", 0, 0, Array(0, 1, 2), Array(0, 2, 3))
    val u = BlockBoolMatrix.unionLocal(a, b)
    assert(u.rows.toSeq == Seq(0, 1, 1, 2))
    assert(u.cols.toSeq == Seq(0, 1, 2, 3))
  }

  test("unionLocal with an empty side returns the other side's cells") {
    val a = Block("A", 0, 0, Array.emptyIntArray, Array.emptyIntArray)
    val b = Block("A", 0, 0, Array(1), Array(2))
    assert(BlockBoolMatrix.unionLocal(a, b).rows.toSeq == Seq(1))
    assert(BlockBoolMatrix.unionLocal(b, a).cols.toSeq == Seq(2))
  }

  test("multiplyLocal returns None for empty products") {
    assert(BlockBoolMatrix.multiplyLocal("A", 0, 0,
      Array(0), Array(1), Array(2), Array(3), 4).isEmpty)
  }

  for (i <- 0 until 8) {
    test(s"property #$i: distributed square matches BoolCSR square") {
      val rnd = new Random(800 + i)
      val n = 4 + rnd.nextInt(40)
      val bs = Seq(2, 4, 8, 16)(rnd.nextInt(4))
      val pairs = BoolRef.randomPairs(rnd, n, n, 0.12)
      val ds = BlockBoolMatrix.fromPairs(spark, n, bs, Map("A" -> pairs.toSeq))
      val got = BlockBoolMatrix.collectPairs(
        multiply(ds, selfRule, bs), bs
      ).getOrElse("A", Set.empty)
      val csr = BoolCSR.fromPairs(n, n, pairs)
      assert(got == csr.multiply(csr).toPairs.toSet)
    }
  }
}
