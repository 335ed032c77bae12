package repro.linalg

import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.cfg.CnfGrammar
import repro.core.Materialize
import repro.linalg.BlockBoolMatrix.Key
import scala.util.Random

class BlockBoolMatrixSpec extends SparkSpec {

  private lazy val sc = spark.sparkContext

  private val selfRule = Seq(("A", "A", "A")) // A -> A A: plain Boolean square

  /** The rules as `multiplyPartials` takes them (the terminal rule is only
    * there because a `CnfGrammar` needs one).
    */
  private def byFirst(rules: Seq[(String, String, String)]) = CnfGrammar(rules, Seq(("A", "a"))).byFirst

  /** The full product: partial products coalesced per block. */
  private def multiply(t: RDD[(Key, BoolCSR)], rules: Seq[(String, String, String)]): RDD[(Key, BoolCSR)] =
    BlockBoolMatrix.coalesceBlocks(BlockBoolMatrix.multiplyPartials(t, byFirst(rules)))

  /** Total set cells, as the closure loop counts them. */
  private def nnz(t: RDD[(Key, BoolCSR)]): Long = {
    val pinned = Materialize(t)(_._2.nnz.toLong)
    pinned.release()
    pinned.count
  }

  test("fromPairs/collectPairs round-trip across blocks") {
    val cells = Map("A" -> Seq((0, 0), (0, 5), (5, 3), (7, 7)), "B" -> Seq((2, 6)))
    val ds = BlockBoolMatrix.fromPairs(sc, 4, cells)
    val back = BlockBoolMatrix.collectPairs(ds)
    assert(back("A") == cells("A").toSet)
    assert(back("B") == cells("B").toSet)
  }

  test("nnz counts cells across blocks and nonterminals") {
    val ds = BlockBoolMatrix.fromPairs(sc, 4,
      Map("A" -> Seq((0, 0), (7, 7), (0, 0)), "B" -> Seq((1, 1))))
    assert(nnz(ds) == 3) // duplicate deduped
  }

  test("nnz of an empty dataset is zero") {
    val ds = BlockBoolMatrix.fromPairs(sc, 4, Map.empty[String, Seq[(Int, Int)]])
    assert(nnz(ds) == 0)
  }

  test("multiply: two-hop reachability within one block") {
    val ds = BlockBoolMatrix.fromPairs(sc, 4, Map("A" -> Seq((0, 1), (1, 2))))
    val p = multiply(ds, selfRule)
    assert(BlockBoolMatrix.collectPairs(p).getOrElse("A", Set.empty) == Set((0, 2)))
  }

  test("multiply: two-hop reachability across block boundary") {
    // (0,5) in block (0,1), (5,9) in block (1,2) with blockSize 4
    val ds = BlockBoolMatrix.fromPairs(sc, 4, Map("A" -> Seq((0, 5), (5, 9))))
    val p = multiply(ds, selfRule)
    assert(BlockBoolMatrix.collectPairs(p).getOrElse("A", Set.empty) == Set((0, 9)))
  }

  test("multiply with multiple rules routes products to the right lhs") {
    // S -> A B and X -> B A over distinct matrices.
    val ds = BlockBoolMatrix.fromPairs(sc, 4,
      Map("A" -> Seq((0, 1)), "B" -> Seq((1, 2))))
    val p = multiply(ds, Seq(("S", "A", "B"), ("X", "B", "A")))
    val got = BlockBoolMatrix.collectPairs(p)
    assert(got.getOrElse("S", Set.empty) == Set((0, 2)))
    assert(!got.contains("X")) // B then A never connects here
  }

  test("union merges per-nonterminal matrices") {
    val a = BlockBoolMatrix.fromPairs(sc, 4, Map("A" -> Seq((0, 0))))
    val b = BlockBoolMatrix.fromPairs(sc, 4, Map("A" -> Seq((0, 0), (7, 1)), "B" -> Seq((3, 3))))
    val merged = BlockBoolMatrix.coalesceBlocks(a.union(b))
    // A fixed partition count: a closure step coalesces T (hash-partitioned)
    // with its products (not partitioned), and the RDD union of the two adds
    // up their partition counts, which must not grow step by step.
    assert(merged.getNumPartitions == sc.defaultParallelism)
    assert(BlockBoolMatrix.coalesceBlocks(merged.union(b)).getNumPartitions == sc.defaultParallelism)
    val u = BlockBoolMatrix.collectPairs(merged)
    assert(u("A") == Set((0, 0), (7, 1)))
    assert(u("B") == Set((3, 3)))
  }

  test("multiplyPartials emits no block when no cells connect") {
    // (0,1) and (2,3) share no middle node, so the one block pair's product is empty.
    val ds = BlockBoolMatrix.fromPairs(sc, 4, Map("A" -> Seq((0, 1), (2, 3))))
    assert(BlockBoolMatrix.multiplyPartials(ds, byFirst(selfRule)).count() == 0)
  }

  for (i <- 0 until 8) {
    test(s"property #$i: distributed square matches BoolCSR square") {
      val rnd = new Random(800 + i)
      val n = 4 + rnd.nextInt(40)
      val bs = Seq(2, 4, 8, 16)(rnd.nextInt(4))
      val pairs = BoolRef.randomPairs(rnd, n, n, 0.12)
      val ds = BlockBoolMatrix.fromPairs(sc, bs, Map("A" -> pairs.toSeq))
      val got = BlockBoolMatrix.collectPairs(
        multiply(ds, selfRule)
      ).getOrElse("A", Set.empty)
      val csr = BoolCSR.fromPairs(n, n, pairs)
      assert(got == csr.multiply(csr).toPairs.toSet)
    }
  }
}
