package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import repro.cfg.CnfGrammar
import repro.core.Closure
import repro.core.SparkBlockCFPQ._
import scala.util.Random

/** SparkBlock's block Boolean matrix: tiles, their one placement and the
  * semi-naive step over it ([[repro.core.SparkBlockCFPQ]]'s companion).
  * `absorb` and `step` are plain functions of one partition's tile map, so
  * these tests run them over every partition `p` without Spark.
  */
class BlockBoolMatrixSpec extends AnyFunSuite with PropertyChecks {

  private val selfRule = Seq(("A", "A", "A")) // A -> A A: plain Boolean square

  /** `tiles` absorbed into empty tile maps of partitions `0 until parts`, as
    * a solve places `Δ₀ = T₀`: partition `p`'s map at index `p`.
    */
  private def place(tiles: Tiles, parts: Int = 3): Seq[Tiles] =
    (0 until parts).map(absorb(_, parts, Map.empty, tiles))

  /** Global cells of the partitions' tile maps; tiles sharing a key are unioned. */
  private def gather(t: Seq[Tiles]): Map[String, Set[(Int, Int)]] =
    cells(Seq(t.flatten.groupMapReduce(_._1)(_._2)(_ union _)))

  /** The partial tiles of one step over `t` (which holds `delta`), per partition. */
  private def steps(t: Seq[Tiles], delta: Tiles, g: CnfGrammar): Seq[Tiles] =
    t.indices.map(p => step(p, t.length, t(p), delta, g))

  /** The cells of one step over `t` (which holds `delta`) placed over `parts` partitions. */
  private def stepCells(bs: Int, t: Map[String, Seq[(Int, Int)]], delta: Map[String, Seq[(Int, Int)]],
                        rules: Seq[(String, String, String)], parts: Int): Map[String, Set[(Int, Int)]] = {
    val g = CnfGrammar(rules, Seq(("A", "a"))) // a CnfGrammar needs a terminal rule
    gather(steps(place(tile(bs, t), parts), tile(bs, delta), g))
  }

  test("tile/cells round-trip across blocks") {
    val input = Map("A" -> Seq((0, 0), (0, 5), (5, 3), (7, 7)), "B" -> Seq((2, 6)))
    val tiles = tile(4, input)
    assert(tiles.keySet == Set(("A", 0, 0), ("A", 0, 1), ("A", 1, 0), ("A", 1, 1), ("B", 0, 1)))
    assert(cells(Seq(tiles)) == input.map { case (nt, ps) => nt -> ps.toSet })
    for (parts <- 1 to 3) assert(gather(place(tiles, parts)) == cells(Seq(tiles)), s"P=$parts")
  }

  /** Total set cells of a tile map. */
  private def nnz(tiles: Tiles): Long = tiles.valuesIterator.map(_.nnz.toLong).sum

  test("nnz counts cells across blocks and nonterminals") {
    val tiles = tile(4, Map("A" -> Seq((0, 0), (7, 7), (0, 0)), "B" -> Seq((1, 1))))
    assert(nnz(tiles) == 3) // duplicate deduped
    // Every tile is on the diagonal (bi = bj), so each is placed once.
    assert(place(tiles, parts = 2).flatMap(_.values).map(_.nnz.toLong).sum == 3)
  }

  test("nnz of an empty dataset is zero") {
    val tiles = tile(4, Map.empty[String, Seq[(Int, Int)]])
    assert(tiles.isEmpty && nnz(tiles) == 0)
    assert(place(tiles).forall(_.isEmpty))
  }

  test("placement puts each tile on its block row or block column modulo the partition count") {
    val tiles = tile(2, Map("A" -> (0 until 12).flatMap(i => Seq((i, (i * 5) % 12), (i, 11 - i)))))
    for (parts <- 1 to 3) {
      val placed = place(tiles, parts)
      val where = for ((local, p) <- placed.zipWithIndex; (key, m) <- local) yield {
        assert(m == tiles(key), s"P=$parts: $key changed on partition $p")
        (key, p)
      }
      val byKey = where.groupMap(_._1)(_._2)
      assert(byKey.keySet == tiles.keySet, s"P=$parts")
      byKey.foreach { case (key @ (_, bi, bj), ps) =>
        assert(ps.toSet == Set(bi % parts, bj % parts), s"P=$parts: $key on partitions ${ps.mkString(",")}")
      }
    }
  }

  test("multiply: two-hop reachability within one block") {
    val t = Map("A" -> Seq((0, 1), (1, 2)))
    for (parts <- 1 to 3) assert(stepCells(4, t, t, selfRule, parts) == Map("A" -> Set((0, 2))), s"P=$parts")
  }

  test("multiply: two-hop reachability across block boundary") {
    // (0,5) in block (0,1), (5,9) in block (1,2) with blockSize 4
    val t = Map("A" -> Seq((0, 5), (5, 9)))
    for (parts <- 1 to 3) assert(stepCells(4, t, t, selfRule, parts) == Map("A" -> Set((0, 9))), s"P=$parts")
  }

  test("multiply with multiple rules routes products to the right lhs") {
    // S -> A B and X -> B A over distinct matrices.
    val t = Map("A" -> Seq((0, 1)), "B" -> Seq((1, 2)))
    for (parts <- 1 to 3) { // B then A never connects here
      assert(stepCells(4, t, t, Seq(("S", "A", "B"), ("X", "B", "A")), parts) == Map("S" -> Set((0, 2))), s"P=$parts")
    }
  }

  test("the sides take Δ on their own side only and subtract T") {
    // S -> A B over T_A = {(0,1)}, T_B = {(1,2)} in separate blocks: T_A·Δ_B
    // and Δ_A·T_B each find (0,2); with Δ empty, or (0,2) already in T_S,
    // the step adds nothing.
    val t = Map("A" -> Seq((0, 1)), "B" -> Seq((1, 2)), "S" -> Seq.empty[(Int, Int)])
    val rules = Seq(("S", "A", "B"))
    for (parts <- 1 to 3; (delta, name) <- Seq((Map("B" -> t("B")), "Δ_B"), (Map("A" -> t("A")), "Δ_A"))) {
      assert(stepCells(1, t, delta, rules, parts) == Map("S" -> Set((0, 2))), s"P=$parts, $name")
      assert(stepCells(1, t + ("S" -> Seq((0, 2))), delta, rules, parts).isEmpty, s"P=$parts, $name, (0,2) in T")
    }
    for (parts <- 1 to 3) assert(stepCells(1, t, Map.empty, rules, parts).isEmpty, s"P=$parts, Δ empty")
    // T_A = {(0,1), (1,2), (0,2), (2,3)}, Δ_A = {(2,3)}: T·Δ adds (1,3) and
    // (0,3); Δ·T adds nothing (row 3 of T is empty); (0,2) ∈ T·T is old.
    val square = Map("A" -> Seq((0, 1), (1, 2), (0, 2), (2, 3)))
    for (parts <- 1 to 3) {
      assert(stepCells(2, square, Map("A" -> Seq((2, 3))), selfRule, parts) == Map("A" -> Set((1, 3), (0, 3))))
    }
  }

  test("union merges per-nonterminal matrices") {
    val a = place(tile(4, Map("A" -> Seq((0, 0)))), parts = 2)
    val delta = tile(4, Map("A" -> Seq((0, 1), (7, 1)), "B" -> Seq((3, 3))))
    val merged = a.indices.map(p => absorb(p, 2, a(p), delta))
    // T absorbs Δ where it lies: A(0,0) and B(0,0) on partition 0, A(1,0)
    // on partitions 1 and 0.
    assert(merged.map(_.keys.toSeq.sorted) == Seq(Seq(("A", 0, 0), ("A", 1, 0), ("B", 0, 0)), Seq(("A", 1, 0))))
    assert(gather(merged) == Map("A" -> Set((0, 0), (0, 1), (7, 1)), "B" -> Set((3, 3))))
  }

  test("a side emits no tile when no cells connect") {
    // (0,1) and (2,3) share no middle node, so the one block pair's product
    // is empty; an emitted empty tile would show as an empty relation.
    val t = tile(4, Map("A" -> Seq((0, 1), (2, 3))))
    val g = CnfGrammar(selfRule, Seq(("A", "a")))
    for (parts <- 1 to 3) assert(steps(place(t, parts), t, g).forall(_.isEmpty), s"P=$parts")
  }

  for (i <- 0 until 8) {
    test(s"property #$i: distributed square matches BoolCSR square") {
      // S -> A B, A -> A A on random T ⊇ Δ: the step equals the local masked
      // semi-naive step, and with Δ = T it adds T·T ∖ T.
      val rnd = new Random(800 + i)
      val n = 4 + rnd.nextInt(14)
      val bs = Seq(1, 3, 4)(i % 3)
      val parts = 1 + rnd.nextInt(3)
      val t = Seq("A", "B", "S").map(nt => nt -> BoolRef.randomPairs(rnd, n, n, 0.15).toSeq).toMap
      val delta = t.map { case (nt, ps) => nt -> ps.filter(_ => rnd.nextDouble() < 0.4) }
      val rules = Seq(("S", "A", "B"), ("A", "A", "A"))
      def csr(m: Map[String, Seq[(Int, Int)]], nt: String) = BoolCSR.fromPairs(n, n, m(nt))
      def local(d: Map[String, Seq[(Int, Int)]]) = rules.groupBy(_._1).map { case (a, rs) =>
        val terms = rs.flatMap { case (_, b, c) => Seq(csr(t, b) -> csr(d, c), csr(d, b) -> csr(t, c)) }
        a -> BoolCSR.multiplyMasked(terms, Some(csr(t, a))).toPairs.toSet
      }.filter(_._2.nonEmpty)
      assert(stepCells(bs, t, delta, rules, parts) == local(delta), s"n=$n bs=$bs P=$parts")
      assert(stepCells(bs, t, t, rules, parts) == local(t), s"n=$n bs=$bs P=$parts, Δ = T")
    }
  }

  /** 2–3 nonterminals with random `A → BC` rules over them, random `T ⊇ Δ`
    * on at most 12 nodes, a block size of 1–3 and 1–3 partitions.
    */
  private val genStep = for {
    k <- Gen.choose(2, 3)
    nts = Seq("A", "B", "C").take(k)
    rules <- Gen.nonEmptyListOf(Gen.zip(Gen.oneOf(nts), Gen.oneOf(nts), Gen.oneOf(nts))).map(_.distinct)
    n <- Gen.choose(1, 12)
    density <- Gen.choose(0.05, 0.4)
    cells = Gen.listOfN(n * n, Gen.prob(density)).map(_.zipWithIndex.collect { case (true, c) => (c / n, c % n) })
    t <- Gen.listOfN(k, cells)
    delta <- Gen.sequence[List[Seq[(Int, Int)]], Seq[(Int, Int)]](t.map(Gen.someOf(_).map(_.toSeq)))
    bs <- Gen.choose(1, 3)
    parts <- Gen.choose(1, 3)
  } yield (rules, n, nts.zip(t).toMap, nts.zip(delta).toMap, bs, parts)

  test("generated tile step: the gathered step equals Closure.fresh over untiled BoolCSRs and holds no cell of T") {
    checkProperty(Prop.forAllNoShrink(genStep) { case (rules, n, t, delta, bs, parts) =>
      def csr(m: Map[String, Seq[(Int, Int)]]) = m.map { case (nt, ps) => nt -> BoolCSR.fromPairs(n, n, ps) }
      // SparseCSR's kernel over the whole matrices.
      val local = Closure.fresh(rules.groupBy(_._1), csr(t), csr(delta.filter(_._2.nonEmpty)))(
        (left, right, mask) => BoolCSR.multiplyMasked(left ++ right.map(r => r._1 -> r._2), Some(mask)), _.nnz.toLong)
      val expected = local.map { case (a, d, _) => a -> d.toPairs.toSet }.toMap
      val got = stepCells(bs, t, delta, rules, parts)
      val at = s"n=$n bs=$bs P=$parts rules=$rules"
      Prop(got == expected) :| s"$at: step $got, fresh $expected" &&
        Prop(got.forall { case (a, cs) => !cs.exists(t(a).contains) }) :| s"$at: a cell of T in $got"
    }, seed = 18L, successes = 500)
  }
}
