package repro.linalg

import org.apache.spark.rdd.RDD
import repro.SparkSpec
import repro.cfg.CnfGrammar
import repro.linalg.BlockBoolMatrix._
import scala.util.Random

class BlockBoolMatrixSpec extends SparkSpec {

  private lazy val sc = spark.sparkContext

  private val selfRule = Seq(("A", "A", "A")) // A -> A A: plain Boolean square

  /** `tiles` placed by `block` over `parts` partitions, as a solve places `Δ₀ = T₀`. */
  private def place(tiles: Tiles, block: Key => Int, parts: Int = 3): RDD[(Key, BoolCSR)] =
    absorb(sc.parallelize(Seq.empty[(Key, BoolCSR)], parts), sc.broadcast(tiles), block)

  /** Global cells of an RDD of tiles; tiles sharing a key are unioned. */
  private def gather(t: RDD[(Key, BoolCSR)]): Map[String, Set[(Int, Int)]] =
    cells(Seq(t.collect().groupMapReduce(_._1)(_._2)(_ union _)))

  /** Row and column sides of one step over `t` (which holds `delta`), with
    * `t` placed both ways.
    */
  private def sides(bs: Int, t: Map[String, Seq[(Int, Int)]], delta: Map[String, Seq[(Int, Int)]],
                    rules: Seq[(String, String, String)]) = {
    val g = CnfGrammar(rules, Seq(("A", "a"))) // a CnfGrammar needs a terminal rule
    val d = sc.broadcast(tile(bs, delta))
    (gather(rowSide(place(tile(bs, t), rowOf), d, g.byFirst)),
      gather(colSide(place(tile(bs, t), colOf), d, g.bySecond)))
  }

  test("tile/cells round-trip across blocks") {
    val input = Map("A" -> Seq((0, 0), (0, 5), (5, 3), (7, 7)), "B" -> Seq((2, 6)))
    val tiles = tile(4, input)
    assert(tiles.keySet == Set(("A", 0, 0), ("A", 0, 1), ("A", 1, 0), ("A", 1, 1), ("B", 0, 1)))
    assert(cells(Seq(tiles)) == input.map { case (nt, ps) => nt -> ps.toSet })
    assert(gather(place(tiles, rowOf)) == cells(Seq(tiles)))
    assert(gather(place(tiles, colOf)) == cells(Seq(tiles)))
  }

  test("nnz counts cells across blocks and nonterminals") {
    val tiles = tile(4, Map("A" -> Seq((0, 0), (7, 7), (0, 0)), "B" -> Seq((1, 1))))
    assert(nnz(tiles) == 3) // duplicate deduped
    assert(place(tiles, rowOf).map(_._2.nnz.toLong).sum() == 3)
  }

  test("nnz of an empty dataset is zero") {
    val tiles = tile(4, Map.empty[String, Seq[(Int, Int)]])
    assert(tiles.isEmpty && nnz(tiles) == 0)
    assert(place(tiles, rowOf).count() == 0)
  }

  test("placement puts each tile on its block row or block column modulo the partition count") {
    val tiles = tile(2, Map("A" -> (0 until 12).flatMap(i => Seq((i, (i * 5) % 12), (i, 11 - i)))))
    for ((block, name) <- Seq[(Key => Int, String)]((rowOf, "row"), (colOf, "col"))) {
      val placed = place(tiles, block, parts = 4)
      assert(placed.getNumPartitions == 4, name)
      val where = placed.mapPartitionsWithIndex((p, it) => it.map { case (key, _) => (key, p) }).collect()
      assert(where.map(_._1).toSet == tiles.keySet, name)
      where.foreach { case (key, p) => assert(p == block(key) % 4, s"$name: $key on partition $p") }
    }
  }

  test("multiply: two-hop reachability within one block") {
    val t = Map("A" -> Seq((0, 1), (1, 2)))
    val (row, col) = sides(4, t, t, selfRule)
    assert(row == Map("A" -> Set((0, 2))))
    assert(col == Map("A" -> Set((0, 2))))
  }

  test("multiply: two-hop reachability across block boundary") {
    // (0,5) in block (0,1), (5,9) in block (1,2) with blockSize 4
    val t = Map("A" -> Seq((0, 5), (5, 9)))
    val (row, col) = sides(4, t, t, selfRule)
    assert(row == Map("A" -> Set((0, 9))))
    assert(col == Map("A" -> Set((0, 9))))
  }

  test("multiply with multiple rules routes products to the right lhs") {
    // S -> A B and X -> B A over distinct matrices.
    val t = Map("A" -> Seq((0, 1)), "B" -> Seq((1, 2)))
    val (row, col) = sides(4, t, t, Seq(("S", "A", "B"), ("X", "B", "A")))
    assert(row == Map("S" -> Set((0, 2)))) // B then A never connects here
    assert(col == row)
  }

  test("the sides take Δ on their own side only and subtract T") {
    // T_A = {(0,1), (1,2), (0,2), (2,3)}, Δ_A = {(2,3)}: T·Δ adds (1,3) and
    // (0,3); Δ·T adds nothing (row 3 of T is empty); (0,2) ∈ T·T is old.
    val t = Map("A" -> Seq((0, 1), (1, 2), (0, 2), (2, 3)))
    val (row, col) = sides(2, t, Map("A" -> Seq((2, 3))), selfRule)
    assert(row == Map("A" -> Set((1, 3), (0, 3))))
    assert(col.isEmpty)
  }

  test("union merges per-nonterminal matrices") {
    val a = place(tile(4, Map("A" -> Seq((0, 0)))), rowOf, parts = 2)
    val delta = tile(4, Map("A" -> Seq((0, 1), (7, 1)), "B" -> Seq((3, 3))))
    val merged = absorb(a, sc.broadcast(delta), rowOf)
    // T absorbs Δ where it lies: the partition count never changes.
    assert(merged.getNumPartitions == 2)
    assert(merged.collect().map(_._1).toSet == Set(("A", 0, 0), ("A", 1, 0), ("B", 0, 0))) // one tile per key
    assert(gather(merged) == Map("A" -> Set((0, 0), (0, 1), (7, 1)), "B" -> Set((3, 3))))
  }

  test("a side emits no tile when no cells connect") {
    // (0,1) and (2,3) share no middle node, so the one block pair's product
    // is empty; an emitted empty tile would show as an empty relation.
    val t = Map("A" -> Seq((0, 1), (2, 3)))
    assert(sides(4, t, t, selfRule) == (Map.empty, Map.empty))
  }

  for (i <- 0 until 8) {
    test(s"property #$i: distributed square matches BoolCSR square") {
      // S -> A B, A -> A A on random T ⊇ Δ: each side equals the local
      // masked product, and with Δ = T their union adds T·T ∖ T.
      val rnd = new Random(800 + i)
      val n = 4 + rnd.nextInt(14)
      val bs = Seq(1, 3, 4)(i % 3)
      val t = Seq("A", "B", "S").map(nt => nt -> BoolRef.randomPairs(rnd, n, n, 0.15).toSeq).toMap
      val delta = t.map { case (nt, ps) => nt -> ps.filter(_ => rnd.nextDouble() < 0.4) }
      val rules = Seq(("S", "A", "B"), ("A", "A", "A"))
      def csr(m: Map[String, Seq[(Int, Int)]], nt: String) = BoolCSR.fromPairs(n, n, m(nt))
      def local(terms: ((String, String)) => (BoolCSR, BoolCSR)) = rules.groupBy(_._1).map { case (a, rs) =>
        a -> BoolCSR.multiplyMasked(rs.map { case (_, b, c) => terms((b, c)) }, Some(csr(t, a))).toPairs.toSet
      }.filter(_._2.nonEmpty)
      val (row, col) = sides(bs, t, delta, rules)
      assert(row == local { case (b, c) => csr(t, b) -> csr(delta, c) }, s"n=$n bs=$bs")
      assert(col == local { case (b, c) => csr(delta, b) -> csr(t, c) }, s"n=$n bs=$bs")

      val (rowAll, colAll) = sides(bs, t, t, rules)
      val square = local { case (b, c) => csr(t, b) -> csr(t, c) }
      assert(rowAll == square && colAll == square, s"n=$n bs=$bs")
    }
  }
}
