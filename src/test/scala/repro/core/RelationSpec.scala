package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.HashSet

class RelationSpec extends AnyFunSuite {

  private val big = Int.MaxValue - 1
  private val pairs = Seq((0, 0), (0, big), (1, 5), (big, 0), (big, big))
  private def rel(ps: (Int, Int)*): Relation = Relation(ps.map { case (s, d) => Relation.pack(s, d) }.toArray)

  test("contains, iterator order and size, node ids 0 and Int.MaxValue - 1 included") {
    val r = rel(pairs.reverse: _*)
    assert(r.size == 5 && r.knownSize == 5 && !r.isEmpty)
    assert(r.iterator.toSeq == pairs) // row-major ascending, whatever the input order
    pairs.foreach(p => assert(r.contains(p), p))
    for (p <- Seq((0, 1), (1, 0), (big, 1), (1, big), (5, 1), (big - 1, big))) assert(!r.contains(p), p)
    assert(pairs.map { case (s, d) => Relation.unpack(Relation.pack(s, d)) } == pairs)
  }

  test("the sorting factory drops duplicates; the sorted one keeps its array") {
    val r = rel((3, 1), (0, 2), (3, 1), (0, 2), (0, 1))
    assert(r.iterator.toSeq == Seq((0, 1), (0, 2), (3, 1)))
    assert(Relation.sorted(Array(Relation.pack(0, 1), Relation.pack(2, 0))).iterator.toSeq == Seq((0, 1), (2, 0)))
    assert(rel().isEmpty && rel().size == 0 && rel().iterator.isEmpty)
  }

  test("equals and hashCode agree with a HashSet of the same cells, in both directions") {
    val r = rel(pairs: _*)
    val same = HashSet.from(pairs)
    assert(r == same && same == r)
    assert(r.hashCode == same.hashCode)
    assert(r == rel(pairs.reverse: _*) && r.hashCode == rel(pairs.reverse: _*).hashCode)
    for (other <- Seq(same - ((1, 5)), same + ((1, 6)), same - ((1, 5)) + ((5, 1)))) {
      assert(r != other && other != r, other)
      assert(r != Relation(other.toArray.map { case (s, d) => Relation.pack(s, d) }), other)
    }
    assert(rel() == Set.empty[(Int, Int)] && Set.empty[(Int, Int)] == rel())
  }

  test("adding or removing a cell gives a plain Set and leaves the relation as it was") {
    val r = rel((0, 1), (2, 3))
    assert(r + ((1, 1)) == Set((0, 1), (1, 1), (2, 3)))
    assert(r - ((0, 1)) == Set((2, 3)))
    assert(r.map { case (s, d) => (d, s) } == Set((1, 0), (3, 2)))
    assert(r == Set((0, 1), (2, 3)))
  }

  test("CFPQResult drops an empty relation and compares by content") {
    val r = CFPQResult(Map("S" -> rel((0, 1)), "T" -> rel()), 2)
    assert(r.relations.keySet == Set("S"))
    assert(r == CFPQResult(Map("S" -> Set((0, 1))), 2))
  }

  test("a relation that one array cannot hold fails fast, naming it and its count") {
    Relation.requireFits("S", Relation.MaxCells.toLong)
    val e = intercept[IllegalArgumentException](Relation.requireFits("S", 3000000000L))
    assert(e.getMessage.contains("relation S has 3000000000 cells"))
    assert(e.getMessage.contains(s"more than one array holds (${Relation.MaxCells})"))
  }
}
