package repro.core

import scala.collection.immutable.{AbstractSet, HashSet}

/** One relation `R_A`: a `Set[(Int, Int)]` over a sorted, distinct array of
  * packed cells `(src << 32) | dst`, row-major since node ids are
  * non-negative. `contains` is a binary search. `equals` and `hashCode` are
  * every `Set`'s, so a `Relation` equals a `HashSet` of the same pairs and
  * hashes alike. Adding or removing a pair gives a copied `HashSet`.
  */
final class Relation private (private val cells: Array[Long]) extends AbstractSet[(Int, Int)] {
  override def knownSize: Int = cells.length // and so `size` and `isEmpty`
  def contains(p: (Int, Int)): Boolean = java.util.Arrays.binarySearch(cells, Relation.pack(p._1, p._2)) >= 0
  def iterator: Iterator[(Int, Int)] = cells.iterator.map(Relation.unpack)
  def incl(p: (Int, Int)): Set[(Int, Int)] = HashSet.from(this) + p
  def excl(p: (Int, Int)): Set[(Int, Int)] = HashSet.from(this) - p
}

object Relation {

  /** The most cells one relation holds: the longest `Array[Long]` a JVM allocates. */
  val MaxCells: Int = Int.MaxValue - 8

  def pack(src: Int, dst: Int): Long = (src.toLong << 32) | dst
  def unpack(cell: Long): (Int, Int) = ((cell >>> 32).toInt, cell.toInt)

  /** Fails, naming relation `name`, when one array cannot hold its `count` cells; checked before allocating. */
  def requireFits(name: String, count: Long): Unit =
    require(count <= MaxCells, s"relation $name has $count cells, more than one array holds ($MaxCells)")

  /** Over cells that are already sorted and distinct; the array is not copied. */
  def sorted(cells: Array[Long]): Relation = new Relation(cells)

  /** Over cells in any order, duplicates allowed; sorts `cells` in place. */
  def apply(cells: Array[Long]): Relation = {
    java.util.Arrays.sort(cells)
    val distinct = cells.indices.count(i => i == 0 || cells(i) != cells(i - 1))
    new Relation(if (distinct == cells.length) cells else cells.distinct)
  }
}
