package cfpqbench

import repro.core.CFPQResult
import repro.graph.LabeledGraph

/** A seeded renaming of node ids: `perm(v)` is the new id of node `v`.
  *
  * The benchmark's `--seed` picks the renaming, so every seed gives a
  * different input graph that is isomorphic to the dataset's own graph.
  * The query answer is then known at every seed (the renamed answer of
  * the dataset graph), and the work an engine has to do stays the same
  * from seed to seed, so run-to-run spread measures the engines and not
  * the generator.
  */
final case class Relabel(perm: Array[Int]) {
  def graph(g: LabeledGraph): LabeledGraph = {
    require(perm.length == g.numNodes, s"permutation of ${perm.length} nodes for a graph of ${g.numNodes}")
    g.copy(edges = g.edges.map { case (s, l, d) => (perm(s), l, perm(d)) })
  }

  def result(r: CFPQResult): CFPQResult =
    r.copy(relations = r.relations.map { case (nt, rel) => nt -> rel.map { case (s, d) => (perm(s), perm(d)) } })
}

object Relabel {
  def identity(n: Int): Relabel = Relabel(Array.range(0, n))

  /** A uniformly random permutation of `0 until n` (Fisher–Yates). */
  def seeded(n: Int, seed: Long): Relabel = {
    val p = Array.range(0, n)
    val rnd = new java.util.Random(seed)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = p(i); p(i) = p(j); p(j) = t
      i -= 1
    }
    Relabel(p)
  }
}
