package repro.baseline

import scala.collection.mutable
import repro.cfg.{CnfGrammar, Grammar, N, T}
import repro.core.{CFPQEngine, CFPQResult, Relation}
import repro.graph.LabeledGraph

/** GLL-based context-free path querying — the paper's **GLL** comparator
  * (Grigorev & Ragozina [5], there in F# with SPPF construction; here in
  * Scala under relational semantics, i.e. reachability pairs only).
  *
  * Classic GLL generalized from strings to graphs: the input position of a
  * descriptor is a graph *node*; matching a terminal follows every
  * outgoing edge with that label (nondeterministic scan). The
  * graph-structured stack (GSS) has one node per (nonterminal, graph node)
  * call; popping a GSS node `(A, m)` at node `n` witnesses `(m, n) ∈ R_A`.
  *
  * Works on the *original* (arbitrary, ε-free or not) grammar — no CNF
  * needed, as in [5]. Every graph node is seeded as a start position for
  * the queried nonterminal, so `R_start` is complete; relations of other
  * nonterminals are only populated where reachable calls occurred, hence
  * [[relationalComplete]] = false.
  */
final class GllCFPQ(grammar: Grammar, start: String) extends CFPQEngine {
  override val name = "GLL"
  override val relationalComplete = false

  private val ntNames: Array[String] = grammar.nonterminals.toArray.sorted
  private val ntIdx: Map[String, Int] = ntNames.zipWithIndex.toMap
  require(ntIdx.contains(start), s"start $start is not a nonterminal of the grammar (${ntNames.mkString(", ")})")
  private val prods = grammar.productions.toIndexedSeq
  private val prodsByLhs: Map[String, Array[Int]] =
    prods.indices.groupBy(i => prods(i).lhs).map { case (l, is) => l -> is.toArray }

  def solve(graph: LabeledGraph, unusedCnf: CnfGrammar): CFPQResult = solve(graph)

  /** Run the query; returns relations for every nonterminal that was
    * called, complete only for `start`.
    */
  def solve(graph: LabeledGraph): CFPQResult = {
    val n = graph.numNodes
    def gssKey(nt: String, v: Int): Long = ntIdx(nt).toLong * n + v

    val gssEdges = mutable.Map.empty[Long, mutable.Set[(Int, Int, Long)]] // (retProd, retDot, caller)
    val popped   = mutable.Map.empty[Long, mutable.Set[Int]]
    val results  = mutable.Map.empty[String, mutable.ArrayBuilder.ofLong] // packed (m, v), each once
    val seen     = mutable.HashSet.empty[(Int, Int, Long, Int)] // (prod, dot, gss, node)
    val work     = mutable.ArrayDeque.empty[(Int, Int, Long, Int)]

    def addDesc(prod: Int, dot: Int, u: Long, v: Int): Unit = {
      val d = (prod, dot, u, v)
      if (seen.add(d)) work.append(d)
    }

    def pop(u: Long, v: Int): Unit = {
      val set = popped.getOrElseUpdate(u, mutable.Set.empty)
      if (set.add(v)) {
        val a = ntOf(u); val m = (u % n).toInt
        results.getOrElseUpdate(a, new mutable.ArrayBuilder.ofLong) += Relation.pack(m, v)
        gssEdges.get(u).foreach(_.foreach { case (rp, rd, w) => addDesc(rp, rd, w, v) })
      }
    }

    def ntOf(u: Long): String = ntNames((u / n).toInt)

    // Seed: every node is a potential path start for `start`.
    for (v <- 0 until n) {
      val u = gssKey(start, v)
      prodsByLhs.getOrElse(start, Array.empty).foreach(p => addDesc(p, 0, u, v))
    }

    while (work.nonEmpty) {
      val (prod, dot, u, v) = work.removeHead()
      val rhs = prods(prod).rhs
      if (dot == rhs.length) pop(u, v)
      else rhs(dot) match {
        case T(x) =>
          graph.outIndex(v).getOrElse(x, Array.emptyIntArray).foreach(v2 => addDesc(prod, dot + 1, u, v2))
        case N(b) =>
          val u2 = gssKey(b, v)
          val edges = gssEdges.getOrElseUpdate(u2, mutable.Set.empty)
          if (edges.add((prod, dot + 1, u))) {
            // The callee may already have completed at some nodes.
            popped.get(u2).foreach(_.toArray.foreach(z => addDesc(prod, dot + 1, u, z)))
          }
          prodsByLhs.getOrElse(b, Array.empty).foreach(p => addDesc(p, 0, u2, v))
      }
    }

    CFPQResult(results.view.mapValues(b => Relation(b.result())).toMap, iterations = 1)
  }
}
