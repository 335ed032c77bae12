package repro.graph

/** An edge-labeled directed graph `D = (V, E)` with `V = {0 … numNodes-1}`
  * and `E ⊆ V × Σ × V` (paper §2).
  *
  * @param numNodes number of nodes (node ids are dense, 0-based)
  * @param edges    directed labeled edges (src, label, dst)
  */
final case class LabeledGraph(numNodes: Int, edges: Vector[(Int, String, Int)]) {
  require(numNodes >= 0)
  for ((s, l, d) <- edges)
    require(0 <= s && s < numNodes && 0 <= d && d < numNodes,
      s"edge ($s, $l, $d) has a node id outside 0 until $numNodes")

  /** Out-edge index: node → label → destination nodes (deduplicated).
    * Built lazily; used by the GLL baseline and the brute-force oracle.
    */
  lazy val outIndex: Array[Map[String, Array[Int]]] = {
    val m = Array.fill(numNodes)(Map.empty[String, Array[Int]])
    edges.groupBy(_._1).foreach { case (src, es) =>
      m(src) = es.groupBy(_._2).map { case (l, g) => l -> g.map(_._3).distinct.toArray }
    }
    m
  }

  /** Edges grouped by label as deduplicated (src, dst) pairs. */
  lazy val byLabel: Map[String, Vector[(Int, Int)]] =
    edges.groupBy(_._2).map { case (l, es) => l -> es.map(e => (e._1, e._3)).distinct }

  /** The paper's RDF conversion: for every triple/edge `(s, p, o)` also add
    * the inverse edge `(o, p⁻¹, s)`, labeled `p + "_r"`.
    */
  def withInverses(): LabeledGraph =
    copy(edges = edges ++ edges.map { case (s, p, o) => (o, p + "_r", s) })

  /** `k` disjoint copies of this graph — the paper's "simple repeating"
    * used to build the synthetic graphs g1, g2, g3.
    */
  def repeat(k: Int): LabeledGraph = {
    require(k >= 1)
    val copies = (0 until k).flatMap { c =>
      val off = c * numNodes
      edges.map { case (s, p, o) => (s + off, p, o + off) }
    }
    LabeledGraph(numNodes * k, copies.toVector)
  }
}

object LabeledGraph {

  /** Build from triples, inferring `numNodes` as 1 + max node id. */
  def apply(edges: Seq[(Int, String, Int)]): LabeledGraph = {
    val n = if (edges.isEmpty) 0
            else edges.iterator.flatMap(e => Iterator(e._1, e._3)).max + 1
    LabeledGraph(n, edges.toVector)
  }

  /** The 3-node input graph of the paper's worked example (§4.3, Fig. 5),
    * reconstructed from the initial matrix T₀ (Fig. 6):
    *
    *   T₀[0][0]={S1}  → edge (0, subClassOf⁻¹, 0)
    *   T₀[0][1]={S3}  → edge (0, type⁻¹, 1)
    *   T₀[1][2]={S3}  → edge (1, type⁻¹, 2)
    *   T₀[2][0]={S2}  → edge (2, subClassOf, 0)
    *   T₀[2][2]={S4}  → edge (2, type, 2)
    */
  val paperExample: LabeledGraph = LabeledGraph(
    3,
    Vector(
      (0, "subClassOf_r", 0),
      (0, "type_r", 1),
      (1, "type_r", 2),
      (2, "subClassOf", 0),
      (2, "type", 2),
    ),
  )
}
