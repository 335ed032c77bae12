package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BitMatrix

/** Algorithm 1 over *dense* Boolean matrices — the paper's **dGPU**
  * analog (row-major dense representation; CUBLAS on a GTX 1070 in the
  * paper, 64-way bit-parallel CPU words here). Unions are OR-ed in place,
  * so a closure step copies no matrix.
  *
  * Dense multiply is Θ(n³/64) per nonterminal pair regardless of sparsity,
  * so this engine degrades sharply with graph size — the reproduction of
  * the paper's observation that dGPU had to be omitted on g1–g3.
  */
object DenseCFPQ extends LocalMatrixCFPQ[BitMatrix] {
  override val name = "Dense"

  /** Fails fast, before allocating, when the closure's matrices cannot fit
    * in the heap: one `T` per nonterminal and, during a step, the old and
    * the new `Δ` of every left-hand side, n²/8 bytes each.
    */
  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val n = math.max(graph.numNodes, 1).toLong
    val matrices = grammar.nonterminals.size + 2 * grammar.binary.map(_._1).distinct.size
    val bytes = BigInt(matrices) * n * ((n + 63) / 64) * 8
    val heap = Runtime.getRuntime.maxMemory
    require(bytes <= heap,
      s"Dense closure over $n nodes needs $bytes bytes ($matrices matrices of ${n}x$n bits), more than the $heap-byte heap")
    super.solve(graph, grammar)
  }

  protected def fromPairs(n: Int, pairs: Seq[(Int, Int)]): BitMatrix = BitMatrix.fromPairs(n, pairs)
  protected def multiplyMasked(terms: Seq[(BitMatrix, BitMatrix)], mask: BitMatrix): BitMatrix =
    BitMatrix.multiplyMasked(terms, Some(mask))
  protected def union(a: BitMatrix, b: BitMatrix): BitMatrix = { a.orInPlace(b); a }
  protected def cells(m: BitMatrix): Long = m.cardinality
  protected def toPacked(m: BitMatrix): Array[Long] = m.toPacked
}
