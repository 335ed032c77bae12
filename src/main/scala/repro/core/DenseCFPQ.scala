package repro.core

import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BitMatrix
import repro.linalg.BitMatrix.Delta

/** Algorithm 1 over *dense* Boolean matrices — the paper's **dGPU**
  * analog (row-major dense representation; CUBLAS on a GTX 1070 in the
  * paper, 64-way bit-parallel CPU words here).
  *
  * Each `T_A` is a dense [[BitMatrix]] of n²/8 bytes, so memory grows as n²
  * whatever the sparsity — the reproduction of the paper's observation
  * that dGPU had to be omitted on g1–g3. A closure step only touches `Δ`:
  * `Δ` and `Δ'` are [[BitMatrix.Delta]]s that hold each non-empty row as
  * words or as columns, [[BitMatrix.multiplyMasked]] ORs row k of `T_C` into a
  * one-row accumulator per cell k of `Δ_B`'s row and of `T_B`'s row where row k
  * of `Δ_C` holds cells (64 cells per word operation; see [[Closure.fresh]]),
  * and `T_A ∪ Δ'_A` writes only `Δ'_A`'s rows. A step allocates no n×n matrix.
  * `T₀` is set cell by cell and `Δ₀` copied from it. Each `T` of more
  * than 32 words per row keeps a bitmap of every row's non-zero words, so
  * that a wide row holding a few cells costs the kernel the words it holds.
  */
object DenseCFPQ extends LocalMatrixCFPQ[BitMatrix, Delta] {
  override val name = "Dense"

  /** Fails fast, before allocating, when the closure's matrices cannot fit
    * in the heap: one `T` per nonterminal, n²/8 bytes each plus, in a
    * matrix of more than 32 words per row, its index of ⌈n/4096⌉ longs per
    * row (`Δ` and `Δ'` take space in proportion to their cells).
    */
  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val n = math.max(graph.numNodes, 1)
    val matrices = grammar.nonterminals.size
    val bytes = BigInt(matrices) * BitMatrix.longs(n) * 8
    val heap = Runtime.getRuntime.maxMemory
    require(bytes <= heap,
      s"Dense closure over $n nodes needs $bytes bytes ($matrices matrices of ${n}x$n bits and their word indexes), " +
        s"more than the $heap-byte heap")
    super.solve(graph, grammar)
  }

  protected def init(n: Int, cells: Seq[(Int, Int)]): (BitMatrix, Delta) = {
    val t = BitMatrix.fromPairs(n, cells)
    (t, Delta(t))
  }
  protected def multiplyMasked(left: Seq[(Delta, BitMatrix)], right: Seq[(BitMatrix, Delta, BitMatrix)], mask: BitMatrix): Delta =
    BitMatrix.multiplyMasked(left, right, mask)
  protected def union(a: BitMatrix, d: Delta): BitMatrix = { a.orInPlace(d); a }
  protected def cells(m: BitMatrix): Long = m.cardinality
  protected def deltaCells(d: Delta): Long = d.cells
  protected def toPacked(m: BitMatrix): Array[Long] = m.toPacked
}
