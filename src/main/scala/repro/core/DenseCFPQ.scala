package repro.core

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

  protected def fromPairs(n: Int, pairs: Seq[(Int, Int)]): BitMatrix = BitMatrix.fromPairs(n, pairs)
  protected def multiply(a: BitMatrix, b: BitMatrix): BitMatrix = a.multiply(b)
  protected def union(a: BitMatrix, b: BitMatrix): BitMatrix = { a.orInPlace(b); a }
  protected def cells(m: BitMatrix): Long = m.cardinality
  protected def toPairs(m: BitMatrix): Seq[(Int, Int)] = m.toPairs
}
