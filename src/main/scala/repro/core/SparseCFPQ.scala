package repro.core

import repro.linalg.BoolCSR

/** Algorithm 1 over *sparse CSR* Boolean matrices on one core — the
  * paper's **sCPU** analog (Math.NET CSR in the paper, our own
  * [[repro.linalg.BoolCSR]] here).
  *
  * Identical iteration structure to [[DenseCFPQ]]; only the matrix kernel
  * differs: SpGEMM cost is proportional to the number of set cells, so
  * this engine scales with the actual relation density.
  */
object SparseCFPQ extends LocalMatrixCFPQ[BoolCSR] {
  override val name = "SparseCSR"

  protected def fromPairs(n: Int, pairs: Seq[(Int, Int)]): BoolCSR = BoolCSR.fromPairs(n, n, pairs)
  protected def multiplyMasked(terms: Seq[(BoolCSR, BoolCSR)], mask: BoolCSR): BoolCSR =
    BoolCSR.multiplyMasked(terms, Some(mask))
  protected def union(a: BoolCSR, b: BoolCSR): BoolCSR = a.union(b)
  protected def cells(m: BoolCSR): Long = m.nnz.toLong
  protected def toPacked(m: BoolCSR): Array[Long] = m.toPacked
}
