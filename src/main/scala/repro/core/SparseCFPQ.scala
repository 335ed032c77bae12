package repro.core

import repro.linalg.BoolCSR

/** Algorithm 1 over *sparse CSR* Boolean matrices on one core — the
  * paper's **sCPU** analog (Math.NET CSR in the paper, our own
  * [[repro.linalg.BoolCSR]] here).
  *
  * Identical iteration structure to [[DenseCFPQ]]; only the matrices and
  * the kernel differ: `T` and `Δ` are both CSR, and SpGEMM cost is
  * proportional to the number of set cells, so this engine scales with the
  * actual relation density.
  */
object SparseCFPQ extends LocalMatrixCFPQ[BoolCSR, BoolCSR] {
  override val name = "SparseCSR"

  protected def init(n: Int, cells: Seq[(Int, Int)]): (BoolCSR, BoolCSR) = {
    val m = BoolCSR.fromPairs(n, n, cells)
    (m, m)
  }
  protected def multiplyMasked(left: Seq[(BoolCSR, BoolCSR)], right: Seq[(BoolCSR, BoolCSR, BoolCSR)], mask: BoolCSR): BoolCSR =
    BoolCSR.multiplyMasked(left ++ right.map(r => r._1 -> r._2), Some(mask))
  protected def union(a: BoolCSR, d: BoolCSR): BoolCSR = a.union(d)
  protected def cells(m: BoolCSR): Long = m.nnz.toLong
  protected def deltaCells(d: BoolCSR): Long = d.nnz.toLong
  protected def toPacked(m: BoolCSR): Array[Long] = m.toPacked
}
