package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.Queries
import repro.data.Datasets
import repro.linalg.BoolCSR

/** The semi-naive closure computes each new cell once: the masked kernel
  * returns only cells that are not yet in `T`, so the cells it returns over
  * a whole solve are exactly the cells the closure adds to `T₀`.
  */
class SemiNaiveWorkSpec extends AnyFunSuite {

  /** SparseCSR's kernels, counting the cells the masked kernel returns. */
  private final class CountingSparse extends LocalMatrixCFPQ[BoolCSR] {
    override val name = "CountingSparseCSR"
    var kernelCells = 0L

    protected def fromPairs(n: Int, pairs: Seq[(Int, Int)]): BoolCSR = BoolCSR.fromPairs(n, n, pairs)
    protected def multiplyMasked(terms: Seq[(BoolCSR, BoolCSR)], mask: BoolCSR): BoolCSR = {
      val d = BoolCSR.multiplyMasked(terms, Some(mask))
      kernelCells += d.nnz
      d
    }
    protected def union(a: BoolCSR, b: BoolCSR): BoolCSR = a.union(b)
    protected def cells(m: BoolCSR): Long = m.nnz.toLong
    protected def toPacked(m: BoolCSR): Array[Long] = m.toPacked
  }

  test("funding/Q1: Σ kernel cells = Σ|R_A| − |T₀| (product cells = new cells)") {
    val graph = Datasets.funding.graph
    val cnf = Queries.q1CnfPaper
    val engine = new CountingSparse
    val result = engine.solve(graph, cnf)
    assert(result == SparseCFPQ.solve(graph, cnf))
    assert(result.iterations == 12)
    val t0 = MatrixInit.cells(graph, cnf).values.map(_.size.toLong).sum
    val total = result.relations.values.map(_.size.toLong).sum
    assert(engine.kernelCells == total - t0)
    // The naive closure builds 320,942 product cells to find these.
    assert(engine.kernelCells == 30470)
  }
}
