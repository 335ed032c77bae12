package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.Queries
import repro.data.Datasets

/** The semi-naive closure computes each new cell once: the masked kernel
  * returns only cells that are not yet in `T`, and a step reports the cells
  * the kernel returned as what it added, so the cells reported over a whole
  * solve are exactly the cells the closure adds to `T₀`.
  */
class SemiNaiveWorkSpec extends AnyFunSuite {

  test("funding/Q1: Σ kernel cells = Σ|R_A| − |T₀| (product cells = new cells)") {
    val graph = Datasets.funding.graph
    val cnf = Queries.q1CnfPaper
    val result = SparseCFPQ.solve(graph, cnf)
    assert(result.iterations == 12 && result.added.length == 12)
    val kernelCells = result.added.iterator.flatMap(_.values).sum
    val t0 = MatrixInit.cells(graph, cnf).values.map(_.size.toLong).sum
    val total = result.relations.values.map(_.size.toLong).sum
    assert(kernelCells == total - t0)
    // The naive closure builds 320,942 product cells to find these.
    assert(kernelCells == 30470)
  }
}
