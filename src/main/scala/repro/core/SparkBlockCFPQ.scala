package repro.core

import org.apache.spark.sql.SparkSession
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BlockBoolMatrix

/** Algorithm 1 over a *distributed block-sparse* Boolean matrix — the
  * paper's **sGPU** analog.
  *
  * The paper offloads CSR Boolean multiplications to CUSPARSE on a GPU;
  * here the per-nonterminal matrices are tiled into [[repro.linalg.BoolCSR]]
  * tiles of a pair RDD spread over Spark partitions, and every tile-pair
  * product of the closure step runs the same CSR kernel as [[SparseCFPQ]]
  * (sCPU) inside a Spark task
  * ([[repro.linalg.BlockBoolMatrix.multiplyPartials]]). Spark tasks over
  * tiles stand in for CUDA thread blocks: the speedup mechanism (parallel
  * sparse kernels on independent sub-matrices) is the same.
  *
  * @param spark     session to run on
  * @param blockSize side of square tiles; small graphs collapse to one
  *                  block, large ones fan out across the cluster
  */
final class SparkBlockCFPQ(spark: SparkSession, blockSize: Int = 1024) extends CFPQEngine {
  override val name = "SparkBlock"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val init = BlockBoolMatrix.fromPairs(spark.sparkContext, blockSize, MatrixInit.cells(graph, grammar))
    val (t, iterations) = Closure.run(Materialize(init)(_._2.nnz.toLong))(_.count, _.release()) { cur =>
      // One job per iteration: the partial products and the previous T
      // are unioned in a single reduce stage (T ∪ T·T).
      val prod = BlockBoolMatrix.multiplyPartials(cur.data, grammar.byFirst)
      Materialize(BlockBoolMatrix.coalesceBlocks(cur.data.union(prod)))(_._2.nnz.toLong)
    }
    val result = CFPQResult(BlockBoolMatrix.collectPairs(t.data), iterations)
    t.release()
    result
  }
}
