package repro.core

import org.apache.spark.sql.SparkSession
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph
import repro.linalg.BlockBoolMatrix

/** Algorithm 1 over a *distributed block-sparse* Boolean matrix — the
  * paper's **sGPU** analog.
  *
  * The paper offloads CSR Boolean multiplications to CUSPARSE on a GPU;
  * here the per-nonterminal matrices are tiled into sparse blocks spread
  * over Spark partitions, and every block-pair product of the closure step
  * runs as a local Boolean kernel inside a Spark task
  * ([[repro.linalg.BlockBoolMatrix.multiplyPartials]]). Spark tasks over
  * blocks stand in for CUDA thread blocks: the speedup mechanism (parallel
  * sparse kernels on independent sub-matrices) is the same.
  *
  * @param spark     session to run on
  * @param blockSize side of square tiles; small graphs collapse to one
  *                  block, large ones fan out across the cluster
  */
final class SparkBlockCFPQ(spark: SparkSession, blockSize: Int = 512) extends CFPQEngine {
  override val name = "SparkBlock"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    val init = BlockBoolMatrix.fromPairs(
      spark, math.max(graph.numNodes, 1), blockSize, MatrixInit.cells(graph, grammar))
    val (t, iterations) = Closure.run(Materialize(init)(_.nnz.toLong))(_.count, _.release()) { cur =>
      // One fused shuffle per iteration: partial products + previous T
      // coalesced together (T ∪ T·T in a single reduce stage).
      val prod = BlockBoolMatrix.multiplyPartials(spark, cur.data, grammar.binary, blockSize)
      Materialize(BlockBoolMatrix.coalesceBlocks(cur.data.union(prod)))(_.nnz.toLong)
    }
    val result = CFPQResult(BlockBoolMatrix.collectPairs(t.data, blockSize), iterations)
    t.release()
    result
  }
}
