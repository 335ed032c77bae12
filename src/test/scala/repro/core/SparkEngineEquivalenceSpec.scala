package repro.core

import scala.util.Random
import repro.SparkSpec
import repro.cfg.Queries
import repro.data.Datasets

/** The two Spark engines must agree exactly with the local sparse engine
  * (itself verified against the literal Algorithm 1 transcription, the
  * brute-force path oracle, and DuckDB).
  */
class SparkEngineEquivalenceSpec extends SparkSpec {
  import EngineFixtures._

  private lazy val df = new SparkDataFrameCFPQ(spark)

  for {
    (gname, _, cnf, _) <- grammars
    i <- 0 until 3
  } test(s"[$gname #$i] SparkDataFrame engine matches the local sparse engine on a random graph") {
    val rnd = new Random(53 * gname.hashCode + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted, maxNodes = 8)
    val expect = SparseCFPQ.solve(graph, cnf)
    val got = df.solve(graph, cnf)
    assert(got == expect) // relations and iteration count
    assert(got.iterations == NaiveSetMatrixCFPQ.solve(graph, cnf).iterations)
  }

  for {
    (gname, _, cnf, _) <- grammars
    i <- 0 until 2
  } test(s"[$gname #$i] SparkBlock engine matches the local sparse engine on a random graph") {
    val rnd = new Random(59 * gname.hashCode + i)
    val graph = randomGraph(rnd, cnf.terminals.toSeq.sorted, maxNodes = 9)
    val expect = SparseCFPQ.solve(graph, cnf)
    val got = new SparkBlockCFPQ(spark, blockSize = 4).solve(graph, cnf)
    assert(got == expect) // relations and iteration count
    assert(got.iterations == NaiveSetMatrixCFPQ.solve(graph, cnf).iterations)
  }

  test("no binary rules: one iteration, exactly the initial cells, on both Spark engines") {
    val graph = randomGraph(new Random(37), Seq("a", "b", "x"), maxNodes = 9)
    Seq(df, new SparkBlockCFPQ(spark, blockSize = 4)).foreach { e =>
      assert(e.solve(graph, termOnly) == termOnlyResult(graph), e.name)
    }
  }

  test("skos / Q1: all four engine families agree on R_S and result count") {
    val graph = Datasets.skos.graph
    val cnf = Queries.q1CnfPaper
    val sparse = SparseCFPQ.solve(graph, cnf)("S")
    assert(df.solve(graph, cnf)("S") == sparse)
    assert(new SparkBlockCFPQ(spark, blockSize = 32).solve(graph, cnf)("S") == sparse)
    assert(DenseCFPQ.solve(graph, cnf)("S") == sparse)
    assert(repro.baseline.HellingsCFPQ.solve(graph, cnf)("S") == sparse)
    assert(new repro.baseline.GllCFPQ(Queries.q1, "S").solve(graph)("S") == sparse)
  }

  test("univ-bench / Q2: all four engine families agree on R_S") {
    val graph = Datasets.univBench.graph
    val cnf = Queries.q2Cnf
    val sparse = SparseCFPQ.solve(graph, cnf)("S")
    assert(df.solve(graph, cnf)("S") == sparse)
    assert(new SparkBlockCFPQ(spark, blockSize = 32).solve(graph, cnf)("S") == sparse)
    assert(DenseCFPQ.solve(graph, cnf)("S") == sparse)
    assert(repro.baseline.HellingsCFPQ.solve(graph, cnf)("S") == sparse)
    assert(new repro.baseline.GllCFPQ(Queries.q2, "S").solve(graph)("S") == sparse)
  }

  test("block size does not change the result (1, 7, 64, 4096)") {
    val graph = LabeledGraph_small
    val cnf = Queries.q1CnfPaper
    val expect = SparseCFPQ.solve(graph, cnf)("S")
    for (bs <- Seq(1, 7, 64, 4096)) {
      assert(new SparkBlockCFPQ(spark, bs).solve(graph, cnf)("S") == expect, s"blockSize=$bs")
    }
  }

  private lazy val LabeledGraph_small =
    repro.graph.LabeledGraph(Seq(
      (1, "subClassOf", 0), (2, "subClassOf", 0), (3, "subClassOf", 1),
      (4, "type", 3), (4, "type", 2), (5, "type", 1),
    )).withInverses()
}
