package cfpqbench

import org.scalatest.funsuite.AnyFunSuite
import repro.baseline.HellingsCFPQ
import repro.cfg.Queries
import repro.core.{CFPQResult, DenseCFPQ, NaiveSetMatrixCFPQ, SparseCFPQ}
import repro.graph.LabeledGraph

/** The benchmark's own metric code on the paper's §4.3 example and on the
  * real workloads' inputs.
  */
class MetricsSpec extends AnyFunSuite {
  private val example = LabeledGraph.paperExample
  private val cnf = Queries.exampleCnf
  private val exampleRS = Set((0, 0), (0, 2), (1, 2))

  test("fingerprint ignores order and collection type, and sees a changed pair") {
    val f = Fingerprint.of(exampleRS)
    assert(Fingerprint.of(exampleRS.toVector.reverse) == f)
    assert(f.count == 3)
    assert(Fingerprint.of(Set((0, 0), (0, 2), (2, 1))) != f)
    assert(Fingerprint.of(Set((0, 0), (0, 2))) != f)
  }

  test("fingerprints of all engines agree on the paper example") {
    val prints = Seq(NaiveSetMatrixCFPQ, DenseCFPQ, SparseCFPQ, HellingsCFPQ)
      .map(e => Fingerprint.all(e.solve(example, cnf)))
    assert(prints.distinct.size == 1)
    assert(prints.head("S") == Fingerprint.of(exampleRS))
  }

  test("seeded relabelling is a deterministic permutation that differs by seed") {
    val a = Relabel.seeded(100, 1L).perm
    assert(a.sorted.toSeq == (0 until 100))
    assert(Relabel.seeded(100, 1L).perm.toSeq == a.toSeq)
    assert(Relabel.seeded(100, 2L).perm.toSeq != a.toSeq)
  }

  test("a relabelled graph is a different input with the renamed answer") {
    val r = Relabel(Array(2, 0, 1))
    val g = r.graph(example)
    assert(g.edges != example.edges)
    val expected = r.result(SparseCFPQ.solve(example, cnf))
    Seq(NaiveSetMatrixCFPQ, DenseCFPQ, SparseCFPQ, HellingsCFPQ).foreach { e =>
      assert(Fingerprint.all(e.solve(g, cnf)) == Fingerprint.all(expected), e.name)
    }
  }

  test("the checker reports a wrong relation and a wrong iteration count") {
    val ref = SparseCFPQ.solve(example, cnf)
    val checker = new Checker("S", ref.iterations, ref)
    val sparse = Engine("sparse_csr", spark = false, matrix = true, SparseCFPQ)
    assert(checker.problems(sparse, ref).isEmpty)
    val dropped = CFPQResult(ref.relations.updated("S", ref("S") - ((1, 2))), ref.iterations)
    assert(checker.problems(sparse, dropped).exists(_.contains("R_S")))
    assert(checker.problems(sparse, ref.copy(iterations = ref.iterations + 1)).exists(_.contains("iterations")))
    val hellings = Engine("hellings", spark = false, matrix = false, HellingsCFPQ)
    assert(checker.problems(hellings, ref.copy(iterations = 1)).isEmpty)
  }

  test("every workload's pinned answer holds at its default seed, and a new seed changes the input only") {
    Workloads.all.foreach { w =>
      val datasetGraph = w.dataset.graph
      assert(Checker.forInput(w, datasetGraph, w.relabel(w.dataset.seed)).isRight, w.name)
      val relabel = w.relabel(7L)
      val checker = Checker.forInput(w, datasetGraph, relabel).toOption.get
      val g = relabel.graph(datasetGraph)
      assert(g.edges != datasetGraph.edges, w.name)
      Seq(Engine("sparse_csr", spark = false, matrix = true, SparseCFPQ),
          Engine("hellings", spark = false, matrix = false, HellingsCFPQ)).foreach { e =>
        assert(checker.problems(e, e.engine.solve(g, w.query.cnf)).isEmpty, s"${w.name} ${e.key}")
      }
    }
  }

  test("a wrong pin is reported") {
    val w = Workloads.all.head
    val wrong = w.copy(expected = w.expected.copy(iterations = w.expected.iterations + 1))
    val out = Checker.forInput(wrong, w.dataset.graph, wrong.relabel(w.dataset.seed))
    assert(out.left.toOption.exists(_.exists(_.contains("iterations"))))
  }

  test("replays return exactly the engines' answers and count their work") {
    Seq(example, Relabel.seeded(3, 5L).graph(example)).foreach { g =>
      val csr = Replay.csr(g, cnf)
      assert(csr.result == SparseCFPQ.solve(g, cnf))
      val bit = Replay.bit(g, cnf)
      assert(bit.result == DenseCFPQ.solve(g, cnf))
      assert(csr.newCells == bit.newCells)
      assert(csr.productCells >= csr.newCells && csr.newCells > 0)
      assert(csr.multiplyCalls == csr.result.iterations.toLong * cnf.binary.size)
    }
  }

  test("local solve times are scaled by the kernel run before each; Spark solve times are not") {
    def local(ms: Double, kernelMs: Double) = Sample(ms, 0.0, 0L, 0L, None, kernelMs = kernelMs)
    def spark(ms: Double, cpuMs: Double) = Sample(ms, 0.0, 0L, 0L, None, cpuMs = cpuMs)
    val t = Timed(Map("local" -> Seq(local(30, 10), local(60, 20), local(90, 40)),
        "spark" -> Seq(spark(1000, 2500), spark(900, 2300), spark(1200, 2400))),
      Map.empty, kernelMs = Seq(10, 20, 40), stolenShare = None)
    assert(t.scaledMs("local") == 3 * HostSpeed.ReferenceMs) // ratios 3, 3 and 2.25
    assert(t.hostKernelMs == 20)
    assert(t.wallMs("spark") == 1000)
    assert(HostSpeed.kernel() == HostSpeed.kernel())
  }

  test("job intervals are merged before they are subtracted") {
    val s = GroupStats.empty.copy(jobIntervals = Seq((10L, 20L), (15L, 30L), (40L, 50L), (0L, 5L)))
    assert(s.busyMs(0L, 100L) == 5 + 20 + 10)
    assert(s.busyMs(12L, 45L) == 18 + 5)
  }

  test("option parsing: the dataset's own seed by default, bad input refused") {
    val o = Main.parse(Seq("--workload", "q2-g3", "--seconds", "5")).toOption.get
    assert(o.seed == o.workload.dataset.seed && !o.trace)
    assert(Main.parse(Seq("--workload", "q2-g3", "--seed", "9", "--seconds", "5", "--trace", "1"))
      .toOption.exists(x => x.seed == 9L && x.trace))
    assert(Main.parse(Seq("--workload", "nope", "--seconds", "5")).isLeft)
    assert(Main.parse(Seq("--workload", "q2-g3", "--seconds", "0")).isLeft)
    assert(Main.parse(Seq("--workload", "q2-g3", "--seconds", "5", "--trace", "2")).isLeft)
  }
}
