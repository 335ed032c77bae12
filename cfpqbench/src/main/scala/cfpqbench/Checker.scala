package cfpqbench

import repro.core.{CFPQResult, SparseCFPQ}
import repro.graph.LabeledGraph

/** Checks every solve of a run against the answer known for its input.
  *
  * The answer on the dataset's own graph is pinned in [[Expected]] (count
  * and hash of `R_S`, iteration count). [[Checker.forInput]] solves that
  * graph once, checks it against the pin, and renames the result to the
  * run's input graph; every solve must then match it exactly: the `R_S`
  * fingerprint for all engines, the fingerprint of every relation for the
  * engines that compute all of them, and the iteration count for the
  * matrix engines.
  */
final class Checker(start: String, iterations: Int, reference: CFPQResult) {
  private val startPrint = Fingerprint.start(reference, start)
  private val allPrints = Fingerprint.all(reference)

  /** Every way `r` differs from the reference; empty if it does not. */
  def problems(e: Engine, r: CFPQResult): Seq[String] = {
    val fs = Fingerprint.start(r, start)
    Seq(
      Option.when(fs != startPrint)(s"${e.key}: R_$start is $fs, expected $startPrint"),
      Option.when(e.engine.relationalComplete && Fingerprint.all(r) != allPrints)(
        s"${e.key}: relations differ from the reference (${Fingerprint.all(r)} vs $allPrints)"),
      Option.when(e.matrix && r.iterations != iterations)(
        s"${e.key}: ${r.iterations} iterations, expected $iterations"),
    ).flatten
  }
}

object Checker {

  /** The checker for `w`'s input under `relabel`, or the ways the dataset
    * graph's own answer differs from the pinned one.
    */
  def forInput(w: Workload, datasetGraph: LabeledGraph, relabel: Relabel): Either[Seq[String], Checker] = {
    val x = w.expected
    val r = SparseCFPQ.solve(datasetGraph, w.query.cnf)
    val fs = Fingerprint.start(r, w.query.start)
    val problems = Seq(
      Option.when(datasetGraph.numNodes != x.nodes || datasetGraph.edges.size != x.edges)(
        s"${w.name}: graph has ${datasetGraph.numNodes} nodes/${datasetGraph.edges.size} edges, " +
          s"expected ${x.nodes}/${x.edges}"),
      Option.when(fs != x.start)(s"${w.name}: R_${w.query.start} is $fs, expected ${x.start}"),
      Option.when(r.iterations != x.iterations)(
        s"${w.name}: ${r.iterations} iterations, expected ${x.iterations}"),
    ).flatten
    if (problems.nonEmpty) Left(problems)
    else Right(new Checker(w.query.start, x.iterations, relabel.result(r)))
  }
}
