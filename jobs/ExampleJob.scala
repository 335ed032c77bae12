package repro.jobs

import repro.cfg.Queries
import repro.core.NaiveSetMatrixCFPQ
import repro.graph.LabeledGraph

/** Prints the paper's worked example (§4.3): the step-by-step matrices
  * T0 … T6 for the 3-node graph of Fig. 5 with the CNF grammar of Fig. 4,
  * and the resulting context-free relations of Fig. 9.
  *
  * Pure JVM (no Spark needed): run with
  * `sbt "runMain repro.jobs.ExampleJob"`.
  */
object ExampleJob {
  def main(args: Array[String]): Unit = {
    val g = LabeledGraph.paperExample
    val cnf = Queries.exampleCnf
    println(s"Grammar (paper Fig. 4):\n$cnf\n")
    println(s"Graph edges (paper Fig. 5): ${g.edges.mkString(", ")}\n")
    val result = NaiveSetMatrixCFPQ.solve(g, cnf)
    NaiveSetMatrixCFPQ.steps(g, cnf).take(result.iterations + 1).zipWithIndex.foreach { case (m, i) =>
      println(s"T$i =")
      m.foreach(row => println("  " + row.map(s =>
        if (s.isEmpty) "∅" else s.toSeq.sorted.mkString("{", ",", "}")).mkString("  ")))
      println()
    }
    println(s"Fixpoint after ${result.iterations} iterations (paper: 6).\n")
    println("Resulting context-free relations (paper Fig. 9):")
    result.relations.toSeq.sortBy(_._1).foreach { case (a, pairs) =>
      println(s"  R_$a = ${pairs.toSeq.sorted.mkString("{", ", ", "}")}")
    }
  }
}
