package repro.core

import scala.collection.mutable.ListBuffer
import org.scalatest.funsuite.AnyFunSuite
import repro.cfg.Queries
import repro.graph.LabeledGraph

/** [[Closure.run]] over a toy state: state `i` is the number of steps taken,
  * and step `i` reports `script(i)` as its added cells.
  */
class ClosureSpec extends AnyFunSuite {

  /** Runs the script from state 0; also returns the released states and the
    * number of steps taken.
    */
  private def runScript(script: Map[String, Long]*): ((Int, Seq[Map[String, Long]]), Seq[Int], Int) = {
    val released = ListBuffer.empty[Int]
    var steps = 0
    val out = Closure.run(0, capacity = Long.MaxValue)(released += _) { i => steps += 1; (i + 1, script(i)) }
    (out, released.toSeq, steps)
  }

  test("one map per step, counting the final empty one") {
    val ((last, added), _, steps) = runScript(Map("A" -> 2), Map("A" -> 1, "B" -> 3), Map.empty, Map("A" -> 9))
    assert(added == Seq(Map("A" -> 2), Map("A" -> 1, "B" -> 3), Map.empty))
    assert(steps == 3 && added.length == steps && last == 3)
  }

  test("zero entries are dropped, and a map of only zero entries ends the loop") {
    val ((last, added), _, steps) = runScript(Map("A" -> 1, "B" -> 0), Map("A" -> 0, "B" -> 0), Map("A" -> 5))
    assert(added == Seq(Map("A" -> 1), Map.empty))
    assert(steps == 2 && last == 2)
  }

  test("a first step that adds nothing is one iteration") {
    val ((last, added), released, _) = runScript(Map.empty)
    assert(added == Seq(Map.empty) && last == 1 && released == Seq(0))
  }

  test("every superseded state is released once, in order, and the returned state never") {
    val ((last, added), released, _) = runScript(Map("A" -> 1), Map("B" -> 1), Map("A" -> 2), Map.empty)
    assert(last == 4 && added.length == 4)
    assert(released == Seq(0, 1, 2, 3))
  }

  test("an exception from step propagates and leaves the current state unreleased") {
    val released = ListBuffer.empty[Int]
    val e = intercept[IllegalStateException] {
      Closure.run(0, capacity = Long.MaxValue)(released += _) { i =>
        if (i == 2) throw new IllegalStateException("step 2 failed") else (i + 1, Map("A" -> 1L))
      }
    }
    assert(e.getMessage == "step 2 failed")
    assert(released == Seq(0, 1))
  }

  test("a step that re-reports cells fails within capacity + 1 steps, naming the step; reaching the capacity does not") {
    for ((capacity, perStep) <- Seq(5L -> 1L, 5L -> 2L, 6L -> 3L, 0L -> 1L)) {
      var steps = 0
      val e = intercept[IllegalStateException] {
        Closure.run(0, capacity)() { i => steps += 1; (i + 1, Map("A" -> perStep)) }
      }
      // The first step whose running sum passes the capacity.
      val failing = capacity / perStep + 1
      assert(steps == failing && steps <= capacity + 1, s"capacity $capacity, $perStep a step")
      assert(e.getMessage.startsWith(s"closure step $failing brings the cells added to ${failing * perStep}, " +
        s"more than the $capacity cells T holds"), e.getMessage)
    }
    val (last, added) = Closure.run(0, capacity = 5)() { i => (i + 1, Seq(Map("A" -> 2L), Map("B" -> 3L), Map.empty[String, Long])(i)) }
    assert(last == 3 && added == Seq(Map("A" -> 2), Map("B" -> 3), Map.empty))
  }

  test("the capacity is |N|·n² over at least one node, and saturates instead of overflowing") {
    val cnf = Queries.q1CnfPaper
    val nts = cnf.nonterminals.size.toLong
    assert(Closure.capacity(LabeledGraph.paperExample, cnf) == nts * 9)
    assert(Closure.capacity(LabeledGraph(0, Vector.empty), cnf) == nts)
    assert(Closure.capacity(LabeledGraph(Int.MaxValue, Vector.empty), cnf) == Long.MaxValue)
  }
}
