package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.Assertions

/** Runs a ScalaCheck property inside a ScalaTest test with a fixed seed,
  * so a failing case replays exactly; on failure the seed and the
  * counterexample are printed and the test fails.
  */
trait PropertyChecks extends Assertions {

  def checkProperty(prop: Prop, seed: Long, successes: Int = 100): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(successes)
      .withInitialSeed(seed)
      .withWorkers(1)
    val result = Test.check(params, prop)
    if (!result.passed) {
      val msg = s"property failed with seed $seed: ${Pretty.pretty(result, Pretty.Params(1))}"
      println(msg)
      fail(msg)
    }
  }
}
