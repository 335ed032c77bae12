package cfpqbench

import java.util.SplittableRandom
import scala.io.Source
import scala.util.Try

/** A fixed calibration kernel that tracks the speed of the host.
  *
  * On a shared VM the same solve runs up to 40% slower for seconds to
  * minutes at a time, in CPU time as well as in wall time (other tenants on
  * the same cores, stolen CPU time), and all engines slow down together.
  * The benchmark runs this kernel right before each local solve and scales
  * the solve's time to a reference host on which the kernel takes
  * [[ReferenceMs]]: a change to the program moves the scaled times as it
  * moves the wall times, but a change in the host's speed moves the kernel
  * as well and cancels out.
  *
  * The kernel does work of the kind the engines do (a Scala set of boxed
  * pairs, a sort of an int array) with none of the program's code, so no
  * change to the program moves it.
  */
object HostSpeed {

  /** The kernel's wall time, in ms, on the reference host. */
  val ReferenceMs = 20.0

  /** One run of the kernel; returns a checksum so that none of it is dead code. */
  def kernel(): Int = {
    val rnd = new SplittableRandom(42)
    var set = Set.empty[(Int, Int)]
    var i = 0
    while (i < 20000) { set += ((rnd.nextInt(2000), rnd.nextInt(2000))); i += 1 }
    val ints = Array.fill(100000)(rnd.nextInt())
    java.util.Arrays.sort(ints)
    set.size + ints(500)
  }

  private var sink = 0

  /** Wall time of one run of the kernel, in ms. */
  def kernelMs(): Double = {
    val t0 = System.nanoTime()
    sink += kernel()
    (System.nanoTime() - t0) / 1e6
  }

  /** `ms`, measured while the kernel took `kernelMs`, scaled to the reference host. */
  def scale(ms: Double, kernelMs: Double): Double = ms * ReferenceMs / kernelMs

  /** Stolen and total CPU time of the VM so far, in clock ticks, from the
    * `cpu` line of `/proc/stat`; `None` where there is no such file.
    */
  def cpuTicks(): Option[(Long, Long)] = Try {
    val src = Source.fromFile("/proc/stat")
    val line = try src.getLines().next() finally src.close()
    val ticks = line.split("\\s+").drop(1).map(_.toLong)
    (ticks(7), ticks.sum)
  }.toOption
}
