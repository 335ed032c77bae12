package cfpqbench

import repro.core.CFPQResult

/** Order-independent fingerprint of one relation `R ⊆ V × V`: the number
  * of pairs plus the wrapping sum of a 64-bit mix of every packed pair
  * `(src << 32) | dst`. Equal relations give equal fingerprints whatever
  * the order (or the collection) the engine returns them in.
  */
final case class Fingerprint(count: Long, hash: Long) {
  override def toString: String = f"$count%d/$hash%016x"
}

object Fingerprint {

  /** SplitMix64 finalizer: a bijective mix, so distinct pairs spread over
    * all 64 bits before they are summed.
    */
  def mix(x: Long): Long = {
    var z = x
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def pack(src: Int, dst: Int): Long = (src.toLong << 32) | (dst.toLong & 0xffffffffL)

  def of(pairs: Iterable[(Int, Int)]): Fingerprint = {
    var n = 0L
    var h = 0L
    pairs.foreach { case (s, d) => n += 1; h += mix(pack(s, d)) }
    Fingerprint(n, h)
  }

  /** Fingerprint of `R_start` in a result. */
  def start(result: CFPQResult, start: String): Fingerprint = of(result(start))

  /** Fingerprints of every non-empty relation in a result. */
  def all(result: CFPQResult): Map[String, Fingerprint] =
    result.relations.collect { case (nt, r) if r.nonEmpty => nt -> of(r) }
}
