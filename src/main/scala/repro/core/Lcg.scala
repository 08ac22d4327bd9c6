package repro.core

/** An unsynchronised copy of `java.util.Random`'s 48-bit linear congruential
  * generator.
  *
  * The Java API specifies the algorithm of `next(bits)`, `nextInt(bound)`
  * (including its rejection loop) and `nextDouble()`, so for the same seed
  * this yields exactly the stream of `new java.util.Random(seed)` — and of
  * `scala.util.Random(seed)`, which wraps it — without the compare-and-set
  * that `java.util.Random` pays on every draw to be thread-safe. One instance
  * must not be shared between threads.
  */
final class Lcg(seed: Long) {
  private[this] var state = (seed ^ Lcg.Multiplier) & Lcg.Mask

  private def next(bits: Int): Int = {
    state = (state * Lcg.Multiplier + Lcg.Addend) & Lcg.Mask
    (state >>> (48 - bits)).toInt
  }

  /** Uniform in [0, bound). */
  def nextInt(bound: Int): Int = {
    if (bound <= 0) throw new IllegalArgumentException("bound must be positive")
    var r = next(31)
    val m = bound - 1
    if ((bound & m) == 0) ((bound.toLong * r) >> 31).toInt
    else {
      var u = r
      r = u % bound
      while (u - r + m < 0) { u = next(31); r = u % bound }
      r
    }
  }

  /** Uniform in [0, 1), on the grid of multiples of 2^-53. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Lcg.DoubleUnit
}

object Lcg {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)
}
