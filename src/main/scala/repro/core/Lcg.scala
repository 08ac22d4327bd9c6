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
  *
  * The generator can jump ahead: k steps of s ↦ a·s + c (mod 2^48) are one
  * affine map s ↦ a^k·s + c·(a^(k−1) + … + 1), built by squaring in O(log k)
  * (Brown 1994). So a stream splits into chunks that start at known states,
  * which is how [[fillInts]] and the samplers' walk run in parallel and still
  * give the sequential stream.
  */
final class Lcg(seed: Long) {
  private var state = (seed ^ Lcg.Multiplier) & Lcg.Mask

  private def next(bits: Int): Int = {
    state = Lcg.step(state)
    (state >>> (48 - bits)).toInt
  }

  /** Moves the generator on by `steps` outputs (a `nextInt` without
    * rejection is one output, a `nextDouble` two), as if they were drawn.
    */
  private[core] def skip(steps: Long): Unit = state = Lcg.jump(state, steps)

  /** Uniform in [0, bound): the first 31-bit output below [[Lcg.limit]], mapped by [[Lcg.draw]]. */
  def nextInt(bound: Int): Int = {
    val limit = Lcg.limit(bound)
    var u = next(31)
    while (u >= limit) u = next(31)
    Lcg.draw(u, bound)
  }

  /** Uniform in [0, 1), on the grid of multiples of 2^-53. */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Lcg.DoubleUnit

  /** Fills `out` with `out.length` draws of `nextInt(bound)` over `chunks`
    * chunks and leaves the generator where as many `nextInt` calls would:
    * the k-th draw is the k-th 31-bit output that `nextInt`'s rejection test
    * accepts. A round scans exactly as many outputs as draws are missing, so
    * it never reads past the last draw: pass 1 counts each chunk's accepted
    * outputs, pass 2 writes them at the chunk's prefix-sum offset, and the
    * next round makes up the rejected ones.
    */
  private[core] def fillInts(out: Array[Int], bound: Int, chunks: Int): Unit = {
    val limit = Lcg.limit(bound)
    var done = 0
    while (done < out.length) {
      val need = out.length - done
      val k = Chunks.count(need, chunks)
      val base = state
      def from(c: Int): Long = Lcg.jump(base, Chunks.start(need, k, c))
      def length(c: Int): Int = Chunks.start(need, k, c + 1) - Chunks.start(need, k, c)
      val offset = new Array[Int](k + 1)
      Chunks.run(k)(c => offset(c + 1) = Lcg.accepted(from(c), length(c), limit))
      var c = 0
      while (c < k) { offset(c + 1) += offset(c); c += 1 }
      Chunks.run(k)(c => Lcg.draws(from(c), length(c), bound, limit, out, done + offset(c)))
      done += offset(k)
      state = Lcg.jump(base, need)
    }
  }
}

object Lcg {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  private def step(s: Long): Long = (s * Multiplier + Addend) & Mask

  /** The state `steps` outputs after state s. Products wrap mod 2^64, which
    * keeps them right mod 2^48.
    */
  private def jump(s: Long, steps: Long): Long = {
    var mul = 1L; var add = 0L // the map so far, s ↦ mul·s + add
    var m = Multiplier; var a = Addend // the map of 2^i steps
    var k = steps
    while (k > 0) {
      if ((k & 1) != 0) { mul = (mul * m) & Mask; add = (add * m + a) & Mask }
      a = ((m + 1) * a) & Mask
      m = (m * m) & Mask
      k >>>= 1
    }
    (mul * s + add) & Mask
  }

  /** `nextInt(bound)`'s rejection rule: it takes the 31-bit outputs below the largest multiple of
    * bound that is at most 2^31, as `java.util.Random`'s test u − u % bound + bound − 1 < 0 does. */
  private def limit(bound: Int): Long = {
    if (bound <= 0) throw new IllegalArgumentException(s"bound $bound must be positive")
    (1L << 31) / bound * bound
  }

  /** `nextInt(bound)`'s draw from an accepted 31-bit output u: its high bits
    * for a power-of-two bound, else u % bound. */
  private def draw(u: Int, bound: Int): Int =
    if ((bound & (bound - 1)) == 0) ((bound.toLong * u) >> 31).toInt else u % bound

  /** How many of the `len` 31-bit outputs after state s are below `limit`. */
  private def accepted(s: Long, len: Int, limit: Long): Int = {
    var st = s; var n = 0; var i = 0
    while (i < len) {
      st = step(st)
      if ((st >>> 17) < limit) n += 1
      i += 1
    }
    n
  }

  /** Writes the draws of the `len` outputs after state s to `out` from `at`. */
  private def draws(s: Long, len: Int, bound: Int, limit: Long, out: Array[Int], at: Int): Unit = {
    var st = s; var j = at; var i = 0
    while (i < len) {
      st = step(st)
      val u = (st >>> 17).toInt
      if (u < limit) { out(j) = draw(u, bound); j += 1 }
      i += 1
    }
  }
}
