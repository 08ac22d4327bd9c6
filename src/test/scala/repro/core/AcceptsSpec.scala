package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** [[MHSingle.accepts]] decides Eq. 6's u < min{1, dp/dc} mostly without the
  * division; it must give the division's answer on every input the walk can
  * pass it: u on the 2^-53 grid of [0, 1), dp and dc finite and ≥ 0.
  */
class AcceptsSpec extends AnyFunSuite {

  private def byDivision(u: Double, dp: Double, dc: Double): Boolean =
    u < math.min(1.0, if (dc == 0.0) 1.0 else dp / dc)

  private def agrees(u: Double, dp: Double, dc: Double): Unit =
    assert(MHSingle.accepts(u, dp, dc) == byDivision(u, dp, dc), s"u = $u, dp = $dp, dc = $dc")

  /** A uniform as the walk draws it: a multiple of 2^-53 in [0, 1). */
  private def uniform(rnd: java.util.Random): Double = (rnd.nextLong() >>> 11) * math.scalb(1.0, -53)

  /** A δ across the whole finite range: zero, subnormal, or 2^e with e in [−1074, 1023] times [1, 2). */
  private def delta(rnd: java.util.Random): Double = rnd.nextInt(8) match {
    case 0 => 0.0
    case 1 => java.lang.Double.longBitsToDouble(1L + (rnd.nextLong() >>> 12)) // subnormal
    case 2 => rnd.nextDouble() * 10.0
    case _ => math.min(Double.MaxValue, math.scalb(1.0 + rnd.nextDouble(), rnd.nextInt(2098) - 1074))
  }

  private def ulps(x: Double, k: Int): Double =
    if (k >= 0) Iterator.iterate(x)(math.nextUp).drop(k).next()
    else Iterator.iterate(x)(math.nextDown).drop(-k).next()

  test("agrees with the division on 2e6 random inputs across the whole range") {
    val rnd = new java.util.Random(20190326L)
    for (_ <- 0 until 1000000) agrees(uniform(rnd), delta(rnd), delta(rnd))
    for (_ <- 0 until 1000000) agrees(uniform(rnd), rnd.nextDouble(), rnd.nextDouble()) // the walk's usual scale
  }

  test("agrees at near-ties: dp within 4 ulps of fl(u·dc)") {
    val rnd = new java.util.Random(6L)
    var ties = 0
    for (_ <- 0 until 200000) {
      val u = uniform(rnd)
      val dc = if (rnd.nextBoolean()) rnd.nextDouble() * 100.0 else math.max(Double.MinPositiveValue, delta(rnd))
      val x = u * dc
      for (k <- -4 to 4) {
        val dp = ulps(x, k)
        if (dp >= 0.0 && !dp.isInfinite) {
          agrees(u, dp, dc)
          if (dp / dc == u) ties += 1
        }
      }
    }
    assert(ties > 1000, s"only $ties cases where the quotient rounds to u itself")
  }

  test("agrees at u = 0, dc = 0 and dp = 0") {
    val values = Seq(0.0, Double.MinPositiveValue, 1e-300, 0.5, 1.0, 3.0, 1e300, Double.MaxValue)
    for (v <- values; w <- values) {
      agrees(0.0, v, w)
      agrees(0.5, v, 0.0)
      agrees(0.5, 0.0, v)
      agrees(1.0 - math.scalb(1.0, -53), v, w)
    }
    assert(MHSingle.accepts(0.0, 0.0, 0.0) && MHSingle.accepts(0.999, 0.0, 0.0)) // from δ = 0 every proposal is accepted
    assert(!MHSingle.accepts(0.0, 0.0, 1.0)) // and a δ = 0 proposal never from δ > 0
  }

  test("agrees on subnormal, 1e-300 and 1e300 dependencies") {
    val rnd = new java.util.Random(11L)
    val extremes = Seq(Double.MinPositiveValue, 3 * Double.MinPositiveValue, java.lang.Double.MIN_NORMAL,
      math.nextDown(java.lang.Double.MIN_NORMAL), math.scalb(1.0, -968), math.scalb(1.0, -969), 1e-300, 1e-300 * 1.5,
      1e300, math.nextUp(1e300), Double.MaxValue, math.nextDown(Double.MaxValue), 1.0)
    for (dp <- extremes; dc <- extremes; _ <- 0 until 200) {
      val u = uniform(rnd)
      agrees(u, dp, dc)
      agrees(u, ulps(u * dc, 1), dc)
      agrees(u, ulps(u * dc, -1).max(0.0), dc)
    }
  }

  test("agrees when the quotient dp/dc overflows") {
    val rnd = new java.util.Random(12L)
    for ((dp, dc) <- Seq((1e300, 1e-300), (Double.MaxValue, 0.5), (Double.MaxValue, Double.MinPositiveValue),
                         (1.0, Double.MinPositiveValue))) {
      assert((dp / dc).isInfinite)
      for (_ <- 0 until 1000) { val u = uniform(rnd); agrees(u, dp, dc); assert(MHSingle.accepts(u, dp, dc)) }
    }
  }
}
