package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** [[Lcg]] must return exactly the stream of `java.util.Random` (and so of
  * `scala.util.Random`): every chain, and every estimate at a fixed seed,
  * depends on it.
  */
class LcgSpec extends AnyFunSuite {

  private val Seeds = Seq(0L, 1L, 42L, -1L, -7919L, Long.MinValue, Long.MaxValue,
    20190326L ^ 0x5DEECE66DL, 0x5DEECE66DL)
  private val Draws = 100000

  test("nextInt(bound) matches java.util.Random, including the rejection loop") {
    val bounds = Seq(1, 2, 5, 34, 2000, 10000, (1 << 30) + 1, Int.MaxValue)
    for (seed <- Seeds; bound <- bounds) {
      val ours = new Lcg(seed)
      val jdk = new java.util.Random(seed)
      var i = 0
      while (i < Draws) {
        val (a, b) = (ours.nextInt(bound), jdk.nextInt(bound))
        assert(a == b, s"seed $seed, bound $bound, draw $i")
        i += 1
      }
    }
  }

  test("nextDouble() matches java.util.Random bit for bit") {
    for (seed <- Seeds) {
      val ours = new Lcg(seed)
      val jdk = new java.util.Random(seed)
      var i = 0
      while (i < Draws) {
        val (a, b) = (ours.nextDouble(), jdk.nextDouble())
        assert(java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b),
          s"seed $seed, draw $i")
        i += 1
      }
    }
  }

  test("interleaved nextInt and nextDouble match scala.util.Random") {
    for (seed <- Seeds) {
      val ours = new Lcg(seed)
      val scalaRnd = new scala.util.Random(seed)
      for (i <- 0 until Draws) {
        if (i % 3 == 0) assert(ours.nextDouble() == scalaRnd.nextDouble(), s"seed $seed, draw $i")
        else assert(ours.nextInt(34) == scalaRnd.nextInt(34), s"seed $seed, draw $i")
      }
    }
  }

  test("nextInt rejects a non-positive bound") {
    assertThrows[IllegalArgumentException](new Lcg(1L).nextInt(0))
    assertThrows[IllegalArgumentException](new Lcg(1L).nextInt(-3))
  }

  test("nextInt and fillInts name a non-positive bound") {
    for (bound <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](new Lcg(1L).nextInt(bound))
      assert(e.getMessage.contains(s"bound $bound must be positive"), e.getMessage)
      val f = intercept[IllegalArgumentException](new Lcg(1L).fillInts(new Array[Int](3), bound, 2))
      assert(f.getMessage.contains(s"bound $bound must be positive"), f.getMessage)
    }
  }

  test("fillInts gives the sequential nextInt draws and generator state at every chunk count") {
    // 2^30 + 1 rejects about half of all outputs, Int.MaxValue one in 2^31;
    // 1 and 2 are powers of two, which reject nothing
    val bounds = Seq(1, 2, 2000, (1 << 30) + 1, Int.MaxValue)
    for (seed <- Seeds.take(4); bound <- bounds; count <- Seq(0, 1, 5, 10007)) {
      val seq = new Lcg(seed)
      val first = seq.nextInt(34) // a generator part-way through its stream, as in the samplers
      val expected = Array.fill(count)(seq.nextInt(bound))
      for (chunks <- Seq(1, 2, 3, 7, count + 3)) {
        val bulk = new Lcg(seed)
        assert(bulk.nextInt(34) == first)
        val out = new Array[Int](count)
        bulk.fillInts(out, bound, chunks)
        val at = s"seed $seed, bound $bound, $count draws, $chunks chunks"
        assert(out.sameElements(expected), at)
        val after = new Lcg(seed)
        after.nextInt(34)
        (0 until count).foreach(_ => after.nextInt(bound))
        assert(bulk.nextInt(bound) == after.nextInt(bound), at)
        assert(bulk.nextDouble() == after.nextDouble(), at)
      }
    }
    assertThrows[IllegalArgumentException](new Lcg(1L).fillInts(new Array[Int](3), 0, 1))
  }
}
