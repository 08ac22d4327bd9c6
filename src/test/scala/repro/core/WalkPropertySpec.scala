package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** A seeded ScalaCheck property of [[MHSingle.independenceWalk]]: on random
  * weight tables of 1 to 4 entries per source, with zeros and ties, all-zero
  * tables, tables with one positive entry, entries of extreme magnitude
  * (subnormal to `Double.MaxValue`) and entries one ulp apart, and on chains
  * whose every step is a constructed near-tie of [[MHSingle.accepts]], the
  * chunked walk gives the [[ReferenceWalk]]'s states at every chunk count,
  * the flags both chain kinds derive from their states are the reference's
  * flags, and the harmonic estimate has the bits of
  * [[ReferenceWalk.harmonic]]; also when only some sources are drawn and the
  * other rows hold junk.
  */
class WalkPropertySpec extends AnyFunSuite {

  private case class Case(seed: Long, width: Int, weight: Array[Double], s0: Int, proposals: Array[Int]) {
    override def toString: String =
      s"seed $seed, width $width, T ${proposals.length}, s0 $s0, weight ${weight.mkString("[", ",", "]")}"
  }

  /** x moved k ulps up (k < 0: down), kept a valid weight: in [0, Double.MaxValue]. */
  private def ulps(x: Double, k: Int): Double = math.min(Double.MaxValue, math.max(0.0,
    (0 until k.abs).foldLeft(x)((y, _) => if (k > 0) math.nextUp(y) else math.nextDown(y))))

  private val magnitudes = Seq(Double.MinPositiveValue, 1e-300, java.lang.Double.MIN_NORMAL, 1.0, 1e300, Double.MaxValue)

  private val tables: Gen[(Int, Array[Double])] = for {
    width <- Gen.choose(1, 4)
    sources <- Gen.choose(1, 12)
    size = sources * width
    base <- Gen.oneOf(magnitudes)
    weight <- Gen.oneOf(
      Gen.listOfN(size, Gen.oneOf(0.0, 0.0, 1.0, 1.0, 2.0, 0.25, 3.5, 7.0)).map(_.toArray),
      Gen.const(new Array[Double](size)),
      Gen.choose(0, size - 1).map(i => Array.tabulate(size)(j => if (j == i) 4.5 else 0.0)),
      Gen.listOfN(size, Gen.oneOf(0.0 +: magnitudes)).map(_.toArray),
      Gen.listOfN(size, Gen.choose(-2, 2)).map(_.map(k => ulps(base, k)).toArray))
  } yield (width, weight)

  private val cases: Gen[Case] = for {
    (width, weight) <- tables
    seed <- Gen.long
    s0 <- Gen.choose(0, weight.length - 1)
    T <- Gen.frequency(1 -> Gen.choose(0, 3), 4 -> Gen.choose(0, 3000))
    proposals <- Gen.listOfN(T, Gen.choose(0, weight.length - 1))
  } yield Case(seed, width, weight, s0, proposals.toArray)

  /** A case's s0 and proposals redrawn among the flat states of a subset of
    * its sources; every other row holds larger weights, NaN, negative and
    * +∞ entries, which the walk must neither check nor read.
    */
  private val partlyDrawn: Gen[Case] = for {
    c <- cases
    drawn <- Gen.atLeastOne(0 until c.weight.length / c.width)
    junk <- Gen.listOfN(c.weight.length, Gen.oneOf(1e6, Double.NaN, -1.0, Double.PositiveInfinity))
    states = drawn.flatMap(v => v * c.width until (v + 1) * c.width).toIndexedSeq
    s0 <- Gen.oneOf(states)
    proposals <- Gen.listOfN(c.proposals.length, Gen.oneOf(states))
  } yield c.copy(weight = Array.tabulate(c.weight.length)(i => if (drawn.contains(i / c.width)) c.weight(i) else junk(i)),
    s0 = s0, proposals = proposals.toArray)

  /** Chains of width 1 whose every step lands in [[MHSingle.accepts]]' band,
    * where it must divide: s0 is source 0, proposal t is source t + 1, and
    * its weight is fl(u_t · δ(X_t)) moved up to 4 ulps, u_t being the walk's
    * uniform for step t and X_t the state the division's rule reaches. Weights
    * shrink along the chain, from every magnitude down to subnormal and 0.
    */
  private val ties: Gen[Case] = for {
    seed <- Gen.long
    T <- Gen.choose(1, 300)
    d0 <- Gen.oneOf(0.7 +: 37.5 +: magnitudes)
    moves <- Gen.listOfN(T, Gen.choose(-4, 4))
  } yield {
    val rnd = new java.util.Random(seed ^ 0x5DEECE66DL)
    val weight = new Array[Double](T + 1)
    weight(0) = d0
    var cur = 0
    for ((k, t) <- moves.zipWithIndex) {
      val (u, dc) = (rnd.nextDouble(), weight(cur))
      weight(t + 1) = ulps(u * dc, k)
      if (dc == 0.0 || u < weight(t + 1) / dc) cur = t + 1
    }
    Case(seed, 1, weight, 0, Array.range(1, T + 1))
  }

  /** Checks the property on 200 cases of `gen`, and returns which of T = 0,
    * an all-zero table and an s0 outside a non-empty support they drew.
    */
  private def matchesReference(gen: Gen[Case]): Set[String] = {
    val drew = Set.newBuilder[String]
    val prop = Prop.forAllNoShrink(gen) { c =>
      val T = c.proposals.length
      val n = c.weight.length / c.width
      val (states, flags) = ReferenceWalk(c.seed, c.s0, c.proposals, c.weight)
      val walks = Seq(1, 2, 3, 8, T + 5).map(k =>
        k -> MHSingle.independenceWalk(c.seed, c.s0, c.proposals, n, c.width, k)(_ => c.weight)._1)
      val walked = walks.head._2
      val chain = new Chain(0, c.weight.length, c.seed, walked, c.proposals, c.weight)
      val joint = new JointChain(Array.range(0, c.width), n, c.seed, walked, c.proposals, c.weight)
      val rate = if (T == 0) 0.0 else flags.count(identity).toDouble / T
      val harmonic = ReferenceWalk.harmonic(c.weight.length, c.s0, c.proposals, states, c.weight)
      if (T == 0) drew += "T = 0"
      if (c.weight.forall(_ == 0.0)) drew += "an all-zero table"
      else if (c.weight(c.s0) == 0.0) drew += "s0 outside the support"
      val mismatch = walks.collectFirst { case (k, s) if !s.sameElements(states) => s"states at $k chunks" }
        .orElse((0 until T).find(t => chain.accepted(t) != flags(t)).map(t => s"Chain.accepted($t)"))
        .orElse((0 until T).find(t => joint.accepted(t) != flags(t)).map(t => s"JointChain.accepted($t)"))
        .orElse(Option.when(chain.acceptanceRate != rate || joint.acceptanceRate != rate)("acceptanceRate"))
        .orElse(Option.when(java.lang.Double.doubleToRawLongBits(chain.estimateHarmonic) !=
          java.lang.Double.doubleToRawLongBits(harmonic))(s"estimateHarmonic ${chain.estimateHarmonic}, reference $harmonic"))
      Prop(mismatch.isEmpty) :| s"${mismatch.getOrElse("")} on $c"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(2019L)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
    drew.result()
  }

  test("the walk gives the reference's states at every chunk count, and the chains derive its flags") {
    assert(matchesReference(cases) == Set("T = 0", "an all-zero table", "s0 outside the support"))
  }

  test("the walk reads only the drawn sources' rows: junk in every other row changes no state or flag") {
    matchesReference(partlyDrawn)
  }

  test("the walk gives the reference's states when every step is a near-tie of its accept test") {
    matchesReference(ties)
  }
}
