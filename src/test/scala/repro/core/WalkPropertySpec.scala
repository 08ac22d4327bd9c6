package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** A seeded ScalaCheck property of [[MHSingle.independenceWalk]]: on random
  * weight tables of 1 to 4 entries per source, with zeros and ties, all-zero
  * tables and tables with one positive entry, the chunked walk gives the
  * [[ReferenceWalk]]'s states at every chunk count, and the flags both chain
  * kinds derive from their states are the reference's flags; also when only
  * some sources are drawn and the other rows hold junk.
  */
class WalkPropertySpec extends AnyFunSuite {

  private case class Case(seed: Long, width: Int, weight: Array[Double], s0: Int, proposals: Array[Int]) {
    override def toString: String =
      s"seed $seed, width $width, T ${proposals.length}, s0 $s0, weight ${weight.mkString("[", ",", "]")}"
  }

  private val tables: Gen[(Int, Array[Double])] = for {
    width <- Gen.choose(1, 4)
    sources <- Gen.choose(1, 12)
    size = sources * width
    weight <- Gen.oneOf(
      Gen.listOfN(size, Gen.oneOf(0.0, 0.0, 1.0, 1.0, 2.0, 0.25, 3.5, 7.0)).map(_.toArray),
      Gen.const(new Array[Double](size)),
      Gen.choose(0, size - 1).map(i => Array.tabulate(size)(j => if (j == i) 4.5 else 0.0)))
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

  private def matchesReference(gen: Gen[Case]): Unit = {
    val prop = Prop.forAllNoShrink(gen) { c =>
      val T = c.proposals.length
      val n = c.weight.length / c.width
      val (states, flags) = ReferenceWalk(c.seed, c.s0, c.proposals, c.weight)
      val walks = Seq(1, 2, 3, 8, T + 5).map(k =>
        k -> MHSingle.independenceWalk(c.seed, c.s0, c.proposals, n, c.width, k)(_ => c.weight)._1)
      val walked = walks.head._2
      val chain = Chain(0, c.weight.length, c.seed, walked, c.proposals, c.weight)
      val joint = JointChain(Array.range(0, c.width), n, c.seed, walked, c.proposals, c.weight)
      val rate = if (T == 0) 0.0 else flags.count(identity).toDouble / T
      val mismatch = walks.collectFirst { case (k, s) if !s.sameElements(states) => s"states at $k chunks" }
        .orElse((0 until T).find(t => chain.accepted(t) != flags(t)).map(t => s"Chain.accepted($t)"))
        .orElse((0 until T).find(t => joint.accepted(t) != flags(t)).map(t => s"JointChain.accepted($t)"))
        .orElse(Option.when(chain.acceptanceRate != rate || joint.acceptanceRate != rate)("acceptanceRate"))
      Prop(mismatch.isEmpty) :| s"${mismatch.getOrElse("")} on $c"
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(Seed(2019L)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  test("the walk gives the reference's states at every chunk count, and the chains derive its flags") {
    matchesReference(cases)
  }

  test("the walk reads only the drawn sources' rows: junk in every other row changes no state or flag") {
    matchesReference(partlyDrawn)
  }
}
