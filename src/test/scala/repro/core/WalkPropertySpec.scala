package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** A seeded ScalaCheck property of [[MHSingle.independenceWalk]]: on random
  * weight tables of 1 to 4 entries per source, with zeros and ties, all-zero
  * tables and tables with one positive entry, the chunked walk gives the
  * [[ReferenceWalk]]'s states at every chunk count, and the flags both chain
  * kinds derive from their states are the reference's flags.
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

  test("the walk gives the reference's states at every chunk count, and the chains derive its flags") {
    val prop = Prop.forAllNoShrink(cases) { c =>
      val T = c.proposals.length
      val (states, flags) = ReferenceWalk(c.seed, c.s0, c.proposals, c.weight)
      val walks = Seq(1, 2, 3, 8, T + 5).map(k => k -> MHSingle.independenceWalk(c.seed, c.s0, c.proposals, c.weight, c.width, k))
      val walked = walks.head._2
      val chain = Chain(0, c.weight.length, c.seed, walked, c.proposals, c.weight)
      val joint = JointChain(Array.range(0, c.width), c.weight.length / c.width, c.seed, walked, c.proposals, c.weight)
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
}
