package repro.core

import repro.SparkSpec
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

class MHJointSpec extends SparkSpec {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)
  private val karateBc = LocalBrandes.bc(karate)

  // the coordinates of a flat state or proposal s = v·|R| + k
  private def rIndex(chain: JointChain, s: Int): Int = s % chain.R.length
  private def vertex(chain: JointChain, s: Int): Int = s / chain.R.length

  test("drawProposals deterministic, in range on both coordinates") {
    val (r0, v0, pr, pv) = MHJoint.drawProposals(4, 34, 300, 7L)
    val (r0b, v0b, prb, pvb) = MHJoint.drawProposals(4, 34, 300, 7L)
    assert(r0 == r0b && v0 == v0b && pr.sameElements(prb) && pv.sameElements(pvb))
    assert(r0 >= 0 && r0 < 4 && v0 >= 0 && v0 < 34)
    assert(pr.forall(x => x >= 0 && x < 4) && pv.forall(x => x >= 0 && x < 34))
  }

  test("walk mechanics: rejected steps repeat both coordinates") {
    val R = Array(0, 33, 2)
    val chain = MHJoint.run(karate, R, 300, 3L)
    for (t <- 1 to 300) {
      val (cur, prev, prop) = (chain.states(t), chain.states(t - 1), chain.proposals(t - 1))
      if (chain.accepted(t - 1)) {
        assert(rIndex(chain, cur) == rIndex(chain, prop))
        assert(vertex(chain, cur) == vertex(chain, prop))
      } else {
        assert(rIndex(chain, cur) == rIndex(chain, prev))
        assert(vertex(chain, cur) == vertex(chain, prev))
      }
    }
  }

  test("run and runSpark produce bit-identical joint chains") {
    val R = Array(0, 33)
    val loc = MHJoint.run(karate, R, 400, 11L)
    val spk = MHJoint.runSpark(spark, karate, R, 400, 11L)
    assert(loc.states.map(rIndex(loc, _)).sameElements(spk.states.map(rIndex(spk, _))))
    assert(loc.states.map(vertex(loc, _)).sameElements(spk.states.map(vertex(spk, _))))
    assert(java.util.Arrays.equals(loc.delta, spk.delta))
  }

  test("a joint chain over the Spark job's table is run's, bit for bit, at 1, 2 and 7 partitions") {
    // runSpark builds on the driver on a local session: this keeps the job under the sampler
    val R = Array(0, 33, 5)
    val local = MHJoint.run(karate, R, 2000, 61L)
    for (parts <- Seq(1, 2, 7)) {
      val viaSpark = MHJoint.sample(karate.n, R, 2000, 61L)(SparkBrandes.dependencyTable(spark, karate, _, R, parts))
      assert(viaSpark.states.sameElements(local.states) && viaSpark.proposals.sameElements(local.proposals) &&
        java.util.Arrays.equals(viaSpark.delta, local.delta), s"$parts partitions")
    }
  }

  test("delta table is exact: delta(v)(k) = local dependencyOn(v, R(k))") {
    val R = Array(0, 33, 5)
    val chain = MHJoint.run(karate, R, 200, 13L)
    val touched = (chain.states ++ chain.proposals).map(vertex(chain, _)).toSet
    assert(chain.delta.length == karate.n * R.length)
    for (v <- 0 until karate.n; (r, k) <- R.zipWithIndex) {
      val d = chain.delta(v * R.length + k)
      if (touched(v)) assert(d == LocalBrandes.dependency(karate, v)(r), s"delta_{$v}($r)")
      else assert(d.isNaN, s"delta_{$v}($r) of an untouched vertex")
    }
  }

  test("sampleIndices partitions 0..T across the members of R") {
    val R = Array(0, 33, 2)
    val chain = MHJoint.run(karate, R, 500, 17L)
    val all = R.indices.flatMap(chain.sampleIndices).sorted
    assert(all == (0 to 500))
  }

  test("ratioEstimate converges to the exact BC ratio on karate (hubs)") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 30000, 19L)
    val est = chain.ratioEstimate(0, 1)
    val exact = karateBc(0) / karateBc(33)
    assert(math.abs(est - exact) / exact < 0.15,
      s"ratio est=$est exact=$exact")
    // the reciprocal pair is consistent by construction
    assert(math.abs(chain.ratioEstimate(1, 0) - 1.0 / est) < 1e-12)
  }

  test("ratioEstimate converges on a 4-vertex probe set (all pairs within 25%)") {
    val R = Array(0, 33, 2, 31)
    val chain = MHJoint.run(karate, R, 60000, 23L)
    for (i <- R.indices; j <- R.indices if i != j) {
      val est = chain.ratioEstimate(i, j)
      val exact = karateBc(R(i)) / karateBc(R(j))
      assert(math.abs(est - exact) / exact < 0.25,
        s"pair (${R(i)},${R(j)}): est=$est exact=$exact")
    }
  }

  test("relativeEstimate converges to the Eq.19 expectation, not Eq.23 — documented") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 29L)
    val est = chain.relativeEstimate(0, 1)
    val eq19 = Estimators.exactEq19Expectation(
      LocalBrandes.dependencyColumn(karate, 0), LocalBrandes.dependencyColumn(karate, 33))
    assert(math.abs(est - eq19) < 0.05, s"est=$est eq19=$eq19")
  }

  test("conditional v-distribution given r=r_j approaches pi_{r_j}") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 31L)
    val idx = chain.sampleIndices(0)
    val states = idx.map(t => vertex(chain, chain.states(t))).toArray
    val tv = Estimators.tvDistance(
      Estimators.empiricalDist(states, karate.n), Estimators.exactPi(LocalBrandes.dependencyColumn(karate, 0)))
    assert(tv < 0.15, s"TV=$tv")
  }

  test("marginal r-distribution weights r_j by BC(r_j) (Eq. 18)") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 40000, 37L)
    val frac0 = chain.sampleIndices(0).size.toDouble / (chain.T + 1)
    val expected = karateBc(0) / (karateBc(0) + karateBc(33))
    assert(math.abs(frac0 - expected) < 0.1, s"frac=$frac0 expected=$expected")
  }

  test("relativeEstimate is NaN for an r never visited (empty S(j))") {
    // R includes a zero-BC vertex of a star: it is never accepted after the
    // chain enters the support, so with a center-start it may appear, but a
    // leaf of a complete graph has BC 0 everywhere: use a 2-set where one
    // member can never host samples once the chain moves away.
    val star = CSRGraph.fromEdges(GraphGen.star(8))
    val R = Array(0, 1) // center (high BC), leaf (BC 0)
    val chain = MHJoint.run(star, R, 5000, 41L)
    // all stationary samples sit on r=center; leaf samples are at most transient
    assert(chain.sampleIndices(0).size > 4500)
  }

  test("acceptance rate within (0,1] and deterministic") {
    val R = Array(0, 2)
    val a = MHJoint.run(karate, R, 1000, 43L)
    val b = MHJoint.run(karate, R, 1000, 43L)
    assert(a.acceptanceRate == b.acceptanceRate)
    assert(a.acceptanceRate > 0.0 && a.acceptanceRate <= 1.0)
  }

  private def rejected(f: => Any, message: String): Unit = {
    val e = intercept[IllegalArgumentException](f)
    assert(e.getMessage.contains(message), e.getMessage)
  }

  private def bothRejected(R: Array[Int], T: Int, message: String): Unit = {
    rejected(MHJoint.run(karate, R, T, 1L), message)
    rejected(MHJoint.runSpark(spark, karate, R, T, 1L), message)
  }

  test("run and runSpark reject an empty target set") {
    bothRejected(Array.empty[Int], 10, "target set R must be non-empty")
  }

  test("run and runSpark reject a target set with a vertex outside [0, n)") {
    bothRejected(Array(0, karate.n), 10, "has a vertex outside [0, 34)")
    bothRejected(Array(-1, 3), 10, "has a vertex outside [0, 34)")
  }

  test("run and runSpark reject a target set with repeated vertices") {
    bothRejected(Array(0, 33, 0), 10, "target set R={0,33,0} has repeated vertices")
  }

  test("run and runSpark reject a negative chain length") {
    bothRejected(Array(0, 33), -5, "chain length T=-5 must be non-negative")
  }

  test("relativeEstimate is NaN, not a silent value, when a sampled delta is missing") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 300, 47L)
    val table = chain.delta.clone()
    val (r0, v0) = (rIndex(chain, chain.states(0)), vertex(chain, chain.states(0)))
    table(v0 * R.length + r0) = Double.NaN
    val broken = chain.copy(delta = table)
    assert(broken.relativeEstimate(0, r0).isNaN)
    assert(!chain.relativeEstimate(0, r0).isNaN)
  }

  test("walk fails on a proposal whose delta was not evaluated, naming the vertex") {
    val R = Array(0, 33, 2)
    val table = LocalBrandes.dependencyTable(karate, LocalBrandes.allSources(karate.n), R)
    R.indices.foreach(k => table(5 * R.length + k) = Double.NaN)
    val e = intercept[NoSuchElementException](
      MHJoint.walk(R, karate.n, 1L, r0 = 0, v0 = 1, Array(1, 2, 0), Array(2, 5, 3), table))
    assert(e.getMessage.contains("source 5 was not evaluated"), e.getMessage)
    assert(!e.getMessage.contains(s"source ${5 * R.length + 2} "), e.getMessage)
  }

  test("walk fails fast on a negative or +∞ dependency of a drawn source, naming the source") {
    val R = Array(0, 33, 2)
    for (bad <- Seq(Double.PositiveInfinity, -1.0)) {
      val table = LocalBrandes.dependencyTable(karate, LocalBrandes.allSources(karate.n), R)
      table(5 * R.length + 1) = bad
      val e = intercept[IllegalArgumentException](
        MHJoint.walk(R, karate.n, 1L, r0 = 0, v0 = 1, Array(1, 2, 0), Array(2, 5, 3), table))
      assert(e.getMessage.contains(s"the dependency of source 5 is $bad"), e.getMessage)
    }
  }

  test("walk needs only the drawn sources' dependencies: a NaN row elsewhere walks") {
    val R = Array(0, 33)
    val table = LocalBrandes.dependencyTable(karate, LocalBrandes.allSources(karate.n), R)
    val (r0, v0, pr, pv) = MHJoint.drawProposals(R.length, karate.n, 20, 3L)
    val undrawn = (0 until karate.n).filter(v => v != v0 && !pv.contains(v))
    assert(undrawn.nonEmpty)
    // neither checked nor read: not even a negative, +∞ or larger δ elsewhere
    for (junk <- Seq(Double.NaN, -1.0, Double.PositiveInfinity, 1e9)) {
      val holed = table.clone()
      for (v <- undrawn; k <- R.indices) holed(v * R.length + k) = junk
      val a = MHJoint.walk(R, karate.n, 3L, r0, v0, pr, pv, holed)
      val b = MHJoint.walk(R, karate.n, 3L, r0, v0, pr, pv, table)
      assert(a.states.map(rIndex(a, _)).sameElements(b.states.map(rIndex(b, _))) &&
        a.states.map(vertex(a, _)).sameElements(b.states.map(vertex(b, _))), s"$junk elsewhere")
    }
  }

  test("walk checks a drawn source's whole row: a NaN at an r-index never drawn fails, naming the source") {
    val R = Array(0, 33, 2)
    val table = LocalBrandes.dependencyTable(karate, LocalBrandes.allSources(karate.n), R)
    // source 5 is drawn once, at r-index 1; a builder fills whole rows, so a hole at r-index 2 is a fault
    table(5 * R.length + 2) = Double.NaN
    val e = intercept[NoSuchElementException](
      MHJoint.walk(R, karate.n, 1L, r0 = 0, v0 = 1, Array(1, 2, 0), Array(2, 5, 3), table))
    assert(e.getMessage == "the dependency of source 5 was not evaluated", e.getMessage)
  }

  test("sample calls its builder once per chain, on exactly the drawn sources") {
    val R = Array(0, 33, 2)
    for ((steps, seed) <- Seq((0, 1L), (20, 3L), (5000, 7L))) {
      val (_, v0, _, pv) = MHJoint.drawProposals(R.length, karate.n, steps, seed)
      val calls = Seq.newBuilder[java.util.BitSet]
      val chain = MHJoint.sample(karate.n, R, steps, seed) { drawn =>
        calls += drawn.clone().asInstanceOf[java.util.BitSet]
        LocalBrandes.dependencyTable(karate, drawn, R)
      }
      assert(calls.result() == Seq(LocalBrandes.markSources(karate.n, v0, pv)), s"T = $steps")
      assert(chain.states.sameElements(MHJoint.run(karate, R, steps, seed).states), s"T = $steps")
    }
  }

  test("on karate ⊎ path(10) an R spanning both components has disjoint supports: Eq. 22 sums only the transient") {
    val g = CSRGraph.fromEdges(TestGraphs.disjointUnion(GraphGen.karateClub, GraphGen.path(10)))
    val R = Array(0, karate.n + 4)
    val startsOutside = (1 to 8).count { seed =>
      val chain = MHJoint.run(g, R, 5000, seed.toLong)
      def d(t: Int, k: Int): Double = chain.delta(vertex(chain, chain.states(t)) * R.length + k)
      def r(t: Int): Int = rIndex(chain, chain.states(t))
      // the chain enters the support at its first state with δ > 0 and stays,
      // and there every sample carries δ = 0 for the other member of R
      val in = (0 to chain.T).indexWhere(t => d(t, r(t)) > 0.0)
      assert(in >= 0 && (in to chain.T).forall(t => d(t, 1 - r(t)) == 0.0), s"seed $seed")
      if (in == 0) assert(chain.ratioEstimate(0, 1).isNaN && chain.ratioEstimate(1, 0).isNaN, s"seed $seed")
      for ((i, j) <- Seq((0, 1), (1, 0))) {
        val transient = (0 until in).count(t => r(t) == j && d(t, i) > 0.0)
        assert(chain.relativeEstimate(i, j) == transient.toDouble / chain.sampleIndices(j).length, s"seed $seed")
      }
      in > 0
    }
    assert(startsOutside > 0 && startsOutside < 8, s"$startsOutside of 8 chains start outside the support")
  }

  test("a recorded joint chain replays through walk from its own fields, from run and runSpark") {
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    val R = Array(3, 17, 150)
    for (chain <- Seq(MHJoint.run(ba, R, 3000, 53L), MHJoint.runSpark(spark, ba, R, 3000, 53L))) {
      val replay = MHJoint.walk(chain.R, chain.n, chain.seed,
        rIndex(chain, chain.states(0)), vertex(chain, chain.states(0)),
        chain.proposals.map(rIndex(chain, _)), chain.proposals.map(vertex(chain, _)), chain.delta)
      assert(replay.states.map(rIndex(replay, _)).sameElements(chain.states.map(rIndex(chain, _))) &&
        replay.states.map(vertex(replay, _)).sameElements(chain.states.map(vertex(chain, _))))
    }
  }

  test("walk rejects an initial state or proposal outside R × V(G), and mismatched proposal lengths, naming the step") {
    val R = Array(0, 33)
    val table = LocalBrandes.dependencyTable(karate, LocalBrandes.allSources(karate.n), R)
    def walk(r0: Int, v0: Int, propsR: Array[Int], propsV: Array[Int]): JointChain =
      MHJoint.walk(R, karate.n, 1L, r0, v0, propsR, propsV, table)
    // an r-index of 2 with |R| = 2 would read the next vertex's row
    rejected(walk(0, 1, Array(2), Array(3)), "r-index 2 at step 0 is outside [0, |R| = 2)")
    rejected(walk(0, 1, Array(0, 1, -1), Array(3, 4, 5)), "r-index -1 at step 2 is outside [0, |R| = 2)")
    rejected(walk(2, 1, Array(0), Array(3)), "r-index 2 at the initial state is outside [0, |R| = 2)")
    rejected(walk(0, 34, Array(0), Array(3)), "vertex 34 at the initial state is outside [0, n = 34)")
    rejected(walk(0, 1, Array(1, 0), Array(3, 34)), "vertex 34 at step 1 is outside [0, n = 34)")
    rejected(walk(0, 1, Array(1), Array(-1)), "vertex -1 at step 0 is outside [0, n = 34)")
    rejected(walk(0, 1, Array(1, 0), Array(3)), "propsR has 2 steps and propsV has 1; they must be equal")
    rejected(walk(0, 1, Array(1), Array(3, 4)), "propsR has 1 steps and propsV has 2; they must be equal")
    // in range, the same walk moves through the flat state of the proposed pair
    val chain = walk(0, 1, Array(1), Array(3))
    assert(chain.proposals.sameElements(Array(3 * R.length + 1)) && chain.states(0) == 1 * R.length)
  }

  test("relativeEstimate and ratioEstimate reject an index outside R, naming it and |R|") {
    val R = Array(0, 33)
    val chain = MHJoint.run(karate, R, 300, 47L)
    rejected(chain.relativeEstimate(2, 0), "index i=2 is not an index into R, |R| = 2")
    rejected(chain.relativeEstimate(0, 5), "index j=5 is not an index into R, |R| = 2")
    rejected(chain.relativeEstimate(-1, 0), "index i=-1 is not an index into R, |R| = 2")
    rejected(chain.ratioEstimate(0, 2), "index j=2 is not an index into R, |R| = 2")
    assert(!chain.ratioEstimate(0, 1).isNaN)
  }
}
