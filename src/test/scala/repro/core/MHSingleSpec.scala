package repro.core

import repro.SparkSpec
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

class MHSingleSpec extends SparkSpec {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)
  private val karateBc = LocalBrandes.bc(karate)

  test("drawProposals is deterministic and in range") {
    val (v0a, pa) = MHSingle.drawProposals(34, 500, 7L)
    val (v0b, pb) = MHSingle.drawProposals(34, 500, 7L)
    assert(v0a == v0b && pa.sameElements(pb))
    assert(v0a >= 0 && v0a < 34)
    assert(pa.forall(p => p >= 0 && p < 34))
    val (_, pc) = MHSingle.drawProposals(34, 500, 8L)
    assert(!pa.sameElements(pc))
  }

  test("walk: chain starts at v0; rejected steps repeat the state") {
    val chain = MHSingle.run(karate, 0, 200, 3L)
    assert(chain.states.length == 201 && chain.proposals.length == 200)
    for (t <- 1 to 200) {
      if (chain.accepted(t - 1)) assert(chain.states(t) == chain.proposals(t - 1))
      else assert(chain.states(t) == chain.states(t - 1))
    }
  }

  test("chain is a pure function of (graph, r, T, seed)") {
    val a = MHSingle.run(karate, 33, 300, 11L)
    val b = MHSingle.run(karate, 33, 300, 11L)
    assert(a.states.sameElements(b.states))
  }

  test("run and runSpark produce bit-identical chains") {
    val loc = MHSingle.run(karate, 0, 400, 21L)
    val spk = MHSingle.runSpark(spark, karate, 0, 400, 21L)
    assert(loc.states.sameElements(spk.states))
    assert(java.util.Arrays.equals(loc.delta, spk.delta))
  }

  test("delta map is exact for every touched vertex") {
    val chain = MHSingle.run(karate, 0, 150, 5L)
    val touched = (chain.states ++ chain.proposals).toSet
    (0 until karate.n).foreach { v =>
      if (touched(v)) assert(chain.delta(v) == LocalBrandes.dependency(karate, v)(0), s"delta($v)")
      else assert(chain.delta(v).isNaN, s"delta($v) of an untouched vertex")
    }
  }

  test("zero-delta proposals are never accepted from a positive-delta state") {
    // star: delta_{leaf.}(center) = n-2 > 0, delta_{center.}(center) = 0
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 2000, 13L)
    for (t <- 1 to 2000 if chain.delta(chain.states(t - 1)) > 0 && chain.proposals(t - 1) == 0)
      assert(!chain.accepted(t - 1), s"accepted the zero-delta center at t=$t")
  }

  test("chain enters supp(delta) and never leaves it") {
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 2000, 13L)
    val firstIn = chain.states.indexWhere(v => chain.delta(v) > 0)
    assert(firstIn >= 0)
    (firstIn until chain.states.length).foreach(t =>
      assert(chain.delta(chain.states(t)) > 0.0, s"left support at t=$t"))
  }

  test("on star with r=center, every leaf-to-leaf move is accepted (pi uniform)") {
    val star = CSRGraph.fromEdges(GraphGen.star(10))
    val chain = MHSingle.run(star, 0, 1000, 17L)
    for (t <- 1 to 1000
         if chain.delta(chain.states(t - 1)) > 0 && chain.proposals(t - 1) != 0)
      assert(chain.accepted(t - 1), s"rejected an acceptance-ratio-1 move at t=$t")
  }

  test("estimateEq7 on star converges to (n-2)/(n-1), not BC — documented bias") {
    val n = 10
    val star = CSRGraph.fromEdges(GraphGen.star(n))
    val chain = MHSingle.run(star, 0, 4000, 19L)
    val expected = (n - 2.0) / (n - 1.0) // E_pi[delta]/(n-1): all support states have delta = n-2
    assert(math.abs(chain.estimateEq7 - expected) < 0.02,
      s"eq7=${chain.estimateEq7} expected≈$expected")
    // and the true BC(center) is (n-1)(n-2) = 72 — the Eq.7 normalization gap
    assert(math.abs(chain.estimateEq7 - (n - 1.0) * (n - 2.0)) > 10)
  }

  test("estimateHarmonic on star recovers BC(center) almost exactly") {
    val n = 10
    val star = CSRGraph.fromEdges(GraphGen.star(n))
    val chain = MHSingle.run(star, 0, 4000, 23L)
    val bc = (n - 1.0) * (n - 2.0)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.05,
      s"harmonic=${chain.estimateHarmonic} bc=$bc")
  }

  test("estimateHarmonic converges on karate for a hub vertex") {
    val chain = MHSingle.run(karate, 0, 20000, 29L)
    val rel = math.abs(chain.estimateHarmonic - karateBc(0)) / karateBc(0)
    assert(rel < 0.2, s"relative error $rel (est=${chain.estimateHarmonic}, bc=${karateBc(0)})")
  }

  test("estimateHarmonic error shrinks with T on karate (5 seeds averaged)") {
    def meanErr(t: Int): Double =
      (1 to 5).map { s =>
        val c = MHSingle.run(karate, 0, t, 100L + s)
        math.abs(c.estimateHarmonic - karateBc(0)) / karateBc(0)
      }.sum / 5
    assert(meanErr(8000) < meanErr(200),
      "mean relative error should decrease from T=200 to T=8000")
  }

  test("empirical state distribution approaches exact pi (TV decreases)") {
    val pi = Estimators.exactPi(LocalBrandes.dependencyColumn(karate, 0))
    def tv(t: Int): Double = {
      val chain = MHSingle.run(karate, 0, t, 31L)
      Estimators.tvDistance(Estimators.empiricalDist(chain.states, karate.n), pi)
    }
    val (tvSmall, tvBig) = (tv(200), tv(20000))
    assert(tvBig < tvSmall, s"TV should shrink: $tvBig vs $tvSmall")
    assert(tvBig < 0.1, s"TV at T=20000 should be small, got $tvBig")
  }

  test("acceptance rate is in (0,1) on karate and 1 when all deltas are equal") {
    val chain = MHSingle.run(karate, 0, 2000, 37L)
    assert(chain.acceptanceRate > 0.0 && chain.acceptanceRate < 1.0)
    // complete graph: every delta is 0 -> ratio convention 1 -> always accept
    val kg = CSRGraph.fromEdges(GraphGen.complete(7))
    assert(MHSingle.run(kg, 0, 500, 37L).acceptanceRate == 1.0)
  }

  test("walk escapes an initial zero-delta state") {
    val star = CSRGraph.fromEdges(GraphGen.star(6))
    // start the chain at the center (delta = 0); first non-center proposal accepted
    val (_, props) = MHSingle.drawProposals(6, 100, 41L)
    val chain = MHSingle.walk(0, 6, 41L, v0 = 0, props, LocalBrandes.dependencyColumn(star, 0))
    val firstLeafProp = props.indexWhere(_ != 0)
    assert(chain.accepted(firstLeafProp))
    assert(chain.states(firstLeafProp + 1) == props(firstLeafProp))
  }

  test("estimateHarmonic returns 0 when BC(r)=0 (complete graph)") {
    val g = CSRGraph.fromEdges(GraphGen.complete(6))
    val chain = MHSingle.run(g, 0, 500, 43L)
    assert(chain.estimateHarmonic == 0.0)
    assert(chain.estimateEq7 == 0.0)
  }

  test("delta tables: local == Spark for 1, 2, 7, 64 partitions") {
    val sources = LocalBrandes.markSources(karate.n, Seq.tabulate(100)(i => (i * 7) % karate.n))
    for (targets <- Seq(Array(0), Array(0, 33, 5))) {
      val local = LocalBrandes.dependencyTable(karate, sources, targets)
      for (parts <- Seq(1, 2, 7, 64)) {
        val viaSpark = SparkBrandes.dependencyTable(spark, karate, sources, targets, parts)
        assert(java.util.Arrays.equals(local, viaSpark),
          s"targets ${targets.mkString(",")}, $parts partitions")
      }
    }
  }

  test("a chain over the Spark job's column is run's, bit for bit, at 1, 2 and 7 partitions") {
    // runSpark builds on the driver on a local session: this keeps the job under the sampler
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    for ((g, r) <- Seq(karate -> 0, ba -> 17); parts <- Seq(1, 2, 7)) {
      val local = MHSingle.run(g, r, 2000, 61L)
      val viaSpark = MHSingle.sample(g.n, r, 2000, 61L)(SparkBrandes.dependencyTable(spark, g, _, Array(r), parts))
      assert(viaSpark.states.sameElements(local.states) && java.util.Arrays.equals(viaSpark.delta, local.delta),
        s"n = ${g.n}, $parts partitions")
    }
  }

  test("walk rejects an initial state or proposal outside [0, n), naming the step and the value") {
    val col = LocalBrandes.dependencyColumn(karate, 0)
    def rejected(v0: Int, props: Array[Int], message: String): Unit = {
      val e = intercept[IllegalArgumentException](MHSingle.walk(0, karate.n, 1L, v0, props, col))
      assert(e.getMessage.contains(message), e.getMessage)
    }
    rejected(34, Array(2), "vertex 34 at the initial state is outside [0, n = 34)")
    rejected(-1, Array(2), "vertex -1 at the initial state is outside [0, n = 34)")
    rejected(1, Array(2, 34, -1), "vertex 34 at step 1 is outside [0, n = 34)")
    rejected(1, Array(2, 3, -1), "vertex -1 at step 2 is outside [0, n = 34)")
    // two bad steps in the last of several chunks: the first one is named
    val props = MHSingle.drawProposals(karate.n, 100000, 3L)._2
    props(99000) = 34
    props(99500) = -5
    rejected(1, props, "vertex 34 at step 99000 is outside [0, n = 34)")
  }

  test("delta tables: non-NaN entries = distinct requested sources") {
    val requested = Seq(3, 1, 3, 30, 0, 1, 17)
    val sources = LocalBrandes.markSources(karate.n, requested)
    val columns = Seq(
      LocalBrandes.dependencyTable(karate, sources, Array(0)),
      SparkBrandes.dependencyTable(spark, karate, sources, Array(0)),
      SparkBrandes.dependenciesOnTarget(spark, karate, requested, 0))
    columns.foreach { col =>
      assert(col.length == karate.n)
      assert(col.indices.filterNot(v => col(v).isNaN).toSet == requested.toSet)
      requested.foreach(v => assert(col(v) == LocalBrandes.dependency(karate, v)(0), s"delta($v)"))
    }
  }

  test("run and runSpark reject a target outside [0, n)") {
    for (r <- Seq(-1, karate.n)) {
      val local = intercept[IllegalArgumentException](MHSingle.run(karate, r, 10, 1L))
      val viaSpark = intercept[IllegalArgumentException](MHSingle.runSpark(spark, karate, r, 10, 1L))
      Seq(local, viaSpark).foreach(e =>
        assert(e.getMessage.contains(s"target r=$r is not a vertex"), e.getMessage))
    }
  }

  test("run and runSpark reject a negative chain length") {
    val local = intercept[IllegalArgumentException](MHSingle.run(karate, 0, -1, 1L))
    val viaSpark = intercept[IllegalArgumentException](MHSingle.runSpark(spark, karate, 0, -1, 1L))
    Seq(local, viaSpark).foreach(e =>
      assert(e.getMessage.contains("chain length T=-1 must be non-negative"), e.getMessage))
  }

  test("walk fails on a proposal whose delta was not evaluated") {
    val col = LocalBrandes.dependencyColumn(karate, 0)
    col(5) = Double.NaN
    val e = intercept[NoSuchElementException](
      MHSingle.walk(0, karate.n, 1L, v0 = 1, Array(2, 5, 3), col))
    assert(e.getMessage.contains("source 5 was not evaluated"), e.getMessage)
  }

  test("the walk gives the same states and accepted flags at every chunk count") {
    def sameAtEveryChunkCount(what: String, seed: Long, s0: Int, props: Array[Int], weight: Array[Double],
                              width: Int): Unit = {
      // the acceptances are read off the states, so equal states give equal flags
      def walk(chunks: Int) = MHSingle.independenceWalk(seed, s0, props, weight.length / width, width, chunks)(_ => weight)._1
      val states = walk(1)
      for (chunks <- Seq(2, 3, 8, props.length + 5))
        assert(walk(chunks).sameElements(states), s"$what, $chunks chunks")
    }
    def single(what: String, g: CSRGraph, r: Int, T: Int, seed: Long): Unit = {
      val (v0, props) = MHSingle.drawProposals(g.n, T, seed)
      sameAtEveryChunkCount(what, seed, v0, props, LocalBrandes.dependencyColumn(g, r), 1)
    }
    // a hub (μ = 2.35: almost every chunk couples at once), and a leaf, whose
    // column is all 0, so δ_max = 0 and no chunk couples
    single("karate hub r = 0", karate, 0, 5000, 2019L)
    val leaf = (0 until karate.n).find(karate.degree(_) == 1).get
    single(s"karate leaf r = $leaf", karate, leaf, 3000, 5L)
    // μ(r) near n = 300 against 250-step chunks at 8 chunks: many chunks have no coupling point
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    val all = LocalBrandes.dependencyTable(ba, LocalBrandes.allSources(ba.n), Array.range(0, ba.n))
    val mus = Array.tabulate(ba.n)(r => Theory.mu(Array.tabulate(ba.n)(v => all(v * ba.n + r))))
    val worst = mus.indices.filter(r => !mus(r).isInfinite).maxBy(mus)
    assert(mus(worst) > 100, s"largest finite μ is ${mus(worst)}")
    single(s"BA(300,3) r = $worst (μ = ${mus(worst)})", ba, worst, 2000, 11L)
    // the joint chain's flat states v·|R| + k over a 2Clique, with a BC-0 member in R
    val dc = CSRGraph.fromEdges(GraphGen.doubleClique(4))
    val R = Array(8, 0, 1)
    val (r0, v0, pr, pv) = MHJoint.drawProposals(R.length, dc.n, 4000, 23L)
    sameAtEveryChunkCount("joint 2Clique", 23L, v0 * R.length + r0, Array.tabulate(4000)(t => pv(t) * R.length + pr(t)),
      LocalBrandes.dependencyTable(dc, LocalBrandes.allSources(dc.n), R), R.length)
  }

  test("an unevaluated delta in a late chunk fails naming the first one in chain order, at every chunk count") {
    val col = LocalBrandes.dependencyColumn(karate, 0)
    // vertices 5 and 9 are proposed only at steps 760 and 990 (chunks 6 and 7 of 8)
    val props = MHSingle.drawProposals(karate.n, 1000, 3L)._2.map(v => if (v == 5 || v == 9) 0 else v)
    props(760) = 5
    props(990) = 9
    col(5) = Double.NaN
    col(9) = Double.NaN
    for (chunks <- Seq(1, 2, 3, 8, props.length + 5)) {
      val e = intercept[NoSuchElementException](MHSingle.independenceWalk(1L, 1, props, col.length, 1, chunks)(_ => col))
      assert(e.getMessage == "the dependency of source 5 was not evaluated", s"$chunks chunks: ${e.getMessage}")
    }
  }

  test("estimators return NaN, not a silent value, when a sampled delta is missing") {
    val chain = MHSingle.run(karate, 0, 300, 47L)
    def withMissing(v: Int): Chain = {
      val col = chain.delta.clone()
      col(v) = Double.NaN
      chain.copy(delta = col)
    }
    assert(withMissing(chain.proposals.last).estimateHarmonic.isNaN)
    val noStart = withMissing(chain.states(0))
    assert(noStart.estimateEq7.isNaN && noStart.ergodicMeanDelta.isNaN && noStart.estimateHarmonic.isNaN)
  }

  test("walk fails fast on a negative or +∞ dependency of a drawn source, naming the source") {
    for (bad <- Seq(Double.PositiveInfinity, -1.0)) {
      val col = LocalBrandes.dependencyColumn(karate, 0)
      col(5) = bad
      val e = intercept[IllegalArgumentException](
        MHSingle.walk(0, karate.n, 1L, v0 = 1, Array(2, 5, 3), col))
      assert(e.getMessage.contains(s"the dependency of source 5 is $bad"), e.getMessage)
    }
  }

  test("walk needs only the drawn sources' dependencies: a NaN elsewhere walks") {
    val col = LocalBrandes.dependencyColumn(karate, 0)
    val (v0, props) = MHSingle.drawProposals(karate.n, 20, 3L)
    val undrawn = (0 until karate.n).filter(v => v != v0 && !props.contains(v))
    assert(undrawn.nonEmpty)
    // neither checked nor read: not even a negative, +∞ or larger δ elsewhere
    for (junk <- Seq(Double.NaN, -1.0, Double.PositiveInfinity, 1e9)) {
      val holed = col.clone()
      undrawn.foreach(holed(_) = junk)
      assert(MHSingle.walk(0, karate.n, 3L, v0, props, holed).states
        .sameElements(MHSingle.walk(0, karate.n, 3L, v0, props, col).states), s"$junk elsewhere")
    }
  }

  test("sample calls its builder once per chain, on exactly the drawn sources") {
    for ((steps, seed) <- Seq((0, 1L), (20, 3L), (5000, 7L))) {
      val (v0, props) = MHSingle.drawProposals(karate.n, steps, seed)
      val calls = Seq.newBuilder[java.util.BitSet]
      val chain = MHSingle.sample(karate.n, 0, steps, seed) { drawn =>
        calls += drawn.clone().asInstanceOf[java.util.BitSet]
        LocalBrandes.dependencyTable(karate, drawn, Array(0))
      }
      assert(calls.result() == Seq(LocalBrandes.markSources(karate.n, v0, props)), s"T = $steps")
      assert(chain.states.sameElements(MHSingle.run(karate, 0, steps, seed).states), s"T = $steps")
    }
  }

  test("on karate ⊎ path(10) the other component has δ = 0 and the harmonic estimate finds BC(0)") {
    val g = CSRGraph.fromEdges(TestGraphs.disjointUnion(GraphGen.karateClub, GraphGen.path(10)))
    assert(LocalBrandes.dependencyColumn(g, 0).drop(karate.n).forall(_ == 0.0))
    val bc = LocalBrandes.bc(g)(0)
    val chain = MHSingle.run(g, 0, 20000, 29L)
    assert(chain.states.forall(v => v < karate.n || chain.delta(v) == 0.0))
    val rel = math.abs(chain.estimateHarmonic - bc) / bc
    assert(rel < 0.2, s"relative error $rel (est=${chain.estimateHarmonic}, bc=$bc)")
  }

  test("a recorded chain replays through walk from its own fields, from run and runSpark") {
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    for (chain <- Seq(MHSingle.run(ba, 17, 3000, 53L), MHSingle.runSpark(spark, ba, 17, 3000, 53L))) {
      val replay = MHSingle.walk(chain.r, chain.n, chain.seed, chain.states(0), chain.proposals, chain.delta)
      assert(replay.states.sameElements(chain.states))
    }
  }
}
