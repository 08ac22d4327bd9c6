package repro.bench

import repro.SparkSpec
import repro.core.Estimators
import repro.graph.CSRGraph
import repro.graphgen.GraphGen

/** T3 — stationarity: the §4.2 claim that the chain's stationary
  * distribution is the *optimal* sampling distribution π_r of [13] (Eq. 5).
  * Measured as the total-variation distance between the empirical state
  * distribution of one long chain and the exact π_r, at prefix checkpoints,
  * plus the acceptance rate.
  */
class T3StationarityBench extends SparkSpec {

  private val checkpoints = Seq(500, 2000, 10000, 50000)

  private def tvRow(name: String, g: CSRGraph, r: Int, kind: String): Seq[String] = {
    val pi = Estimators.exactPi(BenchUtil.deltaColumn(spark, name, g, r))
    val chain = BenchUtil.chain(spark, name, g, r, checkpoints.max, 99L)
    val tvs = checkpoints.map { t =>
      Estimators.tvDistance(Estimators.empiricalDist(chain.states.take(t + 1), g.n), pi)
    }
    assert(tvs.last < tvs.head, s"$name/$kind: TV should shrink along the chain")
    Seq(name, kind, r.toString) ++ tvs.map(BenchUtil.f(_, 4)) :+
      BenchUtil.f(chain.acceptanceRate, 3)
  }

  test("T3: TV distance to the optimal distribution vs chain length") {
    val karate = ("karate", CSRGraph.fromEdges(GraphGen.karateClub))
    val rows = Seq(
      tvRow(karate._1, karate._2, 0, "hub"),
      tvRow(karate._1, karate._2, 33, "hub2"),
    ) ++ BenchUtil.graphs.map { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      tvRow(name, g, BenchUtil.hub(g), "hub")
    }
    println(BenchUtil.table(
      "T3: TV(empirical chain distribution, optimal pi_r) and acceptance rate",
      Seq("graph", "probe", "r") ++ checkpoints.map(t => s"T=$t") :+ "acc.rate", rows))
  }

  test("T3b: on karate the chain TV drops below 0.05 by T=50000") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val pi = Estimators.exactPi(BenchUtil.deltaColumn(spark, "karate", g, 0))
    val chain = BenchUtil.chain(spark, "karate", g, 0, 50000, 123L)
    val tv = Estimators.tvDistance(Estimators.empiricalDist(chain.states, g.n), pi)
    assert(tv < 0.05, s"TV=$tv")
  }

  test("T3c: chain mass on supp(delta) is ~1 after warmup (optimal support)") {
    BenchUtil.graphs.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val r = BenchUtil.hub(g)
      val col = BenchUtil.deltaColumn(spark, name, g, r)
      val chain = BenchUtil.chain(spark, name, g, r, 5000, 7L)
      val inSupp = chain.states.drop(100).count(v => col(v) > 0)
      assert(inSupp == chain.states.length - 100,
        s"$name: chain left supp(delta) after warmup")
    }
  }
}
