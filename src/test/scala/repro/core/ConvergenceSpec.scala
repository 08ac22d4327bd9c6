package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen

/** Additional end-to-end convergence checks of the samplers on structured
  * graphs with analytically-known targets (all seeds fixed: deterministic).
  */
class ConvergenceSpec extends AnyFunSuite {

  test("harmonic estimator on path midpoint (BC = 2 i (n-1-i))") {
    val n = 15
    val g = CSRGraph.fromEdges(GraphGen.path(n))
    val r = 7
    val bc = 2.0 * 7 * 7
    val chain = MHSingle.run(g, r, 15000, 3L)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.15,
      s"est=${chain.estimateHarmonic} bc=$bc")
  }

  test("harmonic estimator on grid(4x4) center vertex") {
    val g = CSRGraph.fromEdges(GraphGen.grid(4, 4))
    val r = 5
    val bc = LocalBrandes.bc(g)(r)
    val chain = MHSingle.run(g, r, 15000, 5L)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.15)
  }

  test("harmonic estimator on doubleClique separator converges with few samples") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(20))
    val r = 40
    val bc = 2.0 * 20 * 20
    // Theorem 2: mu ~ 1, so even T=200 should be very accurate
    val chain = MHSingle.run(g, r, 200, 7L)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.05,
      s"est=${chain.estimateHarmonic} bc=$bc")
  }

  test("harmonic estimator on balanced tree root") {
    val g = CSRGraph.fromEdges(GraphGen.balancedTree(2, 4))
    val bc = LocalBrandes.bc(g)(0)
    val chain = MHSingle.run(g, 0, 15000, 11L)
    assert(math.abs(chain.estimateHarmonic - bc) / bc < 0.15)
  }

  test("joint sampler ratio on barbell path vertices (known asymmetric ratio)") {
    val g = CSRGraph.fromEdges(GraphGen.barbell(6, 3))
    val bc = LocalBrandes.bc(g)
    val R = Array(12, 13) // first and middle interior path vertices
    val chain = MHJoint.run(g, R, 30000, 13L)
    val est = chain.ratioEstimate(0, 1)
    val tru = bc(12) / bc(13)
    assert(math.abs(est - tru) / tru < 0.1, s"est=$est exact=$tru")
  }

  test("joint sampler relative score on doubleClique separator vs attachment") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(15))
    val R = Array(30, 0) // separator, attachment
    val chain = MHJoint.run(g, R, 30000, 17L)
    val eq19 = Estimators.exactEq19Expectation(LocalBrandes.dependencyColumn(g, 30), LocalBrandes.dependencyColumn(g, 0))
    assert(math.abs(chain.relativeEstimate(0, 1) - eq19) < 0.05)
  }

  test("chains from different seeds agree on the estimate (spread check)") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val bc = LocalBrandes.bc(g)(33)
    val ests = (1 to 8).map(s => MHSingle.run(g, 33, 10000, 200L + s).estimateHarmonic)
    val mean = ests.sum / ests.size
    assert(math.abs(mean - bc) / bc < 0.1, s"mean=$mean bc=$bc")
    // dispersion across seeds is moderate
    val sd = math.sqrt(ests.map(e => (e - mean) * (e - mean)).sum / ests.size)
    assert(sd / mean < 0.3, s"sd/mean=${sd / mean}")
  }

  test("MH beats the RK path sampler on a Theorem-2 vertex at equal budget") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(20))
    val r = 40
    val bc = 2.0 * 20 * 20
    val budget = 300
    def err(x: Double) = math.abs(x - bc) / bc
    val mhErr = (1 to 5).map(s => err(MHSingle.run(g, r, budget, 300L + s).estimateHarmonic)).sum / 5
    val rkErr = (1 to 5).map(s => err(Baselines.rkEstimate(g, r, budget, 300L + s))).sum / 5
    assert(mhErr < rkErr, s"mh=$mhErr rk=$rkErr")
  }

  test("uniform and distance samplers are unbiased in expectation (exhaustive)") {
    // exact expectation over the sample space, no randomness: uniform
    // estimator mean = (1/n) * sum_v n * delta_v(r) = BC(r); distance
    // estimator mean = sum_v p(v) * delta_v(r)/p(v) over supp(p) = BC(r)
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val r = 0
    val bc = LocalBrandes.bc(g)(r)
    val col = LocalBrandes.dependencyColumn(g, r)
    val uniformMean = col.map(d => g.n * d).sum / g.n
    assert(math.abs(uniformMean - bc) < 1e-9)
    val (dist, _, _) = LocalBrandes.spd(g, r)
    val total = dist.map(_.toDouble).sum
    val distanceMean = (0 until g.n).filter(dist(_) > 0)
      .map(v => dist(v) / total * (col(v) * total / dist(v))).sum
    assert(math.abs(distanceMean - bc) < 1e-9)
  }

  test("RK sampler hit probability equals BC/(n(n-1)) exhaustively on a path") {
    val n = 6
    val g = CSRGraph.fromEdges(GraphGen.path(n))
    // unique shortest paths: P[r interior | (s,t)] is 1{s<r<t or t<r<s}
    for (r <- 1 until n - 1) {
      val crossing = (for {
        s <- 0 until n; t <- 0 until n if s != t
        if (s < r && r < t) || (t < r && r < s)
      } yield 1).size
      val bc = LocalBrandes.bc(g)(r)
      assert(math.abs(crossing.toDouble - bc) < 1e-9, s"r=$r")
    }
  }
}
