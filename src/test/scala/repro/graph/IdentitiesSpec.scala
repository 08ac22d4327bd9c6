package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Estimators, Theory}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

/** Cross-cutting graph-theoretic identities that tie the implementation's
  * pieces to each other — failures here mean two independently-correct-looking
  * components disagree about the same mathematical object.
  */
class IdentitiesSpec extends AnyFunSuite {

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("sum of all BC equals sum over ordered pairs of (d(s,t) - 1)") {
    // every shortest path has exactly d-1 interior vertices, and
    // sum_v sigma_st(v)/sigma_st = d(s,t) - 1 for each ordered pair
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val bcSum = LocalBrandes.bc(g).sum
      val distSum = (0 until g.n).map { s =>
        val (dist, _, _) = LocalBrandes.spd(g, s)
        (0 until g.n).filter(_ != s).map(t => dist(t) - 1.0).sum
      }.sum
      assert(approxEq(bcSum, distSum), s"$name: $bcSum vs $distSum")
    }
  }

  test("sum-of-BC identity on random graphs") {
    TestGraphs.sampleGraphs(15).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val bcSum = LocalBrandes.bc(g).sum
      val distSum = (0 until g.n).map { s =>
        val (dist, _, _) = LocalBrandes.spd(g, s)
        (0 until g.n).filter(_ != s).map(t => dist(t) - 1.0).sum
      }.sum
      assert(approxEq(bcSum, distSum))
    }
  }

  test("dependency scores are bounded by n - 2") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      for (s <- 0 until g.n) {
        val d = LocalBrandes.dependency(g, s)
        d.foreach(x => assert(x <= g.n - 2 + 1e-9, s"$name from $s"))
      }
    }
  }

  test("mu(r) equals |V| times the max of the optimal distribution pi_r") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      for (r <- 0 until g.n if bc(r) > 0) {
        val col = LocalBrandes.dependencyColumn(g, r)
        assert(approxEq(Theory.mu(col), g.n * Estimators.exactPi(col).max), s"$name r=$r")
      }
    }
  }

  test("Eq.14 bound is consistent with the Eq.12 tail: P[err] <= delta at T=bound") {
    for (mu <- Seq(1.5, 3.0, 10.0); eps <- Seq(0.05, 0.1); delta <- Seq(0.05, 0.1)) {
      val bound = Theory.sampleBound(mu, eps, delta)
      // Eq.12's tail at T = bound (without the 3/T slack) equals delta; with
      // the slack it approaches delta from above as T grows, so check 2x bound
      val p = Theory.errorProbability(mu, eps, math.ceil(bound * 2).toInt)
      assert(p <= delta * 1.5, s"mu=$mu eps=$eps delta=$delta: p=$p")
    }
  }

  test("doubleClique symmetry: all non-attachment clique vertices share BC") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(6))
    val bc = LocalBrandes.bc(g)
    val inner = (1 until 6) ++ (7 until 12) // non-attachment vertices
    inner.foreach(v => assert(approxEq(bc(v), bc(1)), s"BC($v)"))
    assert(approxEq(bc(0), bc(6)), "the two attachment vertices are symmetric")
  }

  test("dependency column of the separator is flat on 2-clique graphs") {
    val k = 6
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(k))
    val col = LocalBrandes.dependencyColumn(g, 2 * k)
    (0 until 2 * k).foreach(v => assert(approxEq(col(v), k.toDouble), s"delta($v)"))
    assert(col(2 * k) == 0.0)
  }

  test("pi_r of the separator is uniform over the cliques (optimal case)") {
    val k = 6
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(k))
    val pi = Estimators.exactPi(LocalBrandes.dependencyColumn(g, 2 * k))
    (0 until 2 * k).foreach(v => assert(approxEq(pi(v), 1.0 / (2 * k))))
  }

  test("tree: BC of the root equals ordered pairs crossing it") {
    // balanced binary tree depth 3: root separates its two subtrees (7+7)
    val g = CSRGraph.fromEdges(GraphGen.balancedTree(2, 3))
    val bc = LocalBrandes.bc(g)
    // pairs crossing the root: 2 * 7 * 7 (ordered, between subtrees)
    assert(approxEq(bc(0), 2.0 * 7 * 7))
  }

  test("cut-vertex dependency lower bound: delta_v(r) >= cross-component pairs") {
    // for a cut vertex r and v in component C_i, every vertex outside C_i is
    // separated from v by r, so delta_v(r) >= V_i
    val g = CSRGraph.fromEdges(GraphGen.barbell(4, 3))
    for (r <- 8 to 10) { // interior path vertices
      val comps = g.componentsWithout(r)
      val col = LocalBrandes.dependencyColumn(g, r)
      comps.foreach { comp =>
        val outside = g.n - 1 - comp.size
        comp.foreach(v => assert(col(v) >= outside - 1e-9, s"r=$r v=$v"))
      }
    }
  }

  test("spd sigma at distance-1 neighbours is 1") {
    TestGraphs.sampleGraphs(10).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val (dist, sigma, _) = LocalBrandes.spd(g, 0)
      (0 until g.n).filter(dist(_) == 1).foreach(v => assert(sigma(v) == 1.0))
    }
  }

  test("sigma is symmetric: sigma_st = sigma_ts") {
    TestGraphs.sampleGraphs(8).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val sigmas = (0 until g.n).map(s => LocalBrandes.spd(g, s)._2)
      for (s <- 0 until g.n; t <- s + 1 until g.n)
        assert(sigmas(s)(t) == sigmas(t)(s), s"sigma($s,$t)")
    }
  }
}
