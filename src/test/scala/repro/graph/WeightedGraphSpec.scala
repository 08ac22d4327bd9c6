package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Estimators, MHSingle}
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

class WeightedGraphSpec extends AnyFunSuite {

  private val Eps = 1e-9

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Deterministic small integer weights, so tie cases actually occur. */
  private def wf(e: (Int, Int)): Double = TestGraphs.smallWeights(e)

  /** Naive weighted reference: Floyd-Warshall distances + DP sigma. */
  private def naiveWeighted(el: EdgeList, weight: ((Int, Int)) => Double)
      : (Array[Array[Double]], Array[Array[Double]]) = {
    val n = el.n
    val INF = Double.PositiveInfinity
    val d = Array.fill(n, n)(INF)
    for (v <- 0 until n) d(v)(v) = 0.0
    val wEdge = scala.collection.mutable.HashMap.empty[(Int, Int), Double]
    el.edges.foreach { case e @ (u, v) =>
      val w = weight(e)
      d(u)(v) = w; d(v)(u) = w; wEdge((u, v)) = w; wEdge((v, u)) = w
    }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    val sigma = Array.fill(n, n)(0.0)
    for (s <- 0 until n) {
      sigma(s)(s) = 1.0
      for (t <- (0 until n).sortBy(d(s)(_)) if t != s)
        // .iterator: keys is a Set, and collecting bare Doubles through a Set
        // would dedupe equal sigma contributions
        sigma(s)(t) = wEdge.keys.iterator.collect {
          case (w, t2) if t2 == t && math.abs(d(s)(w) + wEdge((w, t)) - d(s)(t)) <= Eps =>
            sigma(s)(w)
        }.sum
    }
    (d, sigma)
  }

  /** (distances, σ) from s, read from one kernel pass. */
  private def spd(g: CSRGraph, s: Int): (Array[Double], Array[Double]) = {
    val kernel = new LocalBrandes.Kernel(g)
    kernel.shortestPaths(s)
    (Array.tabulate(g.n)(kernel.distance), Array.tabulate(g.n)(kernel.sigmaTo))
  }

  private def naiveWeightedBC(el: EdgeList, weight: ((Int, Int)) => Double): Array[Double] = {
    val (d, sigma) = naiveWeighted(el, weight)
    Array.tabulate(el.n) { v =>
      (for {
        s <- 0 until el.n if s != v
        t <- 0 until el.n if t != v && t != s
      } yield {
        if (math.abs(d(s)(v) + d(v)(t) - d(s)(t)) <= Eps)
          sigma(s)(v) * sigma(v)(t) / sigma(s)(t)
        else 0.0
      }).sum
    }
  }

  test("unit weights reproduce the unweighted kernels exactly") {
    TestGraphs.battery.foreach { case (name, el) =>
      val uw = CSRGraph.fromEdges(el)
      val ww = CSRGraph.fromEdges(el, _ => 1.0)
      for (s <- 0 until el.n) {
        val (d0, s0, _) = LocalBrandes.spd(uw, s)
        val (d1, s1) = spd(ww, s)
        (0 until el.n).foreach { v =>
          assert(approxEq(d1(v), d0(v).toDouble), s"$name dist($s,$v)")
          assert(approxEq(s1(v), s0(v)), s"$name sigma($s,$v)")
        }
        val dep0 = LocalBrandes.dependency(uw, s)
        val dep1 = LocalBrandes.dependency(ww, s)
        (0 until el.n).foreach(v => assert(approxEq(dep1(v), dep0(v)), s"$name dep($s,$v)"))
      }
    }
  }

  test("weighted distances and sigma match Floyd-Warshall + DP on the battery") {
    TestGraphs.battery.filter(_._2.n <= 15).foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el, wf)
      val (nd, ns) = naiveWeighted(el, wf)
      for (s <- 0 until el.n) {
        val (dist, sigma) = spd(g, s)
        (0 until el.n).foreach { v =>
          assert(approxEq(dist(v), nd(s)(v)), s"$name d($s,$v): ${dist(v)} vs ${nd(s)(v)}")
          assert(approxEq(sigma(v), ns(s)(v)), s"$name sigma($s,$v): ${sigma(v)} vs ${ns(s)(v)}")
        }
      }
    }
  }

  test("weighted BC matches the naive definitional computation") {
    TestGraphs.battery.filter(_._2.n <= 15).foreach { case (name, el) =>
      val fast = LocalBrandes.bc(CSRGraph.fromEdges(el, wf))
      val slow = naiveWeightedBC(el, wf)
      (0 until el.n).foreach(v =>
        assert(approxEq(fast(v), slow(v), 1e-7), s"$name BC($v): ${fast(v)} vs ${slow(v)}"))
    }
  }

  test("weighted BC on random graphs matches naive") {
    TestGraphs.sampleGraphs(10).foreach { el =>
      val fast = LocalBrandes.bc(CSRGraph.fromEdges(el, wf))
      val slow = naiveWeightedBC(el, wf)
      (0 until el.n).foreach(v => assert(approxEq(fast(v), slow(v), 1e-7)))
    }
  }

  test("path with increasing weights: distances are prefix sums") {
    val el = GraphGen.path(6)
    val g = CSRGraph.fromEdges(el, e => (e._1 + 1).toDouble) // w(i,i+1)=i+1
    val (dist, sigma) = spd(g, 0)
    (0 until 6).foreach { v =>
      assert(approxEq(dist(v), (1 to v).sum.toDouble))
      assert(sigma(v) == 1.0)
    }
  }

  test("weighted tie: triangle with weights (1,1,2) has two shortest 0-1 paths") {
    val el = EdgeList(3, Vector((0, 1), (0, 2), (1, 2)))
    val g = CSRGraph.fromEdges(el,
      { case (0, 1) => 2.0; case _ => 1.0 })
    val (dist, sigma) = spd(g, 0)
    assert(approxEq(dist(1), 2.0) && approxEq(sigma(1), 2.0))
    // vertex 2 is interior to one of the two 0-1 geodesics, each direction
    val bc = LocalBrandes.bc(g)
    assert(approxEq(bc(2), 1.0), s"BC(2)=${bc(2)}")
  }

  test("positive-weight requirement is enforced") {
    assertThrows[IllegalArgumentException] {
      CSRGraph.fromEdges(GraphGen.path(3), _ => 0.0)
    }
  }

  test("MH sampler with the weighted kernel estimates weighted BC (karate)") {
    val el = GraphGen.karateClub
    val g = CSRGraph.fromEdges(el, wf)
    val bc = LocalBrandes.bc(g)
    val r = 0
    val col = LocalBrandes.dependencyColumn(g, r)
    assert(approxEq(col.sum, bc(r), 1e-7))
    val chain = MHSingle.sample(el.n, r, 20000, 51L)(_ => col)
    val rel = math.abs(chain.estimateHarmonic - bc(r)) / bc(r)
    assert(rel < 0.2, s"weighted harmonic rel err $rel (est=${chain.estimateHarmonic}, bc=${bc(r)})")
  }

  test("Theorem 3 ratio identity holds on weighted graphs") {
    val el = GraphGen.karateClub
    val g = CSRGraph.fromEdges(el, wf)
    val bc = LocalBrandes.bc(g)
    val cols = Seq(0, 33).map(r => LocalBrandes.dependencyColumn(g, r))
    assert(approxEq(Estimators.theorem3Ratio(cols(0), cols(1)), bc(0) / bc(33), 1e-7))
  }

  test("weighted BC is unchanged when every weight is scaled by 1e-9, 1e-6, 1e6 or 1e9") {
    val el = GraphGen.karateClub
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(el, wf))
    for (scale <- Seq(1e-9, 1e-6, 1e6, 1e9)) {
      val scaled = LocalBrandes.bc(CSRGraph.fromEdges(el, e => scale * wf(e)))
      (0 until el.n).foreach(v =>
        assert(approxEq(scaled(v), bc(v)), s"scale $scale BC($v): ${scaled(v)} vs ${bc(v)}"))
    }
  }

  test("a degree-1 vertex has BC 0 whatever its edge weight") {
    // a leaf is interior to no shortest path, even when its edge weight is
    // below the relative tie tolerance of the distance it is added to
    for (leafWeight <- Seq(1e-12, 1e-10, 1e-6, 1.0, 1e6)) {
      val path = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.path(3), e => if (e == (1, 2)) leafWeight else 1.0))
      assert(path(0) == 0.0 && path(2) == 0.0, s"path(3), weight $leafWeight: BC = ${path.toSeq}")
      val star = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.star(4), e => if (e == (0, 3)) leafWeight else 1.0))
      assert((1 to 3).forall(star(_) == 0.0), s"star(4), weight $leafWeight: BC = ${star.toSeq}")
    }
  }
}
