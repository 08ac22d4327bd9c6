package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.{EdgeList, GraphGen}

class BaselinesSpec extends AnyFunSuite {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)
  private val karateBc = LocalBrandes.bc(karate)

  test("uniform sampler converges on star center (BC = (n-1)(n-2))") {
    val g = CSRGraph.fromEdges(GraphGen.star(10))
    val est = Baselines.uniformEstimate(g, 0, 4000, 7L)
    assert(math.abs(est - 72.0) / 72.0 < 0.1, s"est=$est")
  }

  test("uniform sampler is exactly 0 for zero-BC vertices") {
    val g = CSRGraph.fromEdges(GraphGen.complete(7))
    assert(Baselines.uniformEstimate(g, 3, 200, 7L) == 0.0)
  }

  test("uniform sampler converges on karate hub") {
    val est = Baselines.uniformEstimate(karate, 0, 6000, 11L)
    assert(math.abs(est - karateBc(0)) / karateBc(0) < 0.15, s"est=$est bc=${karateBc(0)}")
  }

  test("uniform sampler is deterministic in seed") {
    assert(Baselines.uniformEstimate(karate, 0, 100, 3L) ==
           Baselines.uniformEstimate(karate, 0, 100, 3L))
  }

  test("distance sampler has zero variance on star center (optimal-like case)") {
    // every leaf has d=1 and delta = n-2: the estimator is constant = BC
    val n = 10
    val g = CSRGraph.fromEdges(GraphGen.star(n))
    val est = Baselines.distanceEstimate(g, 0, 5, 13L)
    assert(math.abs(est - (n - 1.0) * (n - 2.0)) < 1e-9)
  }

  test("distance sampler converges on karate hub") {
    val est = Baselines.distanceEstimate(karate, 0, 6000, 17L)
    assert(math.abs(est - karateBc(0)) / karateBc(0) < 0.15, s"est=$est")
  }

  test("distance sampler converges on a path midpoint") {
    val g = CSRGraph.fromEdges(GraphGen.path(9))
    val bc = LocalBrandes.bc(g)(4)
    val est = Baselines.distanceEstimate(g, 4, 8000, 19L)
    assert(math.abs(est - bc) / bc < 0.15, s"est=$est bc=$bc")
  }

  test("RK path sampler: exact 0 on zero-BC vertices (path endpoints)") {
    val g = CSRGraph.fromEdges(GraphGen.path(7))
    assert(Baselines.rkEstimate(g, 0, 500, 23L) == 0.0)
  }

  test("RK path sampler converges on star center") {
    val n = 10
    val g = CSRGraph.fromEdges(GraphGen.star(n))
    val est = Baselines.rkEstimate(g, 0, 8000, 29L)
    val bc = (n - 1.0) * (n - 2.0)
    assert(math.abs(est - bc) / bc < 0.1, s"est=$est bc=$bc")
  }

  test("RK path sampler converges on karate hub") {
    val est = Baselines.rkEstimate(karate, 0, 20000, 31L)
    assert(math.abs(est - karateBc(0)) / karateBc(0) < 0.2, s"est=$est bc=${karateBc(0)}")
  }

  test("RK path sampler samples each shortest path uniformly (cycle sigma=2)") {
    // On an even cycle the two antipodal vertices are joined by exactly two
    // shortest paths; each interior vertex of one side is hit w.p. 1/2 given
    // that antipodal pair. Statistically: BC estimates converge.
    val g = CSRGraph.fromEdges(GraphGen.cycle(8))
    val bc = LocalBrandes.bc(g)(0)
    val est = Baselines.rkEstimate(g, 0, 20000, 37L)
    assert(math.abs(est - bc) / bc < 0.15, s"est=$est bc=$bc")
  }

  // path 0-1-2-3 plus the separate edge 4-5: BC(1) = BC(2) = 4
  private val pathPlusEdge = CSRGraph.fromEdges(EdgeList(6, GraphGen.path(4).edges :+ ((4, 5))))

  test("distance sampler is unbiased on a disconnected graph (unreachable vertices weigh 0)") {
    for (r <- Seq(1, 2)) {
      val mean = (1 to 5).map(s => Baselines.distanceEstimate(pathPlusEdge, r, 20000, s.toLong)).sum / 5
      assert(math.abs(mean - 4.0) / 4.0 < 0.02, s"r=$r mean=$mean")
    }
  }

  test("RK path sampler counts a pair with no path as a miss on a disconnected graph") {
    for (r <- Seq(1, 2)) {
      val est = Baselines.rkEstimate(pathPlusEdge, r, 20000, 1L)
      assert(math.abs(est - 4.0) / 4.0 < 0.1, s"r=$r est=$est")
    }
  }

  test("all three baselines agree with exact BC within 20% at 10k samples (karate v31)") {
    val r = 31
    val bc = karateBc(r)
    val u = Baselines.uniformEstimate(karate, r, 10000, 41L)
    val d = Baselines.distanceEstimate(karate, r, 10000, 41L)
    val p = Baselines.rkEstimate(karate, r, 10000, 41L)
    for ((name, est) <- Seq("uniform" -> u, "distance" -> d, "rk" -> p))
      assert(math.abs(est - bc) / bc < 0.2, s"$name est=$est bc=$bc")
  }

  test("every baseline fails fast on a target that is not a vertex or a non-positive sample count") {
    val baselines = Seq[(String, (Int, Int) => Double)](
      "uniform" -> ((r, k) => Baselines.uniformEstimate(karate, r, k, 1L)),
      "distance" -> ((r, k) => Baselines.distanceEstimate(karate, r, k, 1L)),
      "rk" -> ((r, k) => Baselines.rkEstimate(karate, r, k, 1L)))
    for ((name, estimate) <- baselines) {
      for (r <- Seq(34, -1)) {
        val e = intercept[IllegalArgumentException](estimate(r, 10))
        assert(e.getMessage.contains(s"target r=$r is not a vertex of a graph with n=34 vertices"),
          s"$name: ${e.getMessage}")
      }
      val e = intercept[IllegalArgumentException](estimate(0, 0))
      assert(e.getMessage.contains("k=0 must be positive"), s"$name: ${e.getMessage}")
    }
    val single = CSRGraph.fromEdges(EdgeList(1, Vector.empty))
    val e = intercept[IllegalArgumentException](Baselines.rkEstimate(single, 0, 10, 1L))
    assert(e.getMessage.contains("n >= 2"), e.getMessage)
    // the distance and RK samplers read hop distances; uniform reads only δ
    val weighted = CSRGraph.fromEdges(GraphGen.karateClub, _ => 2.0)
    for ((name, estimate) <- Seq[(String, (CSRGraph, Int, Int, Long) => Double)](
           "distance" -> Baselines.distanceEstimate, "rk" -> Baselines.rkEstimate)) {
      val e = intercept[IllegalArgumentException](estimate(weighted, 0, 10, 1L))
      assert(e.getMessage.contains("needs an unweighted graph"), s"$name: ${e.getMessage}")
    }
    val (uw, u) = (Baselines.uniformEstimate(weighted, 0, 10, 1L), Baselines.uniformEstimate(karate, 0, 10, 1L))
    assert(math.abs(uw - u) <= 1e-9 * u, s"uniform on unit-scaled weights: $uw vs $u")
  }
}
