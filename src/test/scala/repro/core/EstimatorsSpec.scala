package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

class EstimatorsSpec extends AnyFunSuite {

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** The all-sources δ column of each r in `rs`, built once per graph. */
  private def columns(g: CSRGraph, rs: Seq[Int]): Map[Int, Array[Double]] =
    rs.map(r => r -> LocalBrandes.dependencyColumn(g, r)).toMap

  test("exactPi sums to 1 when BC(r) > 0") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      for (r <- 0 until g.n if bc(r) > 0)
        assert(approxEq(Estimators.exactPi(LocalBrandes.dependencyColumn(g, r)).sum, 1.0), s"$name pi($r)")
    }
  }

  test("exactPi is all-zero when BC(r) = 0 (complete graph, star leaf)") {
    val k = CSRGraph.fromEdges(GraphGen.complete(6))
    assert(Estimators.exactPi(LocalBrandes.dependencyColumn(k, 0)).forall(_ == 0.0))
    val s = CSRGraph.fromEdges(GraphGen.star(8))
    assert(Estimators.exactPi(LocalBrandes.dependencyColumn(s, 3)).forall(_ == 0.0))
  }

  test("exactPi on star center is uniform over leaves") {
    val g = CSRGraph.fromEdges(GraphGen.star(9))
    val pi = Estimators.exactPi(LocalBrandes.dependencyColumn(g, 0))
    assert(pi(0) == 0.0)
    (1 until 9).foreach(v => assert(approxEq(pi(v), 1.0 / 8)))
  }

  test("empiricalDist sums to 1 and counts states") {
    val d = Estimators.empiricalDist(Array(0, 1, 1, 2, 2, 2), 4)
    assert(approxEq(d.sum, 1.0))
    assert(d.toSeq == Seq(1.0 / 6, 2.0 / 6, 3.0 / 6, 0.0))
  }

  test("tvDistance: 0 for identical, 1 for disjoint, symmetric") {
    val p = Array(0.5, 0.5, 0.0)
    val q = Array(0.0, 0.0, 1.0)
    assert(Estimators.tvDistance(p, p) == 0.0)
    assert(Estimators.tvDistance(p, q) == 1.0)
    assert(Estimators.tvDistance(p, q) == Estimators.tvDistance(q, p))
    val e = intercept[IllegalArgumentException](Estimators.tvDistance(p, Array(1.0)))
    assert(e.getMessage.contains("lengths 3 and 1"), e.getMessage)
  }

  test("cappedRatio conventions: b>0 normal, 0/0 -> 0, a>0 over 0 -> 1") {
    assert(Estimators.cappedRatio(1.0, 2.0) == 0.5)
    assert(Estimators.cappedRatio(3.0, 2.0) == 1.0)
    assert(Estimators.cappedRatio(0.0, 0.0) == 0.0)
    assert(Estimators.cappedRatio(0.5, 0.0) == 1.0)
    assert(Estimators.cappedRatio(0.0, 2.0) == 0.0)
  }

  test("exactRelative(r, r) equals support fraction of delta(r)") {
    val g = CSRGraph.fromEdges(GraphGen.star(10))
    // delta_{v.}(center) > 0 exactly for the 9 leaves
    val col = LocalBrandes.dependencyColumn(g, 0)
    assert(approxEq(Estimators.exactRelative(col, col), 9.0 / 10))
  }

  test("exactRelative lies in [0, 1]") {
    TestGraphs.sampleGraphs(8).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val cols = columns(g, 0 until g.n)
      for (ri <- 0 until g.n; rj <- 0 until g.n) {
        val x = Estimators.exactRelative(cols(ri), cols(rj))
        assert(x >= 0.0 && x <= 1.0, s"relative($ri,$rj)=$x")
      }
    }
  }

  test("exactEq19Expectation lies in [0, 1]") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val cols = columns(g, Seq(0, 2, 33))
    for (ri <- Seq(0, 2, 33); rj <- Seq(0, 2, 33)) {
      val x = Estimators.exactEq19Expectation(cols(ri), cols(rj))
      assert(x >= 0.0 && x <= 1.0)
    }
  }

  test("Theorem 3 identity: eq19 expectation ratio equals exact BC ratio") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      val cands = (0 until g.n).filter(bc(_) > 0)
      val cols = columns(g, cands.take(3) ++ cands.takeRight(3))
      for (ri <- cands.take(3); rj <- cands.takeRight(3)
           if ri != rj && Estimators.supportOverlap(cols(ri), cols(rj)) > 0) {
        val lhs = Estimators.theorem3Ratio(cols(ri), cols(rj))
        val rhs = bc(ri) / bc(rj)
        assert(approxEq(lhs, rhs, 1e-9), s"$name ratio($ri,$rj): $lhs vs $rhs")
      }
    }
  }

  test("Theorem 3 identity on random graphs (overlapping supports)") {
    TestGraphs.sampleGraphs(10).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      val cands = (0 until g.n).filter(bc(_) > 0)
      val cols = columns(g, cands)
      for {
        ri <- cands; rj <- cands
        if ri < rj && Estimators.supportOverlap(cols(ri), cols(rj)) > 0
      } assert(approxEq(Estimators.theorem3Ratio(cols(ri), cols(rj)), bc(ri) / bc(rj), 1e-9))
    }
  }

  test("Theorem 3 degenerates to 0/0 when dependency supports are disjoint") {
    // documented precondition the paper leaves implicit: on er12, vertices 1
    // and 8 have positive BC but disjoint dependency supports
    val el = TestGraphs.battery.toMap.apply("er12")
    val g = CSRGraph.fromEdges(el)
    val bc = LocalBrandes.bc(g)
    val cols = columns(g, 0 until g.n)
    val disjoint = for {
      ri <- 0 until g.n; rj <- 0 until g.n
      if ri < rj && bc(ri) > 0 && bc(rj) > 0 &&
        Estimators.supportOverlap(cols(ri), cols(rj)) == 0.0
    } yield (ri, rj)
    disjoint.foreach { case (ri, rj) =>
      assert(Estimators.theorem3Ratio(cols(ri), cols(rj)).isNaN)
    }
  }

  test("Eq. 21 detailed-balance identity holds pointwise") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    for (ri <- Seq(0, 5, 33); rj <- Seq(2, 31) if ri != rj; w <- 0 until g.n) {
      val d = LocalBrandes.dependency(g, w)
      val di = if (w == ri) 0.0 else d(ri)
      val dj = if (w == rj) 0.0 else d(rj)
      val lhs = di * Estimators.cappedRatio(dj, di)
      val rhs = dj * Estimators.cappedRatio(di, dj)
      assert(math.abs(lhs - rhs) < 1e-12, s"w=$w ri=$ri rj=$rj")
      assert(math.abs(lhs - math.min(di, dj)) < 1e-12)
    }
  }
}
