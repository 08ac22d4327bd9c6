package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

class TheorySpec extends AnyFunSuite {

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("mu on star center is n/(n-1)") {
    val n = 10
    val g = CSRGraph.fromEdges(GraphGen.star(n))
    // max delta = n-2 (each leaf), mean over all n vertices = (n-1)(n-2)/n
    assert(approxEq(Theory.mu(LocalBrandes.dependencyColumn(g, 0)), n / (n - 1.0)))
  }

  test("mu is infinite when BC(r) = 0") {
    val g = CSRGraph.fromEdges(GraphGen.complete(5))
    assert(Theory.mu(LocalBrandes.dependencyColumn(g, 0)).isPosInfinity)
  }

  test("mu >= 1 whenever finite (max >= mean)") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      for (r <- 0 until g.n if bc(r) > 0)
        assert(Theory.mu(LocalBrandes.dependencyColumn(g, r)) >= 1.0 - 1e-12, s"$name mu($r)")
    }
  }

  test("theorem2Mu equals the direct mu on doubleClique separators") {
    for (k <- Seq(3, 5, 8)) {
      val g = CSRGraph.fromEdges(GraphGen.doubleClique(k))
      val r = 2 * k
      val closed = Theory.theorem2Mu(g, r)
      val direct = Theory.mu(LocalBrandes.dependencyColumn(g, r))
      assert(closed.isDefined)
      assert(approxEq(closed.get, direct), s"k=$k closed=${closed.get} direct=$direct")
    }
  }

  test("theorem2Mu on a balanced separator is a small constant (~2)") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(50))
    val mu = Theory.theorem2Mu(g, 100).get
    assert(mu < 2.5, s"mu=$mu should be Θ(1)")
  }

  test("theorem2Mu is None for non-cut vertices") {
    assert(Theory.theorem2Mu(CSRGraph.fromEdges(GraphGen.cycle(8)), 0).isEmpty)
    assert(Theory.theorem2Mu(CSRGraph.fromEdges(GraphGen.complete(6)), 2).isEmpty)
  }

  test("componentSizes: path interior vertex splits sides; leaf leaves one") {
    val g = CSRGraph.fromEdges(GraphGen.path(7))
    assert(Theory.componentSizes(g, 3).sorted == Vector(3, 3))
    assert(Theory.componentSizes(g, 0) == Vector(6))
  }

  test("isBalancedSeparator: true for doubleClique middle, false elsewhere") {
    val g = CSRGraph.fromEdges(GraphGen.doubleClique(10))
    assert(Theory.isBalancedSeparator(g, 20))
    // a NON-attachment clique vertex is not a cut vertex (vertex 0, the
    // attachment, IS one: removing it strands its whole clique)
    assert(!Theory.isBalancedSeparator(g, 1))
    assert(Theory.isBalancedSeparator(g, 0))
  }

  test("isBalancedSeparator: unbalanced cut vertex fails the theta test") {
    // star center cuts into n-1 singletons: V_i = n-2 = Θ(n), so it IS
    // balanced under the paper's generalized definition
    val s = CSRGraph.fromEdges(GraphGen.star(12))
    assert(Theory.isBalancedSeparator(s, 0))
    // a path's first interior vertex cuts 1 vs n-2: the singleton side has
    // V_i = n-2 (balanced) but the big side has V_i = 1 (not Θ(n))
    val p = CSRGraph.fromEdges(GraphGen.path(12))
    assert(!Theory.isBalancedSeparator(p, 1))
  }

  test("sampleBound Eq.14: mu=1, eps=0.1, delta=0.1 gives 50 ln 20") {
    assert(approxEq(Theory.sampleBound(1.0, 0.1, 0.1), 50.0 * math.log(20.0)))
  }

  test("sampleBound grows quadratically in mu and 1/eps") {
    val b1 = Theory.sampleBound(1.0, 0.1, 0.1)
    assert(approxEq(Theory.sampleBound(2.0, 0.1, 0.1), 4 * b1))
    assert(approxEq(Theory.sampleBound(1.0, 0.05, 0.1), 4 * b1))
  }

  test("sampleBound names eps and delta when they are out of range") {
    val e = intercept[IllegalArgumentException](Theory.sampleBound(1.0, 0.1, 1.5))
    assert(e.getMessage.contains("eps=0.1") && e.getMessage.contains("delta=1.5"), e.getMessage)
  }

  test("errorProbability decreases in T and saturates at 1 for tiny T") {
    val p1 = Theory.errorProbability(2.0, 0.1, 10)
    val p2 = Theory.errorProbability(2.0, 0.1, 10000)
    val p3 = Theory.errorProbability(2.0, 0.1, 100000)
    assert(p1 == 1.0) // inner term negative at T=10
    assert(p3 < p2 && p2 <= 1.0)
  }

  test("Theorem 2 shape: separator mu stays constant as the graph doubles") {
    val mus = Seq(10, 20, 40, 80).map { k =>
      Theory.mu(LocalBrandes.dependencyColumn(CSRGraph.fromEdges(GraphGen.doubleClique(k)), 2 * k))
    }
    // constant in |V|: spread across a 8x size range stays within 10%
    assert(mus.max / mus.min < 1.1, s"mus=$mus")
  }

  test("contrast: a path-end-adjacent vertex has mu growing with n") {
    val muSmall = Theory.mu(LocalBrandes.dependencyColumn(CSRGraph.fromEdges(GraphGen.path(16)), 1))
    val muBig = Theory.mu(LocalBrandes.dependencyColumn(CSRGraph.fromEdges(GraphGen.path(128)), 1))
    assert(muBig > 2 * muSmall, s"mu should grow: $muSmall -> $muBig")
  }
}
