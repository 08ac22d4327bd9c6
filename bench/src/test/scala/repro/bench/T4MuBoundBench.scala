package repro.bench

import repro.SparkSpec
import repro.core.Theory
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen

/** T4 — μ(r) and the Eq.-14 sample bound by vertex position (Theorem 2:
  * μ(r) is Θ(1) for balanced-separator-like vertices, so the required sample
  * count is a constant; for peripheral vertices it grows with the graph).
  */
class T4MuBoundBench extends SparkSpec {

  private val eps = 0.1
  private val delta = 0.1

  test("T4: mu(r) and Eq.14 bound across vertex positions") {
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(2000, 4, 7L))
    val path = CSRGraph.fromEdges(GraphGen.path(1000))
    val dc = CSRGraph.fromEdges(GraphGen.doubleClique(500))
    val probes = Seq(
      ("2Clique(500)", dc, 1000, "balanced separator"),
      ("BA(2000,4)", ba, BenchUtil.hub(ba), "hub"),
      ("BA(2000,4)", ba, BenchUtil.medianDegreeVertex(ba), "median"),
      ("path(1000)", path, 500, "middle"),
      ("path(1000)", path, 1, "end-adjacent"),
    )
    val mus = probes.map { case (_, g, r, _) => Theory.mu(LocalBrandes.dependencyColumn(g, r)) }
    val rows = probes.zip(mus).map { case ((name, g, r, kind), mu) =>
      val bound = Theory.sampleBound(mu, eps, delta)
      val sep = Theory.isBalancedSeparator(g, r)
      val closed = Theory.theorem2Mu(g, r).map(BenchUtil.f(_, 3)).getOrElse("-")
      Seq(name, kind, r.toString, BenchUtil.f(mu, 3), closed,
        sep.toString, BenchUtil.f(bound, 0))
    }
    println(BenchUtil.table(
      s"T4: mu(r) and sample bound (eps=$eps, delta=$delta)",
      Seq("graph", "position", "r", "mu(r)", "Thm2 closed form", "balanced sep?",
        "T >= (Eq.14)"), rows))

    // shape assertions
    val muSep = mus.head
    assert(muSep < 2.5, s"separator mu should be Θ(1): $muSep")
    val muEnd = mus.last
    assert(muEnd > 50, s"peripheral path vertex should have large mu: $muEnd")
    assert(Theory.sampleBound(muSep, eps, delta) < Theory.sampleBound(muEnd, eps, delta))
  }

  test("T4b: Theorem 2 — separator mu is flat in |V| while peripheral mu grows") {
    val seps = Seq(125, 250, 500, 1000).map { k =>
      Theory.mu(LocalBrandes.dependencyColumn(CSRGraph.fromEdges(GraphGen.doubleClique(k)), 2 * k))
    }
    val ends = Seq(125, 250, 500, 1000).map { n =>
      Theory.mu(LocalBrandes.dependencyColumn(CSRGraph.fromEdges(GraphGen.path(n)), 1))
    }
    println(BenchUtil.table("T4b: mu vs graph size",
      Seq("|V| scale", "mu(separator, 2Clique(k))", "mu(end-adjacent, path(n))"),
      Seq(125, 250, 500, 1000).zipWithIndex.map { case (s, i) =>
        Seq(s.toString, BenchUtil.f(seps(i), 4), BenchUtil.f(ends(i), 2))
      }))
    assert(seps.max / seps.min < 1.05, s"separator mu should be flat: $seps")
    assert(ends.last / ends.head > 4, s"peripheral mu should grow linearly: $ends")
  }
}
