package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

class LocalBrandesSpec extends AnyFunSuite {

  private def approxEq(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  /** Eccentricity-based diameter (exact, all-sources BFS). */
  private def diameter(g: CSRGraph): Int =
    (0 until g.n).map(s => LocalBrandes.spd(g, s)._1.max).max

  test("spd distances match Floyd-Warshall on the battery") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val fw = TestGraphs.naiveDistances(el)
      for (s <- 0 until g.n) {
        val (dist, _, _) = LocalBrandes.spd(g, s)
        (0 until g.n).foreach(t => assert(dist(t) == fw(s)(t), s"$name d($s,$t)"))
      }
    }
  }

  test("spd sigma matches naive DP shortest-path counts") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val ns = TestGraphs.naiveSigma(el)
      for (s <- 0 until g.n) {
        val (_, sigma, _) = LocalBrandes.spd(g, s)
        (0 until g.n).foreach(t => assert(sigma(t) == ns(s)(t), s"$name sigma($s,$t)"))
      }
    }
  }

  test("spd visitation order is by nondecreasing distance") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val (dist, _, order) = LocalBrandes.spd(g, 0)
    order.sliding(2).foreach { case Array(a, b) => assert(dist(a) <= dist(b)) }
  }

  test("dependency matches the naive definitional computation") {
    TestGraphs.battery.filter(_._2.n <= 15).foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      for (r <- 0 until g.n) {
        val fast = LocalBrandes.dependencyColumn(g, r)
        val slow = TestGraphs.naiveDependencyColumn(el, r)
        (0 until g.n).foreach(v =>
          assert(approxEq(fast(v), slow(v)), s"$name delta_{$v}($r): ${fast(v)} vs ${slow(v)}"))
      }
    }
  }

  test("dependency of a source on itself is zero") {
    TestGraphs.sampleGraphs(10).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      (0 until g.n).foreach(s => assert(LocalBrandes.dependency(g, s)(s) == 0.0))
    }
  }

  test("bc matches the naive definitional BC on the battery") {
    TestGraphs.battery.foreach { case (name, el) =>
      val fast = LocalBrandes.bc(CSRGraph.fromEdges(el))
      val slow = TestGraphs.naiveBC(el)
      (0 until el.n).foreach(v =>
        assert(approxEq(fast(v), slow(v), 1e-9), s"$name BC($v): ${fast(v)} vs ${slow(v)}"))
    }
  }

  test("bc matches naive BC on random connected graphs") {
    TestGraphs.sampleGraphs(25).foreach { el =>
      val fast = LocalBrandes.bc(CSRGraph.fromEdges(el))
      val slow = TestGraphs.naiveBC(el)
      (0 until el.n).foreach(v => assert(approxEq(fast(v), slow(v), 1e-9)))
    }
  }

  test("bc equals the column sum of dependencies (Eq. 3)") {
    TestGraphs.sampleGraphs(10).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val bc = LocalBrandes.bc(g)
      for (r <- 0 until g.n)
        assert(approxEq(bc(r), LocalBrandes.dependencyColumn(g, r).sum, 1e-9))
    }
  }

  test("closed form: path BC(v_i) = 2 i (n-1-i)") {
    val n = 9
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.path(n)))
    (0 until n).foreach(i => assert(bc(i) == 2.0 * i * (n - 1 - i)))
  }

  test("closed form: star center (n-1)(n-2), leaves 0") {
    val n = 11
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.star(n)))
    assert(bc(0) == (n - 1.0) * (n - 2.0))
    (1 until n).foreach(i => assert(bc(i) == 0.0))
  }

  test("closed form: complete graph all BC zero") {
    assert(LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.complete(8))).forall(_ == 0.0))
  }

  test("closed form: doubleClique separator BC = 2k^2") {
    val k = 5
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.doubleClique(k)))
    assert(bc(2 * k) == 2.0 * k * k)
  }

  test("cycle is vertex-transitive: all BC equal") {
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.cycle(9)))
    assert(bc.forall(v => approxEq(v, bc(0))))
  }

  test("grid corners have equal BC by symmetry") {
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.grid(4, 4)))
    val corners = Seq(0, 3, 12, 15).map(bc)
    assert(corners.forall(c => approxEq(c, corners.head)))
  }

  test("karate club: literature ground truth (top vertices 0 and 33; BC(0))") {
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.karateClub))
    val top2 = bc.zipWithIndex.sortBy(-_._1).take(2).map(_._2).toSet
    assert(top2 == Set(0, 33), s"expected {0, 33} as top-BC, got $top2")
    // networkx betweenness_centrality(normalized=False) gives 231.0714285714
    // for vertex 0 under the unordered convention; ordered doubles it.
    assert(math.abs(bc(0) - 2 * 231.07142857142856) < 1e-6, s"BC(0)=${bc(0)}")
  }

  test("diameter matches naive Floyd-Warshall eccentricity") {
    TestGraphs.battery.foreach { case (name, el) =>
      assert(diameter(CSRGraph.fromEdges(el)) == TestGraphs.naiveDiameter(el), name)
    }
  }

  test("a source's dependency on itself is zero") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    for (v <- Seq(0, 3, 7, 17, 25, 33))
      assert(LocalBrandes.dependency(g, v)(v) == 0.0, s"delta_{$v}($v)")
  }

  test("markSources marks the distinct sources, also when it stops scanning once all n are marked") {
    val rnd = new scala.util.Random(3L)
    val cases = Seq(
      (5, 2, Array(0, 1, 3, 4, 4, 0, 2, 1)), // all 5 marked at index 3: the rest is not read
      (5, 4, Array(4, 4, 0)),
      (6, 0, Array.empty[Int]),
      (50, 7, Array.fill(1000)(rnd.nextInt(50))),
      (50, 7, Array.fill(20)(rnd.nextInt(50))))
    for ((n, first, rest) <- cases) {
      val marked = LocalBrandes.markSources(n, first, rest)
      assert(marked == LocalBrandes.markSources(n, first +: rest.toSeq), s"n = $n, ${rest.length} sources")
    }
    // flat states over rows of `width` entries mark their rows, and a state outside the table is
    // skipped: −2 / 3 would mark row 0 and 18 / 3 row 6 of a 6-row table
    assert(LocalBrandes.markSources(6, 4, Array(7, -2, 18, 17, 9, Int.MaxValue, 3), width = 3) ==
      LocalBrandes.markSources(6, Seq(1, 2, 5, 3)))
    assert(LocalBrandes.markSources(5, 0, Array(5, -1, 3)) == LocalBrandes.markSources(5, Seq(0, 3)))
  }

  test("a non-finite dependency fails the table build (sigma overflow on a 530x530 grid)") {
    // from a corner, sigma to the far side exceeds Double's range, so the
    // sweep computes NaN, which the table would pass off as "not evaluated"
    val g = CSRGraph.fromEdges(GraphGen.grid(530, 530))
    val e = intercept[ArithmeticException] {
      LocalBrandes.dependencyTable(g, LocalBrandes.markSources(g.n, 0, Array.empty[Int]), Array(g.n / 2))
    }
    assert(e.getMessage.contains("source 0") && e.getMessage.contains(s"target ${g.n / 2}") &&
      e.getMessage.contains("overflow"), e.getMessage)
  }

  test("several failing rows fail the table naming the least failing source, at 1, 2, 4 and 8 workers") {
    // k diamonds in a row: 2^j shortest paths cross j of them, so σ overflows
    // Double across about 1024, and from a source that far from vertex 1 its
    // entry is not finite; the sources near the middle are all finite
    val k = 1100
    val g = CSRGraph.fromEdges(TestGraphs.diamondChain(k))
    val sources = LocalBrandes.markSources(g.n, (1500 until 1700) ++ (3000 until g.n))
    val targets = Array(1, 3 * k)
    val row = new Array[Double](targets.length)
    val kernel = new LocalBrandes.Kernel(g)
    val failing = sources.stream.toArray.filter { s =>
      kernel.row(s, targets, row, 0); !row.forall(java.lang.Double.isFinite)
    }
    assert(failing.length > 8 && failing.head == 3072, s"failing sources ${failing.take(3).mkString(",")}...")
    // from 3072 to 3074 σ(1) is finite but σ(0) = σ(1) + σ(2) overflows: (1 + δ(0)) / σ(0)
    // would be 0 and δ(1) a wrong 0.0, not 0.5, were the overflow not marked
    for (s <- 3072 to 3074) {
      val (_, sigma, _) = kernel.spd(s)
      assert(sigma(0) == Double.PositiveInfinity && sigma(1) < Double.PositiveInfinity, s"source $s")
      kernel.row(s, targets, row, 0)
      assert(row(0).isNaN, s"source $s: δ(1) = ${row(0)}")
    }
    for (workers <- Seq(1, 2, 4, 8)) {
      val e = intercept[ArithmeticException](LocalBrandes.evaluatedTable(g, sources, targets, workers)._1)
      assert(e.getMessage.startsWith(s"the dependency of source ${failing.head} on target 1 is ") &&
        e.getMessage.endsWith("the shortest-path counts σ overflow Double"), s"$workers workers: ${e.getMessage}")
    }
  }

  test("exact bc and dependency fail on a σ overflow, and a finite dependency matches the definition") {
    val k = 1100
    val g = CSRGraph.fromEdges(TestGraphs.diamondChain(k))
    // the two ends have BC 0; every vertex between lies on paths whose σ overflows
    val bc = intercept[ArithmeticException](LocalBrandes.bc(g))
    assert(bc.getMessage == "the betweenness of vertex 1 is NaN: the shortest-path counts σ overflow Double")
    val dep = intercept[ArithmeticException](LocalBrandes.dependency(g, 0))
    assert(dep.getMessage == "the dependency of source 0 on target 1 is NaN: the shortest-path counts σ overflow Double")
    // from the middle, at most 2^550 shortest paths: every δ is finite
    val mid = 3 * (k / 2)
    val delta = LocalBrandes.dependency(g, mid)
    val exact = TestGraphs.diamondChainDependency(k, mid)
    (0 until g.n).foreach(v => assert(approxEq(delta(v), exact(v)), s"δ_{$mid•}($v) = ${delta(v)}, exactly ${exact(v)}"))
    assert(java.util.Arrays.equals(delta, new TopDownKernel(g).dependency(mid)))
  }

  test("dependencyTable has the 1-worker table's bits at 2, 3, 8 and |sources| + 5 workers") {
    val graphs = (TestGraphs.battery :+ ("karate+path10" -> TestGraphs.disjointUnion(GraphGen.karateClub, GraphGen.path(10))))
      .map { case (name, el) => name -> CSRGraph.fromEdges(el) } :+
      ("weighted ba400-1" -> CSRGraph.fromEdges(GraphGen.barabasiAlbert(400, 3, 1L), TestGraphs.smallWeights))
    for (((name, g), i) <- graphs.zipWithIndex) {
      val inputs = for {
        k <- Gen.choose(1, math.min(g.n, 5))
        targets <- Gen.pick(k, 0 until g.n)
        sources <- Gen.someOf(0 until g.n)
      } yield (targets.toArray, LocalBrandes.markSources(g.n, sources))
      val prop = Prop.forAllNoShrink(inputs) { case (targets, sources) =>
        val one = LocalBrandes.evaluatedTable(g, sources, targets, 1)._1
        val differs = Seq(2, 3, 8, sources.cardinality + 5)
          .find(w => !java.util.Arrays.equals(LocalBrandes.evaluatedTable(g, sources, targets, w)._1, one))
        Prop(differs.isEmpty) :| s"$name, targets ${targets.mkString(",")}: ${differs.getOrElse(0)} workers"
      }
      val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(16L + i)), prop)
      assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
    }
  }

  /** The sources whose row over `targets` has a non-zero entry, by one
    * [[LocalBrandes.Kernel.row]] per source.
    */
  private def nonZeroRows(g: CSRGraph, sources: Seq[Int], targets: Array[Int]): Set[Int] = {
    val kernel = new LocalBrandes.Kernel(g)
    val row = new Array[Double](targets.length)
    sources.filter { s => kernel.row(s, targets, row, 0); row.exists(_ != 0.0) }.toSet
  }

  private def keptSet(g: CSRGraph, sources: Seq[Int], targets: Array[Int]): Set[Int] =
    LocalBrandes.supported(g, LocalBrandes.markSources(g.n, sources), targets).stream.toArray.toSet

  test("supported keeps exactly the sources whose row has a non-zero entry") {
    val isolated = "karate+isolated" -> EdgeList(35, GraphGen.karateClub.edges)
    val graphs = (TestGraphs.battery ++ Seq(
      "karate+path10" -> TestGraphs.disjointUnion(GraphGen.karateClub, GraphGen.path(10)), isolated,
      "star40" -> GraphGen.star(40), "complete12" -> GraphGen.complete(12),
      "ba400-1" -> GraphGen.barabasiAlbert(400, 3, 1L))).map { case (name, el) => name -> CSRGraph.fromEdges(el) }
    val rnd = new scala.util.Random(16)
    for ((name, g) <- graphs) {
      val all = 0 until g.n
      for (r <- all)
        assert(keptSet(g, all, Array(r)) == nonZeroRows(g, all, Array(r)), s"$name, target $r")
      // several targets, each of whose screens may stop early, over a random part of the sources
      for (_ <- 1 to 10) {
        val targets = rnd.shuffle(all.toVector).take(1 + rnd.nextInt(math.min(g.n, 6))).toArray
        val sources = all.filter(_ => rnd.nextBoolean())
        assert(keptSet(g, sources, targets) == nonZeroRows(g, sources, targets),
          s"$name, targets ${targets.mkString(",")}")
      }
    }
    // empty supports: a star's leaves, a complete graph's vertices and an isolated vertex
    val star = CSRGraph.fromEdges(GraphGen.star(40))
    val complete = CSRGraph.fromEdges(GraphGen.complete(12))
    val karateIsolated = CSRGraph.fromEdges(isolated._2)
    assert((1 until star.n).forall(r => keptSet(star, 0 until star.n, Array(r)).isEmpty))
    assert((0 until complete.n).forall(r => keptSet(complete, 0 until complete.n, Array(r)).isEmpty))
    assert(keptSet(karateIsolated, 0 until karateIsolated.n, Array(34)).isEmpty)
    // a weighted graph keeps every source
    val weighted = CSRGraph.fromEdges(GraphGen.star(40), TestGraphs.smallWeights)
    assert(keptSet(weighted, Seq(1, 2, 7), Array(5)) == Set(1, 2, 7))
  }

  test("screened tables have the bits of one Kernel.row per source, at 1 and Chunks.default workers") {
    val ba = GraphGen.barabasiAlbert(400, 3, 1L)
    val unweighted = CSRGraph.fromEdges(ba)
    val hub = (0 until unweighted.n).maxBy(unweighted.degree)
    val leaf = (0 until unweighted.n).minBy(unweighted.degree)
    val union = CSRGraph.fromEdges(TestGraphs.disjointUnion(GraphGen.karateClub, GraphGen.path(10)))
    val cases = Seq(
      ("target among the sources", unweighted, Array(leaf), (0 until 400 by 3) :+ leaf),
      ("a hub and a leaf", unweighted, Array(hub, leaf), 0 until 400 by 2),
      ("karate+path10, path end and karate hub", union, Array(43, 33, 35), 0 until union.n),
      ("weighted, a hub and a leaf", CSRGraph.fromEdges(ba, TestGraphs.smallWeights), Array(hub, leaf), 0 until 400 by 2))
    for ((name, g, targets, sources) <- cases; workers <- Seq(1, repro.core.Chunks.default)) {
      val table = LocalBrandes.evaluatedTable(g, LocalBrandes.markSources(g.n, sources), targets, workers)._1
      val k = targets.length
      val expected = Array.fill(g.n * k)(Double.NaN)
      val kernel = new LocalBrandes.Kernel(g)
      sources.foreach(s => kernel.row(s, targets, expected, s * k))
      assert(table.map(java.lang.Double.doubleToRawLongBits).sameElements(expected.map(java.lang.Double.doubleToRawLongBits)),
        s"$name, $workers workers")
    }
  }

  /** The battery, 25 random connected graphs and a disconnected one
    * (path(4) plus the edge (4,5)), each with a random target set that holds
    * a vertex of every component, so some rows have a target unreachable from
    * their source and, over all sources, every target is some row's source.
    * Then inputs that steer the kernel's BFS both ways: larger random
    * ER/BA/WS graphs, where the last levels expand bottom up; a star, whose
    * leaves expand bottom up at level 1; a complete graph, which stops after
    * level 1; karate plus an isolated vertex (always a target); and
    * grid(40,40), where σ passes 2^53 (at most two parents per vertex).
    * Last, the battery, the disconnected graph, karate plus an isolated
    * vertex and a BA(400,3) with weights in {1, 2, 3}, which run the
    * kernel's Dijkstra step and tie often.
    */
  private def graphsWithTargets: Seq[(String, CSRGraph, Array[Int])] = {
    val rnd = new scala.util.Random(6)
    val disconnected = "path4+edge" -> EdgeList(6, Vector((0, 1), (1, 2), (2, 3), (4, 5)))
    val isolated = "karate+isolated" -> EdgeList(35, GraphGen.karateClub.edges)
    val unreachable = Map(disconnected._1 -> Seq(0, 5), isolated._1 -> Seq(34))
    val unweighted = TestGraphs.battery ++ TestGraphs.sampleGraphs(25).zipWithIndex.map { case (el, i) => s"random$i" -> el } ++
      Seq(disconnected) ++
      Seq(1L, 2L).flatMap(seed => Seq(
        s"er300-$seed" -> GraphGen.erdosRenyi(300, 0.02, seed),
        s"ba400-$seed" -> GraphGen.barabasiAlbert(400, 3, seed),
        s"ws300-$seed" -> GraphGen.wattsStrogatz(300, 6, 0.1, seed))) ++
      Seq("star40" -> GraphGen.star(40), "complete12" -> GraphGen.complete(12), isolated,
        "grid40x40" -> GraphGen.grid(40, 40))
    val weighted = TestGraphs.battery ++ Seq(disconnected, isolated, "ba400-1" -> GraphGen.barabasiAlbert(400, 3, 1L))
    (unweighted.map { case (name, el) => (name, name, CSRGraph.fromEdges(el)) } ++
      weighted.map { case (name, el) => (s"weighted $name", name, CSRGraph.fromEdges(el, TestGraphs.smallWeights)) })
      .map { case (name, base, g) =>
        val picked = rnd.shuffle((0 until g.n).toVector).take(1 + rnd.nextInt(math.min(g.n, 5)))
        (name, g, (picked ++ unreachable.getOrElse(base, Nil)).distinct.toArray)
      }
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  test("dependencyTable over the targets' sub-DAG is bit-identical to full dependency vectors") {
    // and every output of the direction-optimising kernel is bit-identical to
    // the top-down-only reference pass (unweighted graphs): table rows,
    // dependency, spd and bc
    graphsWithTargets.foreach { case (name, g, targets) =>
      val reference = new TopDownKernel(g)
      val table = LocalBrandes.dependencyTable(g, LocalBrandes.allSources(g.n), targets)
      for (v <- 0 until g.n) {
        val full = LocalBrandes.dependency(g, v)
        targets.indices.foreach(k => assert(bits(table(v * targets.length + k)) == bits(full(targets(k))),
          s"$name delta_{$v}(${targets(k)}): ${table(v * targets.length + k)} vs ${full(targets(k))}"))
        if (!g.weighted) {
          assert(targets.indices.map(k => bits(table(v * targets.length + k))) ==
            reference.row(v, targets).map(bits).toSeq, s"$name row $v vs the reference")
          assert(full.map(bits).sameElements(reference.dependency(v).map(bits)), s"$name dependency $v vs the reference")
          val (dist, sigma, order) = LocalBrandes.spd(g, v)
          val (dist0, sigma0, order0) = reference.spd(v)
          assert(dist.sameElements(dist0) && sigma.map(bits).sameElements(sigma0.map(bits)) &&
            order.sameElements(order0), s"$name spd $v vs the reference")
        }
      }
      if (!g.weighted)
        assert(LocalBrandes.bc(g).map(bits).sameElements(reference.bc().map(bits)), s"$name bc vs the reference")
    }
  }

  test("a reused kernel leaves no state behind: shuffled sources match a fresh kernel per source") {
    val rnd = new scala.util.Random(7)
    graphsWithTargets.foreach { case (name, g, targets) =>
      val shared = new LocalBrandes.Kernel(g)
      val row = new Array[Double](targets.length)
      val fresh = new Array[Double](targets.length)
      rnd.shuffle((0 until g.n).toVector).foreach { v =>
        shared.row(v, targets, row, 0)
        new LocalBrandes.Kernel(g).row(v, targets, fresh, 0)
        assert(row.map(bits).sameElements(fresh.map(bits)), s"$name row $v")
        // the whole-DAG and BFS-only passes share the workspace too
        assert(shared.dependency(v).map(bits).sameElements(new LocalBrandes.Kernel(g).dependency(v).map(bits)),
          s"$name dependency $v")
        val u = rnd.nextInt(g.n)
        val (dist, sigma, order) = shared.spd(u)
        val (dist0, sigma0, order0) = new LocalBrandes.Kernel(g).spd(u)
        assert(dist.sameElements(dist0) && sigma.map(bits).sameElements(sigma0.map(bits)) &&
          order.sameElements(order0), s"$name spd $u")
      }
    }
  }
}
