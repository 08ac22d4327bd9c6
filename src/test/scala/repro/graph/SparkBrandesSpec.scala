package repro.graph

import repro.SparkSpec
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

class SparkBrandesSpec extends SparkSpec {

  private def approxEq(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  test("distributed bc matches local Brandes on the battery") {
    TestGraphs.battery.foreach { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val dist = SparkBrandes.bc(spark, g)
      val loc = LocalBrandes.bc(g)
      (0 until g.n).foreach(v => assert(approxEq(dist(v), loc(v)), s"$name BC($v)"))
    }
  }

  test("distributed bc matches local Brandes on a BA(300,3) graph") {
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 17L))
    val dist = SparkBrandes.bc(spark, g)
    val loc = LocalBrandes.bc(g)
    (0 until g.n).foreach(v => assert(approxEq(dist(v), loc(v))))
  }

  test("bc is deterministic across partition counts") {
    val el = GraphGen.karateClub
    for (g <- Seq(CSRGraph.fromEdges(el), CSRGraph.fromEdges(el, TestGraphs.smallWeights))) {
      val a = SparkBrandes.bc(spark, g, numPartitions = 2)
      val b = SparkBrandes.bc(spark, g, numPartitions = 13)
      (0 until g.n).foreach(v => assert(approxEq(a(v), b(v))))
      // at one partition count the per-partition sums are added in partition
      // order, so repeated calls agree bit for bit
      (1 to 5).foreach(i =>
        assert(java.util.Arrays.equals(SparkBrandes.bc(spark, g, numPartitions = 13), b), s"repeat $i"))
    }
  }

  test("dependenciesOnTarget matches local dependencyOn, dedups sources") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    val sources = Seq(1, 2, 3, 3, 2, 33, 0, 0)
    val out = SparkBrandes.dependenciesOnTarget(spark, g, sources, r = 0)
    assert(out.indices.filterNot(v => out(v).isNaN).toSet == sources.distinct.toSet)
    sources.distinct.foreach { v =>
      assert(approxEq(out(v), LocalBrandes.dependency(g, v)(0)), s"delta_{$v}(0)")
    }
  }

  test("dependenciesOnTarget of the target itself is zero") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    assert(SparkBrandes.dependenciesOnTarget(spark, g, Seq(5), 5)(5) == 0.0)
  }

  test("dependenciesOnTargets matches per-target local dependency vectors") {
    val el = GraphGen.grid(4, 5)
    for (g <- Seq(CSRGraph.fromEdges(el), CSRGraph.fromEdges(el, TestGraphs.smallWeights))) {
      val targets = Array(0, 7, 12)
      val out = SparkBrandes.dependenciesOnTargets(spark, g, 0 until g.n, targets)
      for (v <- 0 until g.n; (r, k) <- targets.zipWithIndex) {
        assert(approxEq(out(v * targets.length + k), LocalBrandes.dependency(g, v)(r)),
          s"weighted=${g.weighted} delta_{$v}($r)")
      }
    }
  }

  test("column sums of dependenciesOnTarget equal exact BC") {
    val g = CSRGraph.fromEdges(GraphGen.wattsStrogatz(60, 4, 0.2, 5L))
    val bc = LocalBrandes.bc(g)
    for (r <- Seq(0, 17, 42)) {
      val sum = SparkBrandes.dependenciesOnTarget(spark, g, 0 until g.n, r).sum
      assert(approxEq(sum, bc(r)), s"BC($r)")
    }
  }

  test("concurrent local dependencyTable calls on one graph agree (no shared kernel)") {
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(1500, 3, 11L))
    val targets = Array(0, 1, 2, 750)
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(2)
    try {
      val calls = (1 to 2).map(_ => pool.submit(new java.util.concurrent.Callable[Array[Double]] {
        def call(): Array[Double] = {
          start.await()
          LocalBrandes.dependencyTable(g, LocalBrandes.allSources(g.n), targets)
        }
      }))
      start.countDown()
      val Seq(a, b) = calls.map(_.get())
      assert(java.util.Arrays.equals(a, b))
      assert(java.util.Arrays.equals(a, LocalBrandes.dependencyTable(g, LocalBrandes.allSources(g.n), targets)))
    } finally pool.shutdown()
  }

  test("sessionTable on a local session builds on the driver's pool, bit for bit the Spark job's table") {
    // the other branch, a Spark job on a non-local master, cannot start in a test session
    assert(spark.sparkContext.isLocal)
    val el = GraphGen.barabasiAlbert(300, 3, 7L)
    val targets = Array(3, 17, 150)
    for ((kind, g) <- Seq("unweighted" -> CSRGraph.fromEdges(el), "weighted" -> CSRGraph.fromEdges(el, TestGraphs.smallWeights));
         sources <- Seq(LocalBrandes.markSources(g.n, Seq.tabulate(120)(i => (i * 7) % g.n)),
                        LocalBrandes.markSources(g.n, Seq(5, 40)))) {
      val (table, where) = SparkBrandes.sessionTable(spark, g, sources, targets)
      // every source on a weighted graph, else those whose row has a non-zero entry
      val kernel = new LocalBrandes.Kernel(g)
      val row = new Array[Double](targets.length)
      val passes = sources.stream.toArray.count { s => kernel.row(s, targets, row, 0); g.weighted || row.exists(_ != 0.0) }
      val workers = repro.core.Chunks.count(passes, repro.core.Chunks.default)
      assert(where == s"driver pool, $workers workers, $passes of ${sources.cardinality} sources evaluated",
        s"$kind, ${sources.cardinality} sources")
      assert(table.map(java.lang.Double.doubleToRawLongBits)
        .sameElements(SparkBrandes.dependencyTable(spark, g, sources, targets).map(java.lang.Double.doubleToRawLongBits)),
        s"$kind, ${sources.cardinality} sources")
    }
  }

  test("the Spark job's screened table has the local table's bits at 1, 3 and 8 partitions") {
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    // the target of least non-empty support
    val (r, column) = (0 until g.n).map(v => v -> LocalBrandes.dependencyColumn(g, v))
      .filter(_._2.exists(_ > 0.0)).minBy(_._2.count(_ > 0.0))
    val zero = (0 until g.n).filter(column(_) == 0.0)
    assert(zero.length > g.n / 2 && zero.length < g.n, s"${zero.length} sources outside the support of $r")
    def bits(table: Array[Double]) = table.map(java.lang.Double.doubleToRawLongBits)
    for ((what, sources) <- Seq("every source" -> (0 until g.n), "only sources outside the support" -> zero)) {
      val marked = LocalBrandes.markSources(g.n, sources)
      val local = LocalBrandes.dependencyTable(g, marked, Array(r))
      for (p <- Seq(1, 3, 8))
        assert(bits(SparkBrandes.dependencyTable(spark, g, marked, Array(r), p)).sameElements(bits(local)),
          s"$what, $p partitions")
    }
  }

  test("a σ overflow fails the Spark table on the driver with the pool's message, at 1, 3 and 8 partitions") {
    // the diamond chain and sources of LocalBrandesSpec's failing-rows test
    val g = CSRGraph.fromEdges(TestGraphs.diamondChain(1100))
    val sources = LocalBrandes.markSources(g.n, (1500 until 1700) ++ (3000 until g.n))
    val targets = Array(1, g.n - 1)
    val pool = intercept[ArithmeticException](LocalBrandes.dependencyTable(g, sources, targets)).getMessage
    assert(pool.startsWith("the dependency of source 3072 on target 1 is NaN"), pool)
    for (p <- Seq(1, 3, 8)) {
      val e = intercept[ArithmeticException](SparkBrandes.dependencyTable(spark, g, sources, targets, p))
      assert(e.getMessage == pool, s"$p partitions")
    }
  }

  test("distributed bc fails on a σ overflow, naming the least vertex whose BC is not finite, at 1 and 3 partitions") {
    val g = CSRGraph.fromEdges(TestGraphs.diamondChain(1100))
    for (p <- Seq(1, 3)) {
      val e = intercept[ArithmeticException](SparkBrandes.bc(spark, g, p))
      assert(e.getMessage == "the betweenness of vertex 1 is NaN: the shortest-path counts σ overflow Double",
        s"$p partitions")
    }
  }

  test("BC is unchanged under a seeded vertex relabelling: BC'(π(v)) = BC(v), locally and on Spark") {
    def irregular(e: (Int, Int)): Double = 0.1 + ((e._1 * 2654435761L + e._2 * 40503L) % 10007) / 1234.567
    def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))
    val rnd = new scala.util.Random(2019L)
    val graphs = Seq[(String, EdgeList, Option[((Int, Int)) => Double])](
      ("BA(300,3,7)", GraphGen.barabasiAlbert(300, 3, 7L), None),
      ("karate", GraphGen.karateClub, None),
      ("weighted WS(300,4,0.2,3)", GraphGen.wattsStrogatz(300, 4, 0.2, 3L), Some(irregular)))
    for ((name, el, weight) <- graphs) {
      val pi = rnd.shuffle((0 until el.n).toVector)
      val inv = pi.indices.sortBy(pi)
      def canonical(u: Int, v: Int): (Int, Int) = (math.min(u, v), math.max(u, v))
      val relabelled = EdgeList(el.n, el.edges.map { case (u, v) => canonical(pi(u), pi(v)) }.sorted)
      def build(edges: EdgeList, w: ((Int, Int)) => Double): CSRGraph =
        if (weight.isEmpty) CSRGraph.fromEdges(edges) else CSRGraph.fromEdges(edges, w)
      val g = build(el, e => weight.get(e))
      val h = build(relabelled, { case (a, b) => weight.get(canonical(inv(a), inv(b))) })
      val bc = LocalBrandes.bc(g)
      val moved = LocalBrandes.bc(h)
      val viaSpark = if (name == "karate") Some(SparkBrandes.bc(spark, h)) else None
      for (v <- 0 until el.n) {
        assert(close(moved(pi(v)), bc(v)), s"$name: BC($v) = ${bc(v)}, relabelled ${moved(pi(v))}")
        viaSpark.foreach(b => assert(close(b(pi(v)), bc(v)), s"$name on Spark: BC($v) = ${bc(v)}, relabelled ${b(pi(v))}"))
      }
    }
  }
}
