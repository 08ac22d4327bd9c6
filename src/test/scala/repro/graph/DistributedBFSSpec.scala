package repro.graph

import repro.SparkSpec
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

class DistributedBFSSpec extends SparkSpec {

  private def approxEq(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  private def checkSpd(name: String, el: repro.graphgen.EdgeList, source: Int): Unit = {
    val g = CSRGraph.fromEdges(el)
    val (dist, sigma, _) = LocalBrandes.spd(g, source)
    val rows = DistributedBFS.spd(spark, TestGraphs.edgesDF(spark, el), source).collect()
    assert(rows.length == g.n, s"$name: SPD should cover all vertices")
    rows.foreach { r =>
      val v = r.getInt(0)
      assert(r.getInt(1) == dist(v), s"$name dist($v)")
      assert(approxEq(r.getDouble(2), sigma(v)), s"$name sigma($v)")
    }
  }

  private def checkDependency(name: String, el: repro.graphgen.EdgeList, source: Int): Unit = {
    val g = CSRGraph.fromEdges(el)
    val loc = LocalBrandes.dependency(g, source)
    val edges = TestGraphs.edgesDF(spark, el)
    val spd = DistributedBFS.spd(spark, edges, source)
    val rows = DistributedBFS.dependency(spark, edges, spd).collect()
    assert(rows.length == g.n)
    rows.foreach { r =>
      val v = r.getInt(0)
      assert(approxEq(r.getDouble(1), loc(v)), s"$name delta_{$source}($v)")
    }
  }

  test("DataFrame BFS spd matches local on path8 from an end") {
    checkSpd("path8", GraphGen.path(8), 0)
  }

  test("DataFrame BFS spd matches local on grid3x4 from a middle vertex") {
    checkSpd("grid3x4", GraphGen.grid(3, 4), 5)
  }

  test("DataFrame BFS spd matches local on karate from vertex 0") {
    checkSpd("karate", GraphGen.karateClub, 0)
  }

  test("DataFrame BFS spd matches local on doubleClique4 from the separator") {
    checkSpd("doubleClique4", GraphGen.doubleClique(4), 8)
  }

  test("DataFrame dependency matches local on path8") {
    checkDependency("path8", GraphGen.path(8), 2)
  }

  test("DataFrame dependency matches local on grid3x4") {
    checkDependency("grid3x4", GraphGen.grid(3, 4), 0)
  }

  test("DataFrame dependency matches local on karate") {
    checkDependency("karate", GraphGen.karateClub, 33)
  }

  test("DataFrame dependency matches local on a random graph") {
    checkDependency("er", GraphGen.erdosRenyi(15, 0.25, 4L), 3)
  }

  test("dependencyOn end-to-end equals local dependencyOn") {
    val el = GraphGen.barbell(3, 2)
    val g = CSRGraph.fromEdges(el)
    val edges = TestGraphs.edgesDF(spark, el)
    for ((v, r) <- Seq((0, 6), (6, 7), (4, 0)))
      assert(approxEq(DistributedBFS.dependencyOn(spark, edges, v, r),
        LocalBrandes.dependency(g, v)(r)), s"delta_{$v}($r)")
    assert(DistributedBFS.dependencyOn(spark, edges, 5, 5) == 0.0)
  }
}
