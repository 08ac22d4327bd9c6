package repro.graph

import repro.{Oracle, SparkSpec}
import repro.graphgen.EdgeList
import repro.testutil.TestGraphs

/** Betweenness correctness against DuckDB: the betweenness of every vertex
  * (and dependency columns) are computed *in SQL* by a bounded recursive-CTE
  * walk enumeration over the edge table, and diffed against our operators via
  * [[repro.Oracle.assertEquivalent]]. A broken BFS, σ-count or accumulation
  * on our side cannot agree with an independent engine running an independent
  * algorithm.
  */
class OracleGraphSpec extends SparkSpec {

  private def round4(x: Double): Double = math.rint(x * 1e4) / 1e4

  private def checkBc(name: String, el: EdgeList): Unit = {
    assertBcAgrees(el, LocalBrandes.bc(CSRGraph.fromEdges(el)))
  }

  private def assertBcAgrees(el: EdgeList, bc: Array[Double]): Unit = {
    val rows = (0 until el.n).map(v => (v, round4(bc(v))))
    val df = spark.createDataFrame(rows).toDF("v", "bc")
    Oracle.assertEquivalent(df, TestGraphs.bcSql(TestGraphs.naiveDiameter(el)),
      "edges" -> TestGraphs.edgesDF(spark, el))
  }

  private def checkDependency(name: String, el: EdgeList, r: Int): Unit = {
    val g = CSRGraph.fromEdges(el)
    val col = LocalBrandes.dependencyColumn(g, r)
    val rows = (0 until g.n).map(v => (v, round4(col(v))))
    val df = spark.createDataFrame(rows).toDF("v", "delta")
    Oracle.assertEquivalent(df, TestGraphs.dependencySql(TestGraphs.naiveDiameter(el), r),
      "edges" -> TestGraphs.edgesDF(spark, el))
  }

  for ((name, el) <- TestGraphs.battery)
    test(s"DuckDB SQL betweenness oracle agrees on $name") { checkBc(name, el) }

  test("DuckDB SQL betweenness oracle rejects a BC perturbed by 1 on one vertex") {
    val el = TestGraphs.battery.toMap.apply("path8")
    val bc = LocalBrandes.bc(CSRGraph.fromEdges(el))
    bc(3) += 1.0
    intercept[IllegalArgumentException](assertBcAgrees(el, bc))
  }

  test("DuckDB SQL betweenness oracle agrees on random connected graphs") {
    TestGraphs.sampleGraphs(8).zipWithIndex.foreach { case (el, i) =>
      checkBc(s"random-$i", el)
    }
  }

  test("DuckDB SQL dependency-column oracle agrees on path8 (all r)") {
    val el = TestGraphs.battery.toMap.apply("path8")
    (0 until el.n).foreach(r => checkDependency("path8", el, r))
  }

  test("DuckDB SQL dependency-column oracle agrees on doubleClique4 separator") {
    val el = TestGraphs.battery.toMap.apply("doubleClique4")
    checkDependency("doubleClique4", el, 8)
  }

  test("DuckDB SQL dependency-column oracle agrees on grid3x4 and ba12") {
    checkDependency("grid3x4", TestGraphs.battery.toMap.apply("grid3x4"), 5)
    checkDependency("ba12", TestGraphs.battery.toMap.apply("ba12"), 0)
  }

  test("DuckDB SQL dependency-column oracle agrees on random graphs, random r") {
    TestGraphs.sampleGraphs(6).zipWithIndex.foreach { case (el, i) =>
      checkDependency(s"random-$i", el, i % el.n)
    }
  }
}
