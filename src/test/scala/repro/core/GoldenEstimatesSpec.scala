package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, LocalBrandes}
import repro.graphgen.GraphGen
import repro.testutil.TestGraphs

/** Estimates at a fixed seed, pinned bit for bit. The values were taken
  * before the samplers moved to primitive δ columns, the baselines to `Lcg`
  * and one δ table, and the exact quantities to δ-column arguments; a change
  * to the RNG stream, the walk or an estimator's summation order fails here.
  */
class GoldenEstimatesSpec extends AnyFunSuite {

  private val karate = CSRGraph.fromEdges(GraphGen.karateClub)

  private def assertBits(what: String, actual: Double, expectedBits: Long): Unit =
    assert(java.lang.Double.doubleToLongBits(actual) == expectedBits,
      s"$what = $actual, expected ${java.lang.Double.longBitsToDouble(expectedBits)}")

  test("single-space estimators on karate, r = 0, T = 5000, seed 2019") {
    val chain = MHSingle.run(karate, 0, 5000, 2019L)
    assertBits("estimateHarmonic", chain.estimateHarmonic, 4646823682352694185L) // 461.34494829648844
    assertBits("estimateEq7", chain.estimateEq7, 4603336451174264458L) // 0.5730118189926128
    assertBits("ergodicMeanDelta", chain.ergodicMeanDelta, 4626015737799522815L) // 18.909390026756224
    assertBits("acceptanceRate", chain.acceptanceRate, 4604215447365505725L) // 0.6706
  }

  test("joint-space ratio on karate, R = {0, 33}, T = 5000, seed 2019") {
    val chain = MHJoint.run(karate, Array(0, 33), 5000, 2019L)
    assertBits("ratioEstimate(0, 1)", chain.ratioEstimate(0, 1), 4609220306454767630L) // 1.4525019591806116
    assertBits("relativeEstimate(0, 1)", chain.relativeEstimate(0, 1), 4603944612983950502L) // 0.6405313433737276
    assertBits("acceptanceRate", chain.acceptanceRate, 4604002877463093838L) // 0.647
  }

  test("exact pairwise estimators on karate, (r_i, r_j) = (0, 33) and (33, 0)") {
    val c0 = LocalBrandes.dependencyColumn(karate, 0)
    val c33 = LocalBrandes.dependencyColumn(karate, 33)
    assertBits("exactRelative(0, 33)", Estimators.exactRelative(c0, c33), 4605188902288900788L) // 0.7786752069387917
    assertBits("exactRelative(33, 0)", Estimators.exactRelative(c33, c0), 4603632708981182187L) // 0.6059030428391144
    assertBits("exactEq19Expectation(0, 33)", Estimators.exactEq19Expectation(c0, c33), 4603854704037414118L) // 0.6305494451172791
    assertBits("exactEq19Expectation(33, 0)", Estimators.exactEq19Expectation(c33, c0), 4601563986844486697L) // 0.43811437403400305
    assertBits("supportOverlap(0, 33)", Estimators.supportOverlap(c0, c33), 4641327846644454896L) // 202.47142857142853
    assertBits("theorem3Ratio(0, 33)", Estimators.theorem3Ratio(c0, c33), 4609160556395558599L) // 1.4392347808892951
    assertBits("mu(0)", Theory.mu(c0), 4612483719381478566L) // 2.354250386398763
    assertBits("mu(33)", Theory.mu(c33), 4614205937087867371L) // 3.1190686868187547
    assertBits("exactPi(0).max", Estimators.exactPi(c0).max, 4589653880033951900L) // 0.06924265842349303
  }

  test("baselines on karate, r = 0 and 31, k = 2000, seed 1") {
    assertBits("uniformEstimate(0)", Baselines.uniformEstimate(karate, 0, 2000, 1L), 4646950794429723575L) // 468.57043333333735
    assertBits("distanceEstimate(0)", Baselines.distanceEstimate(karate, 0, 2000, 1L), 4647037980924457210L) // 473.526411772487
    assertBits("rkEstimate(0)", Baselines.rkEstimate(karate, 0, 2000, 1L), 4646760896750279459L) // 457.776
    assertBits("uniformEstimate(31)", Baselines.uniformEstimate(karate, 31, 2000, 1L), 4639435658255747357L) // 148.6921999999985
    assertBits("distanceEstimate(31)", Baselines.distanceEstimate(karate, 31, 2000, 1L), 4639577795007033868L) // 152.73196944444533
    assertBits("rkEstimate(31)", Baselines.rkEstimate(karate, 31, 2000, 1L), 4639513654971793932L) // 150.909
  }

  test("kernel outputs beyond karate: BA(300,3,7) delta table on the top-5 degree vertices, grid(12,12) BC") {
    // java.util.Arrays.hashCode of a double array hashes every entry's
    // doubleToLongBits; the grid's σ are large (up to C(22,11) = 705432)
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L))
    val top5 = (0 until ba.n).sortBy(v => (-ba.degree(v), v)).take(5).toArray
    assert(top5.sameElements(Array(3, 0, 5, 1, 6)), top5.mkString(","))
    val table = LocalBrandes.dependencyTable(ba, LocalBrandes.allSources(ba.n), top5)
    assert(java.util.Arrays.hashCode(table) == 872666199)
    assert(java.util.Arrays.hashCode(LocalBrandes.bc(CSRGraph.fromEdges(GraphGen.grid(12, 12)))) == -1490818184)
  }

  test("weighted kernel outputs: BA(300,3,7) with weights in {1,2,3} and WS(300,4,0.2,3) with irregular real weights") {
    // hashes of every entry's bits, as above: Dijkstra's settle order (and so
    // σ's summation order) at tied distances shows in them
    def irregular(e: (Int, Int)): Double = 0.1 + ((e._1 * 2654435761L + e._2 * 40503L) % 10007) / 1234.567
    val ba = CSRGraph.fromEdges(GraphGen.barabasiAlbert(300, 3, 7L), TestGraphs.smallWeights)
    val ws = CSRGraph.fromEdges(GraphGen.wattsStrogatz(300, 4, 0.2, 3L), irregular)
    for ((name, g, bcHash, tableHash) <- Seq(("BA", ba, 1630382558, 725835703), ("WS", ws, 227839361, 828796033))) {
      val top5 = (0 until g.n).sortBy(v => (-g.degree(v), v)).take(5).toArray
      val table = LocalBrandes.dependencyTable(g, LocalBrandes.allSources(g.n), top5)
      val bc = LocalBrandes.bc(g)
      assert((java.util.Arrays.hashCode(bc), java.util.Arrays.hashCode(table)) == ((bcHash, tableHash)), name)
    }
  }
}
