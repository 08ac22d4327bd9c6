package repro.bench

import repro.SparkSpec
import repro.core.{Estimators, MHJoint}
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}

/** T5 — joint-space sampler: Eq.-22 BC-ratio estimates and Eq.-23 relative
  * scores vs chain length (Theorems 3 and 4). The headline number is the
  * mean absolute relative error of the estimated BC(r_i)/BC(r_j) over all
  * ordered probe pairs.
  */
class T5JointBench extends SparkSpec {

  private val Ts = Seq(3000, 10000, 30000)
  private val Seeds = 5

  private def probes(g: CSRGraph): Array[Int] = {
    val byDeg = (0 until g.n).sortBy(v => -g.degree(v))
    Array(byDeg(0), byDeg(1), byDeg(g.n / 20), byDeg(g.n / 8), byDeg(g.n / 4))
  }

  test("T5: joint-space ratio error vs T on BA(2000,4)") {
    val (name, el) = BenchUtil.graphs.head
    val g = CSRGraph.fromEdges(el)
    val R = probes(g)
    val exact = R.map(r => BenchUtil.exactBC(spark, name, g, r))
    val deltaTable = SparkBrandes.dependencyTable(spark, g, LocalBrandes.allSources(g.n), R)

    def meanPairErr(T: Int): Double = {
      val errs = for (s <- 1 to Seeds) yield {
        val chain = MHJoint.sample(g.n, R, T, 500L * s)(_ => deltaTable)
        val pairErrs = for {
          i <- R.indices; j <- R.indices if i != j
        } yield {
          val est = chain.ratioEstimate(i, j)
          val tru = exact(i) / exact(j)
          math.abs(est - tru) / tru
        }
        pairErrs.sum / pairErrs.size
      }
      errs.sum / Seeds
    }

    val errs = Ts.map(meanPairErr)
    println(BenchUtil.table(
      s"T5: mean |ratio est - exact|/exact over ${R.length * (R.length - 1)} ordered pairs, $name",
      "R" +: Ts.map(t => s"T=$t"),
      Seq(R.mkString("{", ",", "}") +: errs.map(e => BenchUtil.f(e, 4)))))
    assert(errs.last < errs.head, s"ratio error should shrink with T: $errs")
    assert(errs.last < 0.35, s"ratio error at T=${Ts.last}: ${errs.last}")
  }

  test("T5b: relative scores: estimator converges to Eq.19 expectation; " +
       "exact Eq.23 reported beside it") {
    val (name, el) = BenchUtil.graphs.head
    val g = CSRGraph.fromEdges(el)
    val byDeg = (0 until g.n).sortBy(v => -g.degree(v))
    val R = Array(byDeg(0), byDeg(1))
    val cols = R.map(r => BenchUtil.deltaColumn(spark, name, g, r))
    val deltaTable = SparkBrandes.dependencyTable(spark, g, LocalBrandes.allSources(g.n), R)

    val chain = MHJoint.sample(g.n, R, 30000, 77L)(_ => deltaTable)
    val rows = for (i <- R.indices; j <- R.indices if i != j) yield {
      val est = chain.relativeEstimate(i, j)
      val e19 = Estimators.exactEq19Expectation(cols(i), cols(j))
      val e23 = Estimators.exactRelative(cols(i), cols(j))
      assert(math.abs(est - e19) < 0.1, s"($i,$j): est=$est eq19=$e19")
      Seq(s"BC_{${R(j)}}(${R(i)})", BenchUtil.f(est, 4), BenchUtil.f(e19, 4),
        BenchUtil.f(e23, 4))
    }
    println(BenchUtil.table(
      s"T5b: relative betweenness on $name, T=30000",
      Seq("quantity", "sampler estimate", "exact Eq.19 (its limit)", "exact Eq.23"),
      rows.toSeq))
  }

  test("T5c: Theorem 3 exactness — ratio of Eq.19 expectations equals BC ratio") {
    val (name, el) = BenchUtil.graphs.head
    val g = CSRGraph.fromEdges(el)
    val byDeg = (0 until g.n).sortBy(v => -g.degree(v))
    val R = Array(byDeg(0), byDeg(5), byDeg(50))
    val cols = R.map(r => BenchUtil.deltaColumn(spark, name, g, r))
    for (i <- R.indices; j <- R.indices if i != j) {
      val bci = cols(i).sum; val bcj = cols(j).sum
      val ratio = Estimators.theorem3Ratio(cols(i), cols(j))
      assert(math.abs(ratio - bci / bcj) < 1e-9 * (bci / bcj),
        s"pair (${R(i)},${R(j)})")
    }
  }
}
