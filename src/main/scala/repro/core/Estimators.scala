package repro.core

import repro.graph.{CSRGraph, LocalBrandes}

/** Exact quantities and estimator-side math shared by the samplers, tests and
  * benches: the optimal sampling distribution π_r (Eq. 5), relative
  * betweenness (Eq. 23), the Eq.-19 expectations, and total-variation
  * distance for stationarity checks.
  */
object Estimators {

  /** Exact optimal distribution π_r(v) = δ_{v•}(r) / BC(r) (Eq. 5).
    * Returns the all-zero vector if BC(r) = 0 (r on no shortest path).
    */
  def exactPi(g: CSRGraph, r: Int): Array[Double] = {
    val col = LocalBrandes.dependencyColumn(g, r)
    val z = col.sum
    if (z == 0.0) new Array[Double](g.n) else col.map(_ / z)
  }

  /** Empirical distribution of a sequence of chain states over `0 until n`. */
  def empiricalDist(states: Array[Int], n: Int): Array[Double] = {
    val counts = new Array[Double](n)
    states.foreach(counts(_) += 1.0)
    counts.map(_ / states.length)
  }

  /** Total-variation distance between two distributions on the same support. */
  def tvDistance(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length)
    0.5 * p.indices.map(i => math.abs(p(i) - q(i))).sum
  }

  /** min{1, a/b} with the zero conventions used throughout: 0/0 ↦ 0 and
    * (a>0)/0 ↦ ∞ (so the min is 1). These cases carry zero probability under
    * the relevant stationary distribution; the convention only pins down the
    * uniform-average Eq. 23.
    */
  def cappedRatio(a: Double, b: Double): Double =
    if (b > 0.0) math.min(1.0, a / b)
    else if (a > 0.0) 1.0
    else 0.0

  /** δ_{w•}(r_i) at `t(2 * w)` and δ_{w•}(r_j) at `t(2 * w + 1)`, for every
    * source w: the one exact table the pairwise quantities below read.
    */
  private def pairTable(g: CSRGraph, ri: Int, rj: Int): Array[Double] =
    LocalBrandes.dependencyTable(g, LocalBrandes.allSources(g.n), Array(ri, rj))

  /** Exact relative betweenness BC_{r_j}(r_i) (Eq. 23): the uniform average
    * over w ∈ V(G) of min{1, δ_{w•}(r_i)/δ_{w•}(r_j)}.
    */
  def exactRelative(g: CSRGraph, ri: Int, rj: Int): Double = {
    val t = pairTable(g, ri, rj)
    var s = 0.0
    var w = 0
    while (w < g.n) { s += cappedRatio(t(2 * w), t(2 * w + 1)); w += 1 }
    s / g.n
  }

  /** The Eq.-19 expectation E_{π_{r_j}}[ min{1, δ_{w•}(r_i)/δ_{w•}(r_j)} ] —
    * the quantity the Eq.-22 numerator actually converges to (w with
    * δ_{w•}(r_j) = 0 carry zero π-weight and are skipped). 0 if BC(r_j) = 0.
    */
  def exactEq19Expectation(g: CSRGraph, ri: Int, rj: Int): Double = {
    val t = pairTable(g, ri, rj)
    var bcj = 0.0
    var w = 0
    while (w < g.n) { bcj += t(2 * w + 1); w += 1 }
    var s = 0.0
    w = 0
    while (w < g.n) {
      val pj = t(2 * w + 1) / bcj // π_{r_j}(w), Eq. 5
      if (pj > 0.0) s += pj * cappedRatio(t(2 * w), t(2 * w + 1))
      w += 1
    }
    s
  }

  /** Σ_w min(δ_{w•}(r_i), δ_{w•}(r_j)) — the common numerator of both sides
    * of Eq. 21 summed over w. Theorem 3's ratio identity is exact iff this is
    * positive; when the two dependency supports are disjoint it is 0 and the
    * ratio degenerates to 0/0 (a precondition the paper leaves implicit).
    */
  def supportOverlap(g: CSRGraph, ri: Int, rj: Int): Double = {
    val t = pairTable(g, ri, rj)
    var s = 0.0
    var w = 0
    while (w < g.n) { s += math.min(t(2 * w), t(2 * w + 1)); w += 1 }
    s
  }

  /** Exact BC ratio predicted by Theorem 3 from the two Eq.-19 expectations;
    * tests verify it equals BC(r_i)/BC(r_j) to machine precision whenever
    * [[supportOverlap]] is positive.
    */
  def theorem3Ratio(g: CSRGraph, ri: Int, rj: Int): Double =
    exactEq19Expectation(g, ri, rj) / exactEq19Expectation(g, rj, ri)
}
