package repro.core

/** Exact quantities and estimator-side math shared by the samplers, tests and
  * benches: the optimal sampling distribution π_r (Eq. 5), relative
  * betweenness (Eq. 23), the Eq.-19 expectations, and total-variation
  * distance for stationarity checks. The exact quantities read all-sources δ
  * columns (length n, δ_{v•}(r) at every v, as
  * [[repro.graph.LocalBrandes.dependencyColumn]] returns them), whatever the
  * graph kind or backend that computed them.
  */
object Estimators {

  /** Exact optimal distribution π_r(v) = δ_{v•}(r) / BC(r) (Eq. 5) from the
    * column of r. Returns the all-zero vector if BC(r) = 0 (r on no shortest
    * path).
    */
  def exactPi(col: Array[Double]): Array[Double] = {
    val z = col.sum
    if (z == 0.0) new Array[Double](col.length) else col.map(_ / z)
  }

  /** Empirical distribution of a sequence of chain states over `0 until n`. */
  def empiricalDist(states: Array[Int], n: Int): Array[Double] = {
    val counts = new Array[Double](n)
    states.foreach(counts(_) += 1.0)
    counts.map(_ / states.length)
  }

  /** Total-variation distance between two distributions on the same support. */
  def tvDistance(p: Array[Double], q: Array[Double]): Double = {
    require(p.length == q.length, s"distributions have lengths ${p.length} and ${q.length}")
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

  /** Exact relative betweenness BC_{r_j}(r_i) (Eq. 23) from the columns
    * `di` of r_i and `dj` of r_j: the uniform average over w ∈ V(G) of
    * min{1, δ_{w•}(r_i)/δ_{w•}(r_j)}.
    */
  def exactRelative(di: Array[Double], dj: Array[Double]): Double =
    sumOver(di, dj)(cappedRatio) / di.length

  /** The Eq.-19 expectation E_{π_{r_j}}[ min{1, δ_{w•}(r_i)/δ_{w•}(r_j)} ]
    * from the columns `di` of r_i and `dj` of r_j — the quantity the Eq.-22
    * numerator actually converges to (w with δ_{w•}(r_j) = 0 carry zero
    * π-weight and add nothing). 0 if BC(r_j) = 0.
    */
  def exactEq19Expectation(di: Array[Double], dj: Array[Double]): Double = {
    val bcj = sumOver(di, dj)((_, b) => b)
    sumOver(di, dj) { (a, b) =>
      val pj = b / bcj // π_{r_j}(w), Eq. 5
      if (pj > 0.0) pj * cappedRatio(a, b) else 0.0
    }
  }

  /** Σ_w min(δ_{w•}(r_i), δ_{w•}(r_j)) over the columns `di` and `dj` — the
    * common numerator of both sides of Eq. 21 summed over w. Theorem 3's
    * ratio identity is exact iff this is positive; when the two dependency
    * supports are disjoint it is 0 and the ratio degenerates to 0/0 (a
    * precondition the paper leaves implicit).
    */
  def supportOverlap(di: Array[Double], dj: Array[Double]): Double =
    sumOver(di, dj)(math.min)

  /** Exact BC ratio predicted by Theorem 3 from the two Eq.-19 expectations
    * over the columns `di` and `dj`; tests verify it equals
    * BC(r_i)/BC(r_j) to machine precision whenever [[supportOverlap]] is
    * positive.
    */
  def theorem3Ratio(di: Array[Double], dj: Array[Double]): Double =
    exactEq19Expectation(di, dj) / exactEq19Expectation(dj, di)

  /** Σ_w f(di(w), dj(w)) over two δ columns, summed in vertex order. */
  private def sumOver(di: Array[Double], dj: Array[Double])(f: (Double, Double) => Double): Double = {
    require(di.length == dj.length, s"δ columns have lengths ${di.length} and ${dj.length}")
    var s = 0.0
    var w = 0
    while (w < di.length) { s += f(di(w), dj(w)); w += 1 }
    s
  }
}
