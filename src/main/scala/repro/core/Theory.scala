package repro.core

import repro.graph.CSRGraph

/** The analytical side of the paper: μ(r) (Inequality 11), the (ε,δ) sample
  * bounds (Eq. 14 / Eq. 27), and the Theorem-2 closed form for cut vertices.
  */
object Theory {

  /** μ(r) = max_v δ_{v•}(r) / δ̄(r) from the all-sources δ column of r, with
    * δ̄(r) the average over *all* of V(G) (Theorem 1's definition). Returns ∞
    * if BC(r) = 0.
    */
  def mu(col: Array[Double]): Double = {
    val mean = col.sum / col.length
    if (mean == 0.0) Double.PositiveInfinity else col.max / mean
  }

  /** Eq. 14 (and identically Eq. 27): samples sufficient for an
    * (ε,δ)-approximation, T ≥ μ(r)²/(2ε²) · ln(2/δ).
    */
  def sampleBound(mu: Double, eps: Double, delta: Double): Double = {
    require(eps > 0 && delta > 0 && delta < 1,
      s"sampleBound needs eps > 0 and 0 < delta < 1, got eps=$eps, delta=$delta")
    mu * mu / (2 * eps * eps) * math.log(2.0 / delta)
  }

  /** The Hoeffding-type tail of Eq. 12: bound on
    * P[|B̈C(r) − BC(r)| > ε] after T iterations.
    */
  def errorProbability(mu: Double, eps: Double, T: Int): Double = {
    val inner = 2 * eps / mu - 3.0 / T
    if (inner <= 0) 1.0 else math.min(1.0, 2 * math.exp(-T / 2.0 * inner * inner))
  }

  /** Component sizes of G \ {r} (the set C of Theorem 2); length 1 iff r is
    * not a cut vertex.
    */
  def componentSizes(g: CSRGraph, r: Int): Vector[Int] =
    g.componentsWithout(r).map(_.size)

  /** Theorem-2 closed form of max δ / δ̄ for a cut vertex r, derived in the
    * proof purely from component sizes: with V_i = Σ_{j≠i}|C_j|,
    * maxδ = max_i V_i and δ̄ = (1/|V|) Σ_i |C_i|·V_i. Exact whenever every
    * shortest path between distinct components passes through r and no
    * within-component shortest path does (e.g. [[repro.graphgen.GraphGen.doubleClique]]).
    * None if r is not a cut vertex.
    */
  def theorem2Mu(g: CSRGraph, r: Int): Option[Double] = {
    val sizes = componentSizes(g, r)
    if (sizes.length < 2) None
    else {
      val totalOthers = sizes.map(ci => sizes.sum - ci)
      val maxDelta = totalOthers.max.toDouble
      val meanDelta = sizes.zip(totalOthers).map { case (c, v) => c.toDouble * v }.sum / g.n
      Some(maxDelta / meanDelta)
    }
  }

  /** Theorem 2's hypothesis, operationally: r is a cut vertex and for every
    * component C_i, the vertices outside C_i are at least |V|/4
    * (V_i = Θ(|V|) with constant 1/4).
    */
  def isBalancedSeparator(g: CSRGraph, r: Int): Boolean = {
    val sizes = componentSizes(g, r)
    sizes.length >= 2 && sizes.forall(ci => (sizes.sum - ci) >= 0.25 * g.n)
  }
}
