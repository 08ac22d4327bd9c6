package repro.graph

import repro.graphgen.EdgeList

/** CSR adjacency with positive edge weights — the "weighted graphs with
  * positive weights" case the paper's complexity statements cover
  * (O(|E| + |V| log |V|) per dependency evaluation, §2.1/§4.1): an unweighted
  * [[CSRGraph]] plus one weight per arc, `weights(i)` for the arc to
  * `csr.neighbors(i)`.
  */
final class WeightedCSRGraph private (val csr: CSRGraph, val weights: Array[Double])
    extends Serializable {

  def n: Int = csr.n

  @inline def foreachNeighbor(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = csr.offsets(v)
    val end = csr.offsets(v + 1)
    while (i < end) { f(csr.neighbors(i), weights(i)); i += 1 }
  }
}

object WeightedCSRGraph {

  /** Build from an [[EdgeList]] and a per-edge weight function (applied to
    * the canonical (u < v) edge, used for both directions).
    */
  def fromEdges(el: EdgeList, weight: ((Int, Int)) => Double): WeightedCSRGraph = {
    val csr = CSRGraph.fromEdges(el)
    val weights = new Array[Double](csr.neighbors.length)
    for (v <- 0 until csr.n; i <- csr.offsets(v) until csr.offsets(v + 1)) {
      val u = csr.neighbors(i)
      val e = if (v < u) (v, u) else (u, v)
      weights(i) = weight(e)
      require(weights(i) > 0, s"weight of $e must be positive")
    }
    new WeightedCSRGraph(csr, weights)
  }

  /** All weights 1 — must reproduce the unweighted kernels exactly. */
  def unit(el: EdgeList): WeightedCSRGraph = fromEdges(el, _ => 1.0)
}

/** Brandes machinery for weighted graphs: Dijkstra SPDs with shortest-path
  * counting and the same backward dependency accumulation, settling vertices
  * in order of nonincreasing distance. Distances are compared with a relative
  * tolerance, so equal-weight ties survive float accumulation at any weight
  * scale.
  */
object LocalBrandesWeighted {

  private val Eps = 1e-9

  /** The finite distance a equals the distance b up to the relative
    * tolerance Eps. The +∞ of an unreached b ties nothing, though
    * |a − ∞| ≤ Eps · ∞ would hold.
    */
  private def tied(a: Double, b: Double): Boolean =
    b != Double.PositiveInfinity && math.abs(a - b) <= Eps * math.max(a, b)

  /** Weighted SPD: (dist, sigma, settleOrder). */
  def spd(g: WeightedCSRGraph, s: Int): (Array[Double], Array[Double], Array[Int]) = {
    val dist = Array.fill(g.n)(Double.PositiveInfinity)
    val sigma = new Array[Double](g.n)
    val settled = new Array[Boolean](g.n)
    val order = new Array[Int](g.n)
    var nSettled = 0
    val pq = new java.util.PriorityQueue[(Double, Int)](
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(a._1, b._1))
    dist(s) = 0.0; sigma(s) = 1.0
    pq.add((0.0, s))
    while (!pq.isEmpty) {
      val (d, v) = pq.poll()
      if (!settled(v) && (d <= dist(v) || tied(d, dist(v)))) {
        settled(v) = true
        order(nSettled) = v; nSettled += 1
        g.foreachNeighbor(v) { (w, wt) =>
          val nd = dist(v) + wt
          if (nd < dist(w) && !tied(nd, dist(w))) {
            dist(w) = nd; sigma(w) = sigma(v); pq.add((nd, w))
          } else if (tied(nd, dist(w)) && !settled(w)) {
            sigma(w) += sigma(v)
          }
        }
      }
    }
    (dist, sigma, java.util.Arrays.copyOf(order, nSettled))
  }

  /** δ_{s•}(v) for all v — weighted Eq. 4 accumulation. */
  def dependency(g: WeightedCSRGraph, s: Int): Array[Double] = {
    val (dist, sigma, order) = spd(g, s)
    val delta = new Array[Double](g.n)
    var i = order.length - 1
    while (i >= 0) {
      val w = order(i); i -= 1
      val coef = (1.0 + delta(w)) / sigma(w)
      g.foreachNeighbor(w) { (v, wt) =>
        if (tied(dist(v) + wt, dist(w))) delta(v) += sigma(v) * coef
      }
    }
    delta(s) = 0.0
    delta
  }

  /** Exact weighted betweenness of every vertex (ordered-pair convention). */
  def bc(g: WeightedCSRGraph): Array[Double] =
    (0 until g.n).foldLeft(new Array[Double](g.n))((acc, s) => LocalBrandes.accumulate(acc, dependency(g, s)))
}
