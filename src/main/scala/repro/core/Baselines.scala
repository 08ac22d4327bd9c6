package repro.core

import repro.graph.{CSRGraph, LocalBrandes}

/** The competing estimators the paper positions itself against (§3.2). All
  * three are unbiased iid samplers for the ordered-pair betweenness BC(r);
  * T6 compares them to the MH sampler at equal sample budgets. The source
  * samplers read δ from one [[LocalBrandes.dependencyTable]] over their
  * distinct draws. The distance and RK samplers read hop distances, so they
  * take unweighted graphs only. On a disconnected graph all three stay
  * unbiased: a vertex unreachable from r has distance weight 0 (its
  * δ_{v•}(r) is 0), and an RK pair with no path is a miss.
  */
object Baselines {

  /** Uniform source sampling [Bader et al. 2007 / Brandes–Pich 2007 style]:
    * sample v uniformly from V(G); E[|V|·δ_{v•}(r)] = BC(r).
    */
  def uniformEstimate(g: CSRGraph, r: Int, k: Int, seed: Long): Double = {
    checkInputs(g, r, k)
    val rnd = new Lcg(seed)
    val vs = Array.fill(k)(rnd.nextInt(g.n))
    val delta = column(g, r, vs)
    var s = 0.0
    for (v <- vs) s += g.n * delta(v)
    s / k
  }

  /** Distance-proportional sampler of [Chehreghani 2014]:
    * P[v] = d(r,v) / Σ_u d(r,u); estimator δ_{v•}(r)/P[v], unbiased.
    */
  def distanceEstimate(g: CSRGraph, r: Int, k: Int, seed: Long): Double = {
    checkInputs(g, r, k)
    require(!g.weighted, "the distance sampler weighs sources by hop distance, so it needs an unweighted graph")
    val kernel = new LocalBrandes.Kernel(g)
    kernel.shortestPaths(r)
    val w = Array.tabulate(g.n) { v => val d = kernel.distance(v); if (d.isInfinite) 0.0 else d } // unreached: 0
    val total = w.sum
    require(total > 0, s"distance sampler undefined: no vertex other than r=$r is reachable from it")
    val cum = w.scanLeft(0.0)(_ + _).tail // cum(i) = Σ_{v<=i} w(v)
    val rnd = new Lcg(seed)
    val vs = Array.fill(k) {
      val u = rnd.nextDouble() * total
      var lo = 0; var hi = g.n - 1
      while (lo < hi) { // first index with cum > u
        val mid = (lo + hi) / 2
        if (cum(mid) > u) hi = mid else lo = mid + 1
      }
      lo
    }
    val delta = column(g, r, vs)
    var s = 0.0
    for (v <- vs) s += delta(v) * total / w(v)
    s / k
  }

  /** Fail fast, before any draw, on a target that is not a vertex or a
    * sample budget that is not positive.
    */
  private def checkInputs(g: CSRGraph, r: Int, k: Int): Unit = {
    require(r >= 0 && r < g.n, s"target r=$r is not a vertex of a graph with n=${g.n} vertices")
    require(k > 0, s"sample count k=$k must be positive")
  }

  /** δ_{v•}(r) for the distinct draws `vs`, NaN elsewhere. */
  private def column(g: CSRGraph, r: Int, vs: Array[Int]): Array[Double] =
    LocalBrandes.dependencyTable(g, LocalBrandes.markSources(g.n, vs(0), vs), Array(r))

  /** Riondato–Kornaropoulos shortest-path sampler: draw (s,t) uniformly among
    * ordered pairs s ≠ t, draw one shortest s-t path uniformly by walking
    * predecessors backward with probability σ_{s,pred}/Σ σ, count whether r
    * is interior. E[|V|(|V|−1) · 1{r interior}] = BC(r). The k BFSes share
    * one [[LocalBrandes.Kernel]].
    */
  def rkEstimate(g: CSRGraph, r: Int, k: Int, seed: Long): Double = {
    checkInputs(g, r, k)
    require(g.n >= 2, s"the RK sampler draws pairs s != t, so it needs n >= 2 vertices, got n=${g.n}")
    require(!g.weighted, "the RK sampler walks predecessors by hop distance, so it needs an unweighted graph")
    val rnd = new Lcg(seed)
    val kernel = new LocalBrandes.Kernel(g)
    var hits = 0
    for (_ <- 1 to k) {
      val s = rnd.nextInt(g.n)
      var t = rnd.nextInt(g.n - 1)
      if (t >= s) t += 1
      kernel.shortestPaths(s)
      var cur = if (kernel.distance(t).isInfinite) s else t // no s-t path: a miss
      var onPath = false
      while (cur != s) {
        if (cur != t && cur == r) onPath = true
        // sample one predecessor ∝ its σ
        val predDist = kernel.distance(cur) - 1
        var total = 0.0
        g.foreachNeighbor(cur) { p => if (kernel.distance(p) == predDist) total += kernel.sigmaTo(p) }
        val u = rnd.nextDouble() * total
        var acc = 0.0
        var chosen = -1
        g.foreachNeighbor(cur) { p =>
          if (chosen < 0 && kernel.distance(p) == predDist) {
            acc += kernel.sigmaTo(p)
            if (acc > u) chosen = p
          }
        }
        cur = if (chosen >= 0) chosen else sys.error(s"no predecessor found for $cur")
      }
      if (onPath) hits += 1
    }
    g.n.toDouble * (g.n - 1).toDouble * hits / k
  }
}
