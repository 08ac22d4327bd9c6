package repro.graph

/** The reference for [[LocalBrandes.Kernel]]: the same Brandes pass with a
  * top-down-only, CSR-order BFS (one queue, every frontier vertex scans all
  * its neighbours, no early stop) and the same sweep over predecessor lists
  * pruned to the targets' sub-DAG. The direction-optimising kernel must
  * reproduce its dist, σ, BFS order, δ and BC bit for bit.
  */
final class TopDownKernel(g: CSRGraph) {
  private val dist = new Array[Int](g.n)
  private val sigma = new Array[Double](g.n)
  private val delta = new Array[Double](g.n)
  private val marked = new Array[Boolean](g.n)
  private val lastArc = new Array[Int](g.n)
  private val order = new Array[Int](g.n)
  private val arcFrom = new Array[Int](g.m)
  private val nextArc = new Array[Int](g.m)
  private var visited = 0

  /** (dist, σ, BFS order) from s, as [[LocalBrandes.spd]] returns them. */
  def spd(s: Int): (Array[Int], Array[Double], Array[Int]) = {
    pass(s, Array.emptyIntArray, whole = false)
    (dist.clone(), sigma.clone(), java.util.Arrays.copyOf(order, visited))
  }

  /** δ_{s•}(v) for every v, as [[LocalBrandes.dependency]] returns it. */
  def dependency(s: Int): Array[Double] = {
    pass(s, Array.emptyIntArray, whole = true)
    delta.clone()
  }

  /** δ_{s•}(targets(k)) for every k, as a table row holds them. */
  def row(s: Int, targets: Array[Int]): Array[Double] = {
    pass(s, targets, whole = false)
    targets.map(delta)
  }

  /** BC(v) = Σ_s δ_{s•}(v), summed in source order as [[LocalBrandes.bc]] sums it. */
  def bc(): Array[Double] = {
    val acc = new Array[Double](g.n)
    for (s <- 0 until g.n) {
      pass(s, Array.emptyIntArray, whole = true)
      for (i <- 1 until visited) acc(order(i)) += delta(order(i))
    }
    acc
  }

  private def pass(s: Int, targets: Array[Int], whole: Boolean): Unit = {
    val offsets = g.offsets; val nbr = g.neighbors
    java.util.Arrays.fill(dist, -1); java.util.Arrays.fill(sigma, 0.0); java.util.Arrays.fill(delta, 0.0)
    java.util.Arrays.fill(marked, false); java.util.Arrays.fill(lastArc, -1)
    dist(s) = 0; sigma(s) = 1.0
    order(0) = s
    visited = 1
    targets.foreach(marked(_) = true)
    marked(s) = whole

    var head = 0; var arcs = 0
    while (head < visited) {
      val v = order(head); head += 1
      val dw = dist(v) + 1
      val sv = sigma(v)
      val mv = marked(v)
      var j = offsets(v)
      while (j < offsets(v + 1)) {
        val w = nbr(j)
        if (dist(w) < 0) { dist(w) = dw; order(visited) = w; visited += 1 }
        if (dist(w) == dw) {
          sigma(w) += sv
          if (mv) {
            marked(w) = true
            arcFrom(arcs) = v; nextArc(arcs) = lastArc(w); lastArc(w) = arcs; arcs += 1
          }
        }
        j += 1
      }
    }

    var i = visited - 1
    while (i > 0) {
      val w = order(i); i -= 1
      var a = lastArc(w)
      if (a >= 0) {
        val coef = (1.0 + delta(w)) / sigma(w)
        while (a >= 0) { val v = arcFrom(a); delta(v) += sigma(v) * coef; a = nextArc(a) }
      }
    }
    delta(s) = 0.0
  }
}
