package repro.graph

import repro.graphgen.EdgeList

/** Compact immutable adjacency in compressed-sparse-row form.
  *
  * `neighbors(offsets(v) until offsets(v+1))` are v's neighbours, sorted.
  * A weighted graph also holds one positive weight per arc, `weights(i)` for
  * the arc to `neighbors(i)`; an unweighted graph's `weights` is empty. This
  * is the structure broadcast to Spark executors by the per-source kernels:
  * it is a few primitive arrays, so serialization is one contiguous copy and
  * per-pass access is allocation-free.
  */
final class CSRGraph private (val n: Int, val offsets: Array[Int], val neighbors: Array[Int],
                              val weights: Array[Double]) extends Serializable {

  /** Number of undirected edges. */
  def m: Int = neighbors.length / 2

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** The graph has arc weights, so its shortest paths are Dijkstra's rather than BFS levels. */
  def weighted: Boolean = weights.length > 0

  def maxDegree: Int = (0 until n).map(degree).max

  /** Iterate v's neighbours without allocating. */
  @inline def foreachNeighbor(v: Int)(f: Int => Unit): Unit = {
    var i = offsets(v)
    val end = offsets(v + 1)
    while (i < end) { f(neighbors(i)); i += 1 }
  }

  /** Every vertex is reachable from vertex 0 (one forward step); the paper
    * assumes connected graphs.
    */
  def isConnected: Boolean = {
    val kernel = new LocalBrandes.Kernel(this); kernel.shortestPaths(0)
    (0 until n).forall(kernel.sigmaTo(_) > 0)
  }

  /** Connected components of `G \ removed` — the set `C` of Theorem 2. */
  def componentsWithout(removed: Int): Vector[Vector[Int]] = {
    val comp = Array.fill(n)(-1)
    comp(removed) = -2
    var c = 0
    val queue = new Array[Int](n)
    val out = Vector.newBuilder[Vector[Int]]
    for (s <- 0 until n if comp(s) == -1) {
      var head = 0; var tail = 0
      comp(s) = c; queue(tail) = s; tail += 1
      val members = Vector.newBuilder[Int]
      while (head < tail) {
        val v = queue(head); head += 1
        members += v
        foreachNeighbor(v) { w =>
          if (comp(w) == -1) { comp(w) = c; queue(tail) = w; tail += 1 }
        }
      }
      out += members.result()
      c += 1
    }
    out.result()
  }
}

object CSRGraph {
  /** Build from a canonical [[EdgeList]]; each undirected edge is stored in
    * both directions.
    */
  def fromEdges(el: EdgeList): CSRGraph = {
    val n = el.n
    val deg = new Array[Int](n)
    el.edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val fill = offsets.clone()
    val nbr = new Array[Int](offsets(n))
    el.edges.foreach { case (u, v) =>
      nbr(fill(u)) = v; fill(u) += 1
      nbr(fill(v)) = u; fill(v) += 1
    }
    // sort each adjacency run for determinism
    var v = 0
    while (v < n) {
      java.util.Arrays.sort(nbr, offsets(v), offsets(v + 1))
      v += 1
    }
    new CSRGraph(n, offsets, nbr, Array.emptyDoubleArray)
  }

  /** Build a weighted graph — the "weighted graphs with positive weights"
    * case of the paper's complexity statements (§2.1/§4.1) — from an
    * [[EdgeList]] and a per-edge weight function, applied to the canonical
    * (u < v) edge and used for both directions.
    * @throws IllegalArgumentException if a weight is not positive and finite, naming its edge
    */
  def fromEdges(el: EdgeList, weight: ((Int, Int)) => Double): CSRGraph = {
    val g = fromEdges(el)
    val weights = new Array[Double](g.neighbors.length)
    for (v <- 0 until g.n; i <- g.offsets(v) until g.offsets(v + 1)) {
      val u = g.neighbors(i)
      val e = if (v < u) (v, u) else (u, v)
      weights(i) = weight(e)
      require(weights(i) > 0 && weights(i) < Double.PositiveInfinity,
        s"weight of $e is ${weights(i)}; a weight must be positive and finite")
    }
    new CSRGraph(g.n, g.offsets, g.neighbors, weights)
  }
}
