package repro.graph

import java.util.BitSet

/** Exact Brandes machinery on a local CSR graph.
  *
  * This is the ground-truth reference for every sampler: one `dependency`
  * call is the O(|E|) per-sample kernel of the paper (§4.1 — "it can be done
  * in O(|E(G)|) time for unweighted graphs"), and `bc` sums dependencies over
  * all sources (Eq. 3, ordered-pair convention: each unordered pair {s,t}
  * contributes twice, once per direction).
  */
object LocalBrandes {

  /** Single-source shortest-path DAG (SPD) for unweighted graphs.
    *
    * @return (dist, sigma, order): BFS distances (−1 if unreachable — cannot
    *   happen on the connected graphs the paper assumes, but kept defensive),
    *   shortest-path counts σ_{s·}, and vertices in BFS visitation order.
    */
  def spd(g: CSRGraph, s: Int): (Array[Int], Array[Double], Array[Int]) = {
    val dist = Array.fill(g.n)(-1)
    val sigma = new Array[Double](g.n)
    val order = new Array[Int](g.n)
    var head = 0; var tail = 0
    dist(s) = 0; sigma(s) = 1.0
    order(tail) = s; tail += 1
    while (head < tail) {
      val v = order(head); head += 1
      val dv = dist(v)
      g.foreachNeighbor(v) { w =>
        if (dist(w) < 0) { dist(w) = dv + 1; order(tail) = w; tail += 1 }
        if (dist(w) == dv + 1) sigma(w) += sigma(v)
      }
    }
    (dist, sigma, java.util.Arrays.copyOf(order, tail))
  }

  /** Dependency scores δ_{s•}(v) of source `s` on every vertex v (Eq. 2/4).
    * δ_{s•}(s) is 0 by definition.
    */
  def dependency(g: CSRGraph, s: Int): Array[Double] = {
    val (dist, sigma, order) = spd(g, s)
    val delta = new Array[Double](g.n)
    var i = order.length - 1
    while (i >= 0) {
      val w = order(i); i -= 1
      val coef = (1.0 + delta(w)) / sigma(w)
      val dw = dist(w)
      g.foreachNeighbor(w) { v =>
        if (dist(v) == dw - 1) delta(v) += sigma(v) * coef
      }
    }
    delta(s) = 0.0
    delta
  }

  /** The distinct vertices of `sources`, as a set over `0 until n`. */
  def markSources(n: Int, sources: IterableOnce[Int]): BitSet = {
    val marked = new BitSet(n)
    sources.iterator.foreach { v =>
      require(v >= 0 && v < n, s"source $v is not a vertex of a graph with n=$n vertices")
      marked.set(v)
    }
    marked
  }

  /** The distinct vertices among `first` and `rest`, which must lie in
    * `0 until n` (a sampler's initial state and its proposals).
    */
  def markSources(n: Int, first: Int, rest: Array[Int]): BitSet = {
    val marked = new BitSet(n)
    marked.set(first)
    var i = 0
    while (i < rest.length) { marked.set(rest(i)); i += 1 }
    marked
  }

  /** The samplers' one δ representation: a dense row-major n × |targets|
    * table with `table(v * targets.length + k)` = δ_{v•}(targets(k)) for
    * every source v in `sources`, and NaN ("not evaluated") for every other
    * v. With a single target it is the column δ_{·•}(r).
    */
  def dependencyTable(g: CSRGraph, sources: BitSet, targets: Array[Int]): Array[Double] = {
    val table = emptyTable(g.n, targets)
    var v = sources.nextSetBit(0)
    while (v >= 0) {
      dependencyRow(g, v, targets, table, v * targets.length)
      v = sources.nextSetBit(v + 1)
    }
    table
  }

  /** An n × |targets| table with no source evaluated yet (all NaN). */
  private[graph] def emptyTable(n: Int, targets: Array[Int]): Array[Double] = {
    targets.foreach(r =>
      require(r >= 0 && r < n, s"target $r is not a vertex of a graph with n=$n vertices"))
    require(n.toLong * targets.length <= Int.MaxValue,
      s"a $n x ${targets.length} dependency table does not fit in one array")
    val table = new Array[Double](n * targets.length)
    java.util.Arrays.fill(table, Double.NaN)
    table
  }

  /** One row of a dependency table: `out(offset + k)` = δ_{v•}(targets(k)),
    * all from a single Brandes pass from v.
    *
    * @throws ArithmeticException if an entry is not finite (σ overflows
    *   `Double` on graphs with very many shortest paths), which NaN would
    *   otherwise pass off as "not evaluated"
    */
  private[graph] def dependencyRow(g: CSRGraph, v: Int, targets: Array[Int], out: Array[Double],
                    offset: Int): Unit = {
    val d = dependency(g, v)
    var k = 0
    while (k < targets.length) {
      val x = d(targets(k))
      if (!java.lang.Double.isFinite(x))
        throw new ArithmeticException(s"the dependency of source $v on target ${targets(k)} is $x: " +
          "the shortest-path counts σ overflow Double")
      out(offset + k) = x
      k += 1
    }
  }

  /** Exact betweenness of every vertex, BC(v) = Σ_s δ_{s•}(v) (Eq. 3). */
  def bc(g: CSRGraph): Array[Double] =
    (0 until g.n).foldLeft(new Array[Double](g.n))((acc, s) => accumulate(acc, dependency(g, s)))

  /** acc(v) += row(v) in vertex order, returning `acc`: every exact-BC path's one accumulation step. */
  def accumulate(acc: Array[Double], row: Array[Double]): Array[Double] = {
    var v = 0
    while (v < acc.length) { acc(v) += row(v); v += 1 }
    acc
  }

  /** Every vertex of an n-vertex graph, as a source set for [[dependencyTable]]. */
  def allSources(n: Int): BitSet = {
    val all = new BitSet(n)
    all.set(0, n)
    all
  }

  /** All-sources dependency column for one target r: δ_{v•}(r) for every v.
    * Column sum is BC(r). The exact quantities of `Estimators` and
    * `Theory.mu` read columns of this form.
    */
  def dependencyColumn(g: CSRGraph, r: Int): Array[Double] =
    dependencyTable(g, allSources(g.n), Array(r))

  /** Eccentricity-based diameter (exact, all-sources BFS). */
  def diameter(g: CSRGraph): Int =
    (0 until g.n).map(s => spd(g, s)._1.max).max
}
