package repro.graph

import java.util.BitSet
import java.util.concurrent.atomic.AtomicInteger
import repro.core.Chunks

/** Exact Brandes machinery on a local CSR graph.
  *
  * This is the ground-truth reference for every sampler: one `dependency`
  * call is the O(|E|) per-sample kernel of the paper (§4.1 — "it can be done
  * in O(|E(G)|) time for unweighted graphs"; O(|E| + |V| log |V|) with
  * positive weights), and `bc` sums dependencies over
  * all sources (Eq. 3, ordered-pair convention: each unordered pair {s,t}
  * contributes twice, once per direction). Every pass runs in a [[Kernel]].
  */
object LocalBrandes {

  /** Single-source shortest-path DAG (SPD).
    *
    * @return (dist, sigma, order): BFS distances (−1 if unreachable; on a
    *   weighted graph 0 if reached, see [[Kernel.distance]]), shortest-path
    *   counts σ_{s·} (0 if unreachable), and the reached vertices in
    *   visitation order.
    */
  def spd(g: CSRGraph, s: Int): (Array[Int], Array[Double], Array[Int]) = new Kernel(g).spd(s)

  /** Dependency scores δ_{s•}(v) of source `s` on every vertex v (Eq. 2/4).
    * δ_{s•}(s) is 0 by definition.
    * A δ that is not finite (σ overflows) throws, naming the least such v ([[finite]]).
    */
  def dependency(g: CSRGraph, s: Int): Array[Double] =
    finite(new Kernel(g).dependency(s), Array(0), g.n)(v => s"the dependency of source $s on target $v")

  /** The distance a equals the distance b up to a relative 1e-9, so
    * equal-weight ties survive float accumulation at any weight scale. A +∞,
    * b's when unreached or a's when a path sum overflows, ties nothing, though
    * |a − b| ≤ 1e-9 · ∞ would hold.
    */
  private def tied(a: Double, b: Double): Boolean =
    a != Double.PositiveInfinity && b != Double.PositiveInfinity && math.abs(a - b) <= 1e-9 * math.max(a, b)

  /** The one Brandes pass, for both graph kinds, in a reusable workspace: one
    * instance per thread (a Spark task, a local table build, a baseline),
    * never shared.
    *
    * A pass from s is a forward step, which sets σ and the visitation order,
    * then a backward sweep in reverse visitation order. The forward step is
    * the graph's: BFS levels on an unweighted graph, Dijkstra on a weighted
    * one. The sweep reads Brandes' (2001) predecessor lists, kept only inside
    * the *marked* sub-DAG: the targets start marked (the source only when the
    * whole DAG is wanted), and the forward step marks every successor w of a
    * marked v and pushes the arc v→w onto w's list. So every descendant of a
    * target records all its out-arcs, and δ(v) of each marked v receives
    * σ(v)·(1+δ(w))/σ(w) from every successor w, in reverse visitation order of
    * w: the same terms in the same order as a scan of all neighbours, hence
    * the same bits, whatever order each list is in. The coefficient's 1 is
    * 1 + (σ(w) − σ(w)): exactly 1 for a finite σ(w), so every finite δ keeps
    * its bits (IEEE + commutes), and NaN for σ(w) = +∞, so a δ that depends
    * on an overflowed count is NaN, never a wrong (1+δ)/∞ = 0, for [[finite]]
    * to reject. The term does not lengthen δ's path. A simple undirected graph
    * has at most one DAG arc per edge, so m arc slots suffice. The marks live
    * in the list heads: a head ≥ 0 is a list, hence a mark, and an empty
    * list's head is −2 if its vertex is marked, −1 if not. The sweep stops
    * at any negative head, and pushing an arc onto w's list marks w.
    *
    * The BFS is direction-optimising (Beamer, Asanović & Patterson 2012): it
    * expands each level from whichever side scans fewer arcs. While the
    * frontier has no more arcs than the unvisited vertices, it expands top
    * down: each frontier vertex, in BFS order, scans its neighbours in CSR
    * (id) order, appends the undiscovered ones and adds its σ to every
    * successor. Otherwise it expands bottom up: each unvisited vertex scans
    * its neighbours, sums σ over those in the frontier, records the arcs from
    * marked ones (keeping its own mark if it is a target) and notes the
    * least BFS position among them, its first parent's. A stable counting
    * sort on that position then puts the new level in the order top-down
    * would have found it, (first parent's position, id), so the levels, the
    * BFS order and the sweep are unchanged. σ(w) then sums the same parents
    * in id order rather than BFS order: that is exact, hence the same bits,
    * while σ < 2^53, and the same bits for any σ when w has at most two
    * parents, since IEEE `+` commutes. The BFS stops as soon as every vertex
    * is visited.
    *
    * Neither level step runs a branch that depends on a scanned arc's data,
    * which would be taken at random and mispredict (Green, Dukhan & Vuduc
    * 2015, branch-avoiding graph algorithms). Top down, every arc v→w stores
    * w at the order's tail and moves the tail on by fresh = 1 if w was
    * undiscovered, sets dist(w) by arithmetic, and adds to σ(w) the bits of
    * σ(v) masked by child = 1 if w is at the next level. A marked v also
    * stores the arc in the next slot, links it into w's list only if child
    * (which marks w) and moves the arc count on by child. Bottom up, the
    * level first writes a key, (position << 1 | mark), for each frontier v.
    * Each arc u—v then reads v's key and σ(v) in place, two loads per arc:
    * it adds to σ(u) the bits of σ(v) ANDed with ~(key >> 31), +0.0 off the
    * frontier, takes the least position and pushes the arc masked by the
    * key's mark. The keys are set to −1 once per pass, by its first
    * bottom-up level as it lists the unvisited vertices, not after each
    * level: the level at distance d reads only keys of neighbours of
    * unvisited vertices, which lie at distance d or beyond and so hold the
    * key just written (at d) or the pass's −1 (beyond d). The keys earlier
    * levels left, nearer s, are never read. So a level costs its scanned
    * arcs and one key per frontier vertex. Bottom up walks that list in id
    * order, compacted by each bottom-up level, rather than all n vertices. A
    * masked term is +0.0, and x + 0.0 has the bits of x for every σ ≥ 0, so
    * σ, the arcs and their order, hence δ, keep the bits of the branching
    * loops. The unconditional stores need a spare slot past the end of
    * `order` (n + 1): the top-down level that discovers the last vertex may
    * scan more arcs. The arc arrays keep one too (m + 1) for the store past
    * the last arc, though on a simple graph a pass that fills all m slots,
    * as on a tree, scans no arc after the last one.
    *
    * Dijkstra settles the vertices in order of distance, comparing distances
    * with [[tied]]. A vertex w, when settled, takes from its already-settled
    * neighbours v with d(v) + wt(v, w) tied to d(w) the sum of their σ and
    * the arc v→w of each marked one, which marks w. Only
    * vertices settled earlier are predecessors, so the sweep never adds to a
    * vertex it has already passed.
    *
    * A pass allocates nothing: it clears the workspace with sequential
    * fills (the bottom-up keys only when a level runs bottom up), which
    * measured faster than resetting just the visited vertices
    * through the BFS order (random stores), since a pass on a connected
    * graph visits every vertex anyway. Dijkstra's heap is two primitive
    * arrays, with room for one entry per arc.
    */
  final class Kernel(g: CSRGraph) {
    private val dist = new Array[Int](g.n) // this array and the next three are cleared by every pass; Dijkstra: 0 once settled
    private val sigma = new Array[Double](g.n)
    private val delta = new Array[Double](g.n)
    // head of w's predecessor-arc list: −1 if empty and w unmarked, −2 if
    // empty and w marked (a target, or the source of a whole pass)
    private val lastArc = new Array[Int](g.n)
    private val order = new Array[Int](g.n + 1) // visitation order, valid up to `visited`; one spare slot
    private val arcFrom = new Array[Int](g.m + 1) // arc a = arcFrom(a) → the w whose list holds a; one spare slot
    private val nextArc = new Array[Int](g.m + 1) // the next arc in the same list, negative at its end
    // bottom up: (position << 1 | mark of v) for each v of the level being
    // expanded, −1 for each vertex beyond it; vertices nearer s keep stale keys
    private val frontierKey = new Array[Int](g.n)
    private val unvisited = new Array[Int](g.n) // bottom up: every unvisited vertex (and maybe some visited), in id order
    private val found = new Array[Int](g.n) // bottom up: the vertices of the new level, in id order
    private val firstParent = new Array[Int](g.n) // bottom up: found(i)'s least parent position in the frontier
    private val bucket = new Array[Int](g.n + 1) // bottom up: counting-sort bucket starts, one per frontier position
    private val weightedDist = new Array[Double](if (g.weighted) g.n else 0) // Dijkstra: tentative distances
    // Dijkstra: a binary min-heap of (distance, vertex) entries, stale ones
    // skipped; a pass pushes at most once per arc
    private val heapDist = new Array[Double](if (g.weighted) g.neighbors.length else 0)
    private val heapVertex = new Array[Int](if (g.weighted) g.neighbors.length else 0)
    private var heapSize = 0
    private var visited = 0
    private var arcs = 0
    private var listed = -1 // the length of `unvisited`, −1 until a pass's first bottom-up level fills it

    /** The forward step alone from s; [[distance]] and [[sigmaTo]] then read its SPD. */
    def shortestPaths(s: Int): Unit = pass(s, Array.emptyIntArray, whole = false)

    /** d(s, v) from the last pass's source s — the path weight on a weighted
      * graph, the hop count otherwise — and +∞ if v was not reached.
      */
    def distance(v: Int): Double =
      if (g.weighted) weightedDist(v) else if (dist(v) < 0) Double.PositiveInfinity else dist(v).toDouble

    /** σ_{sv} from the last pass's source s, 0 if v was not reached. */
    def sigmaTo(v: Int): Double = sigma(v)

    /** [[LocalBrandes.spd]] in this workspace (the arrays are copies). */
    def spd(s: Int): (Array[Int], Array[Double], Array[Int]) = {
      shortestPaths(s)
      (dist.clone(), sigma.clone(), java.util.Arrays.copyOf(order, visited))
    }

    /** [[LocalBrandes.dependency]] in this workspace (a fresh array). */
    def dependency(s: Int): Array[Double] = {
      pass(s, Array.emptyIntArray, whole = true)
      delta.clone()
    }

    /** acc(v) += δ_{s•}(v) for every v reached from s other than s: one
      * source's term of BC (Eq. 3). The other vertices' δ is 0.
      */
    def addDependencies(s: Int, acc: Array[Double]): Unit = {
      pass(s, Array.emptyIntArray, whole = true)
      var i = 1
      while (i < visited) { val v = order(i); acc(v) += delta(v); i += 1 }
    }

    /** One row of a dependency table, `out(offset + k)` = δ_{s•}(targets(k)),
      * for targets already checked to be vertices (as [[emptyTable]] does).
      * An entry that depends on an overflowed σ is NaN.
      */
    private[graph] def row(s: Int, targets: Array[Int], out: Array[Double], offset: Int): Unit = {
      pass(s, targets, whole = false)
      var k = 0
      while (k < targets.length) { out(offset + k) = delta(targets(k)); k += 1 }
    }

    /** Clear the workspace, run the graph's forward step from s recording the
      * arcs of the sub-DAG below `targets` (below s if `whole`), then sweep
      * those arcs.
      */
    private def pass(s: Int, targets: Array[Int], whole: Boolean): Unit = {
      val sigma = this.sigma; val delta = this.delta; val order = this.order; val lastArc = this.lastArc
      val arcFrom = this.arcFrom; val nextArc = this.nextArc
      java.util.Arrays.fill(dist, -1); java.util.Arrays.fill(sigma, 0.0); java.util.Arrays.fill(delta, 0.0)
      java.util.Arrays.fill(lastArc, -1)
      dist(s) = 0; sigma(s) = 1.0
      order(0) = s
      visited = 1; arcs = 0; listed = -1
      var i = 0
      while (i < targets.length) { lastArc(targets(i)) = -2; i += 1 }
      lastArc(s) = if (whole) -2 else -1

      if (g.weighted) dijkstra(s) else bfs(s)

      i = visited - 1
      while (i > 0) {
        val w = order(i); i -= 1
        var a = lastArc(w)
        if (a >= 0) {
          val coef = (delta(w) + (1.0 + (sigma(w) - sigma(w)))) / sigma(w) // NaN iff σ(w) overflowed
          while (a >= 0) { val v = arcFrom(a); delta(v) += sigma(v) * coef; a = nextArc(a) }
        }
      }
      delta(s) = 0.0
    }

    /** The unweighted forward step: BFS from s level by level, each level
      * expanded top down or bottom up.
      */
    private def bfs(s: Int): Unit = {
      val order = this.order; val offsets = g.offsets
      // order(lo until hi) is the frontier, the level at distance d
      var lo = 0; var hi = 1; var d = 0
      var frontierArcs = offsets(s + 1) - offsets(s)
      var unvisitedArcs = offsets(g.n) - frontierArcs
      while (lo < hi && hi < g.n) {
        if (frontierArcs <= unvisitedArcs) topDown(lo, hi, d) else bottomUp(lo, hi, d)
        frontierArcs = 0
        var i = hi
        while (i < visited) { val w = order(i); frontierArcs += offsets(w + 1) - offsets(w); i += 1 }
        unvisitedArcs -= frontierArcs
        lo = hi; hi = visited; d += 1
      }
    }

    /** The weighted forward step: Dijkstra from s, which [[pass]] has
      * settled. Each settled vertex relaxes its arcs, then the next one is
      * settled, until every vertex is or the heap runs out.
      */
    private def dijkstra(s: Int): Unit = {
      val offsets = g.offsets; val nbr = g.neighbors; val wt = g.weights; val wd = weightedDist
      java.util.Arrays.fill(wd, Double.PositiveInfinity)
      wd(s) = 0.0
      heapSize = 0
      var v = s
      while (v >= 0) {
        var j = offsets(v)
        while (j < offsets(v + 1)) {
          val w = nbr(j); val nd = wd(v) + wt(j)
          if (nd < wd(w) && !tied(nd, wd(w))) { wd(w) = nd; push(nd, w) }
          j += 1
        }
        v = -1
        while (v < 0 && heapSize > 0 && visited < g.n) {
          val d = heapDist(0); val u = heapVertex(0)
          popTop()
          if (dist(u) < 0 && (d <= wd(u) || tied(d, wd(u)))) v = u
        }
        if (v >= 0) { // settle v: pull σ, a mark and arcs from its tied, settled neighbours
          j = offsets(v)
          while (j < offsets(v + 1)) {
            val u = nbr(j)
            if (dist(u) == 0 && tied(wd(u) + wt(j), wd(v))) {
              sigma(v) += sigma(u)
              if (lastArc(u) != -1) { arcFrom(arcs) = u; nextArc(arcs) = lastArc(v); lastArc(v) = arcs; arcs += 1 }
            }
            j += 1
          }
          dist(v) = 0; order(visited) = v; visited += 1
        }
      }
    }

    /** Adds the entry (d, v) to the heap. This and [[popTop]] are
      * `java.util.PriorityQueue`'s sift-up and sift-down under
      * `Double.compare` on the distance, so entries with tied distances
      * leave in the order that queue gives them.
      */
    private def push(d: Double, v: Int): Unit = {
      val hd = heapDist; val hv = heapVertex
      var k = heapSize
      heapSize += 1
      var moving = true
      while (k > 0 && moving) {
        val parent = (k - 1) >>> 1
        if (java.lang.Double.compare(d, hd(parent)) >= 0) moving = false
        else { hd(k) = hd(parent); hv(k) = hv(parent); k = parent }
      }
      hd(k) = d; hv(k) = v
    }

    /** Removes the heap's least entry, (heapDist(0), heapVertex(0)). */
    private def popTop(): Unit = {
      val hd = heapDist; val hv = heapVertex
      heapSize -= 1
      val n = heapSize
      if (n > 0) {
        val xd = hd(n); val xv = hv(n)
        val half = n >>> 1
        var k = 0
        var moving = true
        while (k < half && moving) {
          var child = (k << 1) + 1
          val right = child + 1
          if (right < n && java.lang.Double.compare(hd(child), hd(right)) > 0) child = right
          if (java.lang.Double.compare(xd, hd(child)) <= 0) moving = false
          else { hd(k) = hd(child); hv(k) = hv(child); k = child }
        }
        hd(k) = xd; hv(k) = xv
      }
    }

    /** Expand the level at distance d, `order(lo until hi)`, from its
      * vertices: append the next level to the order as it is discovered.
      * No branch depends on a scanned arc's data (see [[Kernel]]).
      */
    private def topDown(lo: Int, hi: Int, d: Int): Unit = {
      val dist = this.dist; val sigma = this.sigma; val order = this.order; val lastArc = this.lastArc
      val arcFrom = this.arcFrom; val nextArc = this.nextArc
      val offsets = g.offsets; val nbr = g.neighbors
      val step = d + 2 // takes an undiscovered w's −1 to d + 1
      var tail = visited; var a = arcs
      var i = lo
      while (i < hi) {
        val v = order(i); i += 1
        val sv = java.lang.Double.doubleToRawLongBits(sigma(v))
        var j = offsets(v)
        val end = offsets(v + 1)
        // two copies of the loop, so an unmarked v stores no arcs: one loop
        // with the push masked by v's mark as well measured 1.7× slower
        if (lastArc(v) == -1) {
          while (j < end) {
            val w = nbr(j)
            val fresh = dist(w) >>> 31
            order(tail) = w; tail += fresh
            val dw = dist(w) + fresh * step
            dist(w) = dw
            val child = (d - dw) >>> 31 // dw ≤ d + 1, so 1 iff w is at d + 1
            sigma(w) += java.lang.Double.longBitsToDouble(sv & -child.toLong)
            j += 1
          }
        } else {
          while (j < end) {
            val w = nbr(j)
            val fresh = dist(w) >>> 31
            order(tail) = w; tail += fresh
            val dw = dist(w) + fresh * step
            dist(w) = dw
            val child = (d - dw) >>> 31
            sigma(w) += java.lang.Double.longBitsToDouble(sv & -child.toLong)
            val head = lastArc(w)
            arcFrom(a) = v; nextArc(a) = head; lastArc(w) = head + ((a - head) & -child); a += child
            j += 1
          }
        }
      }
      visited = tail; arcs = a
    }

    /** Expand the level at distance d, `order(lo until hi)`, from the
      * unvisited vertices, then sort the next level into top-down order.
      * Through the frontier keys, no branch depends on a scanned arc's data
      * (see [[Kernel]]).
      */
    private def bottomUp(lo: Int, hi: Int, d: Int): Unit = {
      val dist = this.dist; val sigma = this.sigma; val order = this.order; val lastArc = this.lastArc
      val arcFrom = this.arcFrom; val nextArc = this.nextArc
      val fkey = frontierKey; val unvisited = this.unvisited
      val found = this.found; val firstParent = this.firstParent; val bucket = this.bucket
      val offsets = g.offsets; val nbr = g.neighbors
      if (listed < 0) {
        java.util.Arrays.fill(fkey, -1)
        listed = 0
        var u = 0
        while (u < g.n) { unvisited(listed) = u; listed += dist(u) >>> 31; u += 1 }
      }
      var i = lo
      while (i < hi) {
        val v = order(i); val h = lastArc(v)
        fkey(v) = (i - lo) << 1 | ((h + 1 | -(h + 1)) >>> 31) // 1 iff h ≠ −1, v is marked
        i += 1
      }
      var count = 0; var kept = 0; var a = arcs
      var p = 0
      while (p < listed) {
        val u = unvisited(p); p += 1
        if (dist(u) < 0) { // top down may have visited u since it was listed
          var su = 0.0; var first = Int.MaxValue; var head = lastArc(u)
          var j = offsets(u)
          val end = offsets(u + 1)
          while (j < end) {
            val v = nbr(j)
            val key = fkey(v)
            val parent = ~(key >> 31) // −1 if v is in the frontier, else 0
            su += java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(sigma(v)) & parent.toLong)
            first = math.min(first, key >>> 1)
            val push = key & parent & 1 // v is a marked parent
            arcFrom(a) = v; nextArc(a) = head; head += (a - head) & -push; a += push
            j += 1
          }
          if (first < Int.MaxValue) {
            dist(u) = d + 1; sigma(u) = su; lastArc(u) = head
            firstParent(count) = first; found(count) = u; count += 1
          } else { unvisited(kept) = u; kept += 1 }
        }
      }
      listed = kept

      // stable counting sort of `found` (in id order) on the first parent's position
      val width = hi - lo
      java.util.Arrays.fill(bucket, 0, width + 1, 0)
      i = 0
      while (i < count) { bucket(firstParent(i) + 1) += 1; i += 1 }
      i = 1
      while (i <= width) { bucket(i) += bucket(i - 1); i += 1 }
      i = 0
      while (i < count) {
        val k = firstParent(i)
        order(visited + bucket(k)) = found(i); bucket(k) += 1
        i += 1
      }
      visited += count; arcs = a
    }
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

  /** The distinct sources v = s / width of a sampler's initial state `first`
    * and proposals `rest`, flat states over n rows of `width` entries (`first`
    * inside them; a state of `rest` outside them is skipped). The scan stops
    * once all n are marked: a chain of T ≫ n log n uniform proposals has
    * proposed every vertex after about n ln n of them.
    */
  def markSources(n: Int, first: Int, rest: Array[Int], width: Int = 1): BitSet = {
    val marked = new BitSet(n)
    marked.set(first / width)
    var unmarked = n - 1
    var i = 0
    while (unmarked > 0 && i < rest.length) {
      val s = rest(i)
      if (s >= 0 && s < n.toLong * width && !marked.get(s / width)) { marked.set(s / width); unmarked -= 1 }
      i += 1
    }
    marked
  }

  /** The samplers' one δ representation: a dense row-major n × |targets|
    * table with `table(v * targets.length + k)` = δ_{v•}(targets(k)) for
    * every source v in `sources`, and NaN ("not evaluated") for every other
    * v. With a single target it is the column δ_{·•}(r).
    *
    * A Brandes pass runs only for the sources that [[supported]] keeps; every
    * other row of `sources` is all +0.0, the bits the pass would leave there.
    * The passes run on the driver's cores, through [[rows]] at
    * [[repro.core.Chunks.default]] workers on the JVM's common ForkJoin pool,
    * the calling thread being one. A row depends only on its source, so the
    * table has the same bits at any worker count.
    *
    * @throws ArithmeticException if an entry is not finite (σ overflows
    *   `Double`), naming the least such source and its first such target
    *   ([[finite]]), at any worker count
    */
  def dependencyTable(g: CSRGraph, sources: BitSet, targets: Array[Int]): Array[Double] =
    evaluatedTable(g, sources, targets, Chunks.default)._1

  /** [[dependencyTable]] on `workers` workers, and the number of Brandes
    * passes it ran.
    */
  private[repro] def evaluatedTable(g: CSRGraph, sources: BitSet, targets: Array[Int],
                                    workers: Int): (Array[Double], Int) =
    screenedTable(g, sources, targets)((table, ids) => rows(g, ids, targets, table, ids(_) * targets.length, workers))

  /** Both table builders' row loop: the row of each `ids(i)` over `targets`
    * into `out` at `offset(i)`, on `workers` workers. Each worker reuses one
    * [[Kernel]] and takes the next i from one shared counter, so a slow row
    * holds up only its own worker: there is no static split to leave a tail.
    * One worker is the sequential loop over `ids` in order. Every row is
    * filled, overflowed or not: the check is the caller's ([[screenedTable]]).
    */
  private[graph] def rows(g: CSRGraph, ids: Array[Int], targets: Array[Int], out: Array[Double],
                          offset: Int => Int, workers: Int): Unit = {
    val next = new AtomicInteger
    Chunks.run(Chunks.count(ids.length, workers)) { _ =>
      val kernel = new Kernel(g)
      var i = next.getAndIncrement()
      while (i < ids.length) { kernel.row(ids(i), targets, out, offset(i)); i = next.getAndIncrement() }
    }
  }

  /** Both table builders' frame, on the driver, returning the table and its
    * pass count. The n × |targets| table starts all NaN but the rows of the
    * `sources` that [[supported]] screens out, which hold +0.0; `evaluate`
    * fills the kept sources' rows (`ids`, in id order), and [[finite]] checks them.
    */
  private[graph] def screenedTable(g: CSRGraph, sources: BitSet, targets: Array[Int])(
      evaluate: (Array[Double], Array[Int]) => Unit): (Array[Double], Int) = {
    val table = emptyTable(g.n, targets)
    val kept = supported(g, sources, targets)
    val k = targets.length
    var v = sources.nextSetBit(0)
    while (v >= 0) {
      if (!kept.get(v)) java.util.Arrays.fill(table, v * k, (v + 1) * k, 0.0)
      v = sources.nextSetBit(v + 1)
    }
    val ids = kept.stream().toArray
    evaluate(table, ids)
    (finite(table, ids, k)(i => s"the dependency of source ${i / k} on target ${targets(i % k)}"), ids.length)
  }

  /** The one σ-overflow check, on the driver: `values` if each entry of its
    * `width`-wide rows `rows` is finite (the sweep makes NaN of a δ that
    * depends on an overflowed σ), else an ArithmeticException naming
    * `what(i)` of the first entry i that is not, rows in the given order.
    */
  private[graph] def finite(values: Array[Double], rows: Array[Int], width: Int)(what: Int => String): Array[Double] = {
    for (r <- rows; i <- r * width until (r + 1) * width if !java.lang.Double.isFinite(values(i)))
      throw new ArithmeticException(s"${what(i)} is ${values(i)}: the shortest-path counts σ overflow Double")
    values
  }

  /** The `sources` whose row of a table over `targets`, vertices of `g`, can
    * hold a non-zero δ; every other source's row is +0.0 at every target.
    *
    * On an unweighted graph, δ_{s•}(r) > 0 iff s ≠ r and some neighbour w of
    * r has d(s, w) = d(s, r) + 1: r then has a successor w in s's
    * shortest-path DAG, and δ_{s•}(r) ≥ σ_{sr}/σ_{sw} > 0 (Brandes 2001).
    * Otherwise no arc leaves r in that DAG, so the pass never adds to δ(r)
    * and leaves the +0.0 it cleared there: whatever σ does, even when it
    * overflows, since the DAG's arcs depend only on the distances. Since
    * d(s, w) = d(w, s) and w is adjacent to r, d(w, s) ∈ {ℓ(s) − 1, ℓ(s),
    * ℓ(s) + 1} with ℓ = d(r, ·), so a BFS from r decides this for every
    * source at once. It takes r's neighbours w_i in blocks of up to 64, one
    * bit each, and keeps two masks per vertex v of r's component:
    *   - B(v) = {i : d(w_i, v) = ℓ(v) − 1};
    *   - A(v) = {i : d(w_i, v) ≤ ℓ(v)}.
    * Both start as {i} at w_i and ∅ elsewhere; then B(v) gains B(u) of every
    * neighbour u at ℓ(v) − 1, and A(v) gains B(v), A(u) of every neighbour u
    * at ℓ(v) − 1 and B(u) of every neighbour u at ℓ(v). For v ≠ w_i, the
    * vertex u before v on a shortest path from w_i is a neighbour of v with
    * d(w_i, u) = d(w_i, v) − 1, and d(w_i, u) ≥ ℓ(u) − 1 with
    * |ℓ(u) − ℓ(v)| ≤ 1. If d(w_i, v) = ℓ(v) − 1, that forces
    * ℓ(u) = ℓ(v) − 1 and i ∈ B(u); if d(w_i, v) = ℓ(v), either
    * ℓ(u) = ℓ(v) − 1 and i ∈ A(u), or ℓ(u) = ℓ(v) and i ∈ B(u). Conversely
    * each term bounds d(w_i, v) by ℓ(v) − 1 or ℓ(v) through u. A source s ≠ r
    * in r's component is kept iff A(s) misses some i of a block.
    *
    * Each block is one BFS from r, which fills both masks as it goes. When
    * it expands the level at d, B is complete there (the level at d − 1 gave
    * it) and A is complete at d − 1, so each v at d scans its arcs once:
    * it discovers the unreached neighbours, ORs A(u) or B(u) of each neighbour
    * u at d − 1 or d into A(v), and ORs B(v) into B(u) of each u at d + 1.
    * As in the kernel's top-down level, no branch depends on a scanned arc's
    * data: the discovery and the masks are arithmetic on ℓ(u) (see
    * [[Kernel]]). The targets go in increasing degree. The screen stops once
    * every source is kept, and a target's blocks stop once every source but
    * the target itself is kept, as r is never in its own support. Memory is
    * two `Long` and two `Int` arrays of n, whatever the degrees.
    *
    * A weighted graph keeps every source: its distances are float sums, and
    * d(s, w) summed from s and d(w, s) summed from w can round apart, so a
    * screen from r cannot reproduce the pass's ties exactly.
    */
  private[graph] def supported(g: CSRGraph, sources: BitSet, targets: Array[Int]): BitSet = {
    val kept = new BitSet(g.n)
    if (g.weighted) { kept.or(sources); return kept }
    val n = g.n; val offsets = g.offsets; val nbr = g.neighbors
    val level = new Array[Int](n) // ℓ(v) = d(r, v), −1 until reached
    val order = new Array[Int](n + 1) // BFS order from r; one spare slot for the unconditional store
    val below = new Array[Long](n) // B(v)
    val within = new Array[Long](n) // A(v)
    var open = sources.cardinality // sources not kept yet
    val byDegree = targets.sortBy(g.degree)
    var t = 0
    while (open > 0 && t < byDegree.length) {
      val r = byDegree(t); t += 1
      val self = if (sources.get(r) && !kept.get(r)) 1 else 0 // r is a source it cannot keep
      var block = offsets(r)
      while (open > self && block < offsets(r + 1)) {
        val size = math.min(64, offsets(r + 1) - block)
        java.util.Arrays.fill(level, -1); java.util.Arrays.fill(below, 0L); java.util.Arrays.fill(within, 0L)
        var i = 0
        while (i < size) { val w = nbr(block + i); below(w) = 1L << i; within(w) = 1L << i; i += 1 }
        block += size
        level(r) = 0; order(0) = r
        // order(lo until hi) is the level at distance d; B is complete on it
        var lo = 0; var hi = 1; var tail = 1; var d = 0
        while (lo < hi) {
          val step = d + 2 // takes an unreached u's −1 to d + 1
          i = lo
          while (i < hi) {
            val v = order(i); i += 1
            val b = below(v)
            var a = within(v) | b
            var j = offsets(v)
            val end = offsets(v + 1)
            while (j < end) {
              val u = nbr(j); j += 1
              val fresh = level(u) >>> 31
              order(tail) = u; tail += fresh
              val x = level(u) + fresh * step - d // ℓ(u) − d: −1, 0 or 1
              level(u) = x + d
              val previous = (x >> 31).toLong; val next = (-x >> 31).toLong
              a |= within(u) & previous | below(u) & ~(previous | next)
              below(u) |= b & next
            }
            within(v) = a
          }
          lo = hi; hi = tail; d += 1
        }
        val whole = -1L >>> (64 - size)
        var s = sources.nextSetBit(0)
        while (s >= 0) {
          if (level(s) > 0 && within(s) != whole && !kept.get(s)) { kept.set(s); open -= 1 }
          s = sources.nextSetBit(s + 1)
        }
      }
    }
    kept
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

  /** Exact betweenness of every vertex, BC(v) = Σ_s δ_{s•}(v) (Eq. 3), checked by [[finiteBC]]. */
  def bc(g: CSRGraph): Array[Double] = finiteBC(bc(g, Iterator.range(0, g.n)))

  /** Both backends' one check of exact BC, on the driver: the least vertex whose BC is not finite throws. */
  private[graph] def finiteBC(bc: Array[Double]): Array[Double] =
    finite(bc, Array(0), bc.length)(v => s"the betweenness of vertex $v")

  /** [[bc]]'s fold over `sources` in their order, also each task of [[SparkBrandes.bc]]. */
  private[graph] def bc(g: CSRGraph, sources: Iterator[Int]): Array[Double] = {
    val acc = new Array[Double](g.n)
    val kernel = new Kernel(g)
    sources.foreach(kernel.addDependencies(_, acc))
    acc
  }

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
}
