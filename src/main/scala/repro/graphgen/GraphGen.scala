package repro.graphgen

import scala.collection.mutable
import scala.util.Random

/** An undirected, simple, loop-free graph as a canonical edge list.
  *
  * Invariants: vertex ids are `0 until n`; every edge `(u, v)` has `u < v`;
  * edges are sorted and distinct. These invariants make generators
  * deterministic in their seed and make the edge list directly comparable
  * across Spark, the local CSR structures, and the DuckDB oracle.
  */
final case class EdgeList(n: Int, edges: Vector[(Int, Int)]) {
  require(n > 0, s"graph must have at least one vertex, got n=$n")
  edges.foreach { case (u, v) =>
    require(u >= 0 && v < n && u < v, s"edge ($u,$v) violates 0 <= u < v < n=$n")
  }
  require(edges == edges.distinct.sorted, "edges must be sorted and distinct")

  def numEdges: Int = edges.size
}

/** Deterministic synthetic graph generators.
  *
  * The EDBT 2019 evaluation uses real networks (SNAP); this container has no
  * network egress, so we substitute generators that cover the same structural
  * regimes (see DESIGN.md §2): scale-free/power-law (Barabási–Albert),
  * homogeneous random (connected Erdős–Rényi), small-world (Watts–Strogatz),
  * plus closed-form graphs used for oracle-grade tests and Theorem-2
  * separator graphs. Every generator is a pure function of its arguments.
  */
object GraphGen {

  private def canon(n: Int, raw: IterableOnce[(Int, Int)]): EdgeList = {
    val set = mutable.SortedSet.empty[(Int, Int)]
    raw.iterator.foreach { case (a, b) =>
      if (a != b) set += (if (a < b) (a, b) else (b, a))
    }
    EdgeList(n, set.toVector)
  }

  /** Path 0-1-...-(n-1). BC(v_i) = 2·i·(n-1-i) under the ordered-pair convention. */
  def path(n: Int): EdgeList =
    canon(n, (0 until n - 1).map(i => (i, i + 1)))

  /** Cycle on n >= 3 vertices; all vertices equivalent by symmetry. */
  def cycle(n: Int): EdgeList = {
    require(n >= 3, s"cycle needs n >= 3, got $n")
    canon(n, (0 until n).map(i => (i, (i + 1) % n)))
  }

  /** Star with center 0: BC(center) = (n-1)(n-2) ordered, leaves 0. */
  def star(n: Int): EdgeList = {
    require(n >= 2, s"star needs n >= 2, got $n")
    canon(n, (1 until n).map(i => (0, i)))
  }

  /** Complete graph: every BC is 0 (all pairs adjacent). */
  def complete(n: Int): EdgeList =
    canon(n, for { u <- 0 until n; v <- u + 1 until n } yield (u, v))

  /** rows x cols grid; vertex (r,c) is id r*cols + c. */
  def grid(rows: Int, cols: Int): EdgeList = {
    require(rows >= 1 && cols >= 1, s"grid needs rows >= 1 and cols >= 1, got rows=$rows, cols=$cols")
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (r <- 0 until rows; c <- 0 until cols) {
      val id = r * cols + c
      if (c + 1 < cols) es += ((id, id + 1))
      if (r + 1 < rows) es += ((id, id + cols))
    }
    canon(rows * cols, es)
  }

  /** Complete `branch`-ary tree of the given depth (depth 0 = single root). */
  def balancedTree(branch: Int, depth: Int): EdgeList = {
    require(branch >= 2 && depth >= 0,
      s"balancedTree needs branch >= 2 and depth >= 0, got branch=$branch, depth=$depth")
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    var frontier = Vector(0)
    var next = 1
    for (_ <- 1 to depth) {
      val newFrontier = mutable.ArrayBuffer.empty[Int]
      for (p <- frontier; _ <- 0 until branch) {
        es += ((p, next)); newFrontier += next; next += 1
      }
      frontier = newFrontier.toVector
    }
    canon(next, es)
  }

  /** Two k-cliques joined through a single middle vertex `r = 2k` adjacent to
    * one vertex of each clique. Removing r splits the graph into two balanced
    * components — the exact balanced-vertex-separator setting of Theorem 2,
    * so μ(r) is Θ(1). The separator vertex id is `2k`.
    */
  def doubleClique(k: Int): EdgeList = {
    require(k >= 2, s"doubleClique needs k >= 2, got k=$k")
    val a = for { u <- 0 until k; v <- u + 1 until k } yield (u, v)
    val b = for { u <- k until 2 * k; v <- u + 1 until 2 * k } yield (u, v)
    canon(2 * k + 1, a ++ b ++ Seq((0, 2 * k), (k, 2 * k)))
  }

  /** Barbell: two k-cliques joined by a path of `pathLen` interior vertices.
    * Interior path vertex ids are `2k until 2k+pathLen`; each is a balanced
    * vertex separator when the cliques have equal size.
    */
  def barbell(k: Int, pathLen: Int): EdgeList = {
    require(k >= 2 && pathLen >= 1, s"barbell needs k >= 2 and pathLen >= 1, got k=$k, pathLen=$pathLen")
    val a = for { u <- 0 until k; v <- u + 1 until k } yield (u, v)
    val b = for { u <- k until 2 * k; v <- u + 1 until 2 * k } yield (u, v)
    val chain = (0 until pathLen).map(i => 2 * k + i)
    val links = Seq((0, chain.head)) ++ chain.sliding(2).collect { case Seq(x, y) => (x, y) } ++
      Seq((chain.last, k))
    canon(2 * k + pathLen, a ++ b ++ links)
  }

  /** Connected Erdős–Rényi variant: a uniform-attachment random spanning tree
    * (guaranteeing connectivity, which the paper assumes throughout §2)
    * unioned with G(n, p) edges.
    */
  def erdosRenyi(n: Int, p: Double, seed: Long): EdgeList = {
    require(n >= 2 && p >= 0 && p <= 1, s"erdosRenyi needs n >= 2 and 0 <= p <= 1, got n=$n, p=$p")
    val rnd = new Random(seed)
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (v <- 1 until n) es += ((rnd.nextInt(v), v)) // random spanning tree
    for (u <- 0 until n; v <- u + 1 until n) if (rnd.nextDouble() < p) es += ((u, v))
    canon(n, es)
  }

  /** Barabási–Albert preferential attachment: start from an (m+1)-clique, each
    * new vertex attaches m edges preferentially by degree (repeated-endpoint
    * list trick). Scale-free degree distribution, the regime in which
    * betweenness is itself power-law distributed [Barthelemy 2004].
    */
  def barabasiAlbert(n: Int, m: Int, seed: Long): EdgeList = {
    require(m >= 1 && n > m + 1, s"barabasiAlbert needs m >= 1 and n > m + 1, got n=$n, m=$m")
    val rnd = new Random(seed)
    val ends = mutable.ArrayBuffer.empty[Int] // vertex appears deg(v) times
    val es = mutable.ArrayBuffer.empty[(Int, Int)]
    for (u <- 0 to m; v <- u + 1 to m) { es += ((u, v)); ends += u; ends += v }
    for (v <- m + 1 until n) {
      val chosen = mutable.Set.empty[Int]
      while (chosen.size < m) chosen += ends(rnd.nextInt(ends.size))
      chosen.foreach { t => es += ((t, v)); ends += t; ends += v }
    }
    canon(n, es)
  }

  /** Watts–Strogatz small world: ring lattice with k nearest neighbours per
    * side-pair (k even), each non-ring lattice edge rewired with prob beta.
    * The base ring (offset-1 edges) is never rewired so the graph stays
    * connected, as the paper assumes.
    */
  def wattsStrogatz(n: Int, k: Int, beta: Double, seed: Long): EdgeList = {
    require(k >= 2 && k % 2 == 0 && n > k && beta >= 0 && beta <= 1,
      s"wattsStrogatz needs an even k >= 2, n > k and 0 <= beta <= 1, got n=$n, k=$k, beta=$beta")
    val rnd = new Random(seed)
    val set = mutable.Set.empty[(Int, Int)]
    def norm(a: Int, b: Int) = if (a < b) (a, b) else (b, a)
    for (i <- 0 until n) set += norm(i, (i + 1) % n) // protected ring
    for (off <- 2 to k / 2; i <- 0 until n) {
      val e = norm(i, (i + off) % n)
      if (!set.contains(e)) {
        if (rnd.nextDouble() < beta) {
          var t = rnd.nextInt(n)
          var tries = 0
          while ((t == i || set.contains(norm(i, t))) && tries < 4 * n) {
            t = rnd.nextInt(n); tries += 1
          }
          if (t != i && !set.contains(norm(i, t))) set += norm(i, t) else set += e
        } else set += e
      }
    }
    canon(n, set)
  }

  /** Zachary's karate club (public domain, 34 vertices, 78 edges) — the one
    * real social network small enough to embed; used as a fixture with
    * literature-known top-betweenness vertices (0 and 33).
    */
  val karateClub: EdgeList = {
    val raw = Vector(
      (0,1),(0,2),(0,3),(0,4),(0,5),(0,6),(0,7),(0,8),(0,10),(0,11),(0,12),(0,13),
      (0,17),(0,19),(0,21),(0,31),(1,2),(1,3),(1,7),(1,13),(1,17),(1,19),(1,21),
      (1,30),(2,3),(2,7),(2,8),(2,9),(2,13),(2,27),(2,28),(2,32),(3,7),(3,12),
      (3,13),(4,6),(4,10),(5,6),(5,10),(5,16),(6,16),(8,30),(8,32),(8,33),(9,33),
      (13,33),(14,32),(14,33),(15,32),(15,33),(18,32),(18,33),(19,33),(20,32),
      (20,33),(22,32),(22,33),(23,25),(23,27),(23,29),(23,32),(23,33),(24,25),
      (24,27),(24,31),(25,31),(26,29),(26,33),(27,33),(28,31),(28,33),(29,32),
      (29,33),(30,32),(30,33),(31,32),(31,33),(32,33))
    canon(34, raw)
  }
}
