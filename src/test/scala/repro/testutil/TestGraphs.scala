package repro.testutil

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalacheck.Gen
import repro.graphgen.{EdgeList, GraphGen}

/** Independent naive reference implementations and generators for tests.
  *
  * Everything here is deliberately written with different algorithms than
  * `repro.graph` (Floyd–Warshall instead of BFS; distance-layer DP instead of
  * Brandes' accumulation) so that agreement is evidence of correctness, not
  * of shared bugs. The DuckDB SQL in [[bcSql]] / [[dependencySql]] is a third
  * fully independent implementation executed by a different engine.
  */
object TestGraphs {

  /** Edge list as a two-column DataFrame `(src, dst)`, one row per undirected edge. */
  def edgesDF(spark: SparkSession, el: EdgeList): DataFrame = {
    import spark.implicits._
    el.edges.toDF("src", "dst")
  }

  /** All-pairs distances by Floyd–Warshall. */
  def naiveDistances(el: EdgeList): Array[Array[Int]] = {
    val n = el.n
    val INF = Int.MaxValue / 4
    val d = Array.fill(n, n)(INF)
    for (v <- 0 until n) d(v)(v) = 0
    el.edges.foreach { case (u, v) => d(u)(v) = 1; d(v)(u) = 1 }
    for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
      if (d(i)(k) + d(k)(j) < d(i)(j)) d(i)(j) = d(i)(k) + d(k)(j)
    d
  }

  /** All-pairs shortest-path counts σ_st by DP over increasing distance. */
  def naiveSigma(el: EdgeList): Array[Array[Double]] = {
    val n = el.n
    val d = naiveDistances(el)
    val adj = Array.fill(n)(List.empty[Int])
    el.edges.foreach { case (u, v) =>
      adj(u) = v :: adj(u); adj(v) = u :: adj(v)
    }
    val sigma = Array.fill(n, n)(0.0)
    for (s <- 0 until n) {
      sigma(s)(s) = 1.0
      val order = (0 until n).filter(d(s)(_) < n + 1).sortBy(d(s)(_))
      for (t <- order if t != s)
        sigma(s)(t) = adj(t).filter(w => d(s)(w) == d(s)(t) - 1).map(sigma(s)(_)).sum
    }
    sigma
  }

  /** σ_st(v): shortest s-t paths passing through interior vertex v. */
  def naiveSigmaThrough(el: EdgeList, sigma: Array[Array[Double]],
                        d: Array[Array[Int]], s: Int, t: Int, v: Int): Double =
    if (v == s || v == t) 0.0
    else if (d(s)(v) + d(v)(t) == d(s)(t)) sigma(s)(v) * sigma(v)(t)
    else 0.0

  /** Ordered-pair betweenness of every vertex, by the definition (Eq. 1). */
  def naiveBC(el: EdgeList): Array[Double] = {
    val d = naiveDistances(el)
    val sigma = naiveSigma(el)
    Array.tabulate(el.n) { v =>
      (for {
        s <- 0 until el.n if s != v
        t <- 0 until el.n if t != v && t != s
      } yield naiveSigmaThrough(el, sigma, d, s, t, v) / sigma(s)(t)).sum
    }
  }

  /** Dependency column δ_{v•}(r) for all v, by definition. */
  def naiveDependencyColumn(el: EdgeList, r: Int): Array[Double] = {
    val d = naiveDistances(el)
    val sigma = naiveSigma(el)
    Array.tabulate(el.n) { v =>
      if (v == r) 0.0
      else (for (t <- 0 until el.n if t != v && t != r)
        yield naiveSigmaThrough(el, sigma, d, v, t, r) / sigma(v)(t)).sum
    }
  }

  def naiveDiameter(el: EdgeList): Int = {
    val d = naiveDistances(el)
    (for (i <- 0 until el.n; j <- 0 until el.n) yield d(i)(j)).max
  }

  /** DuckDB SQL computing (v, bc) over an all-VARCHAR `edges(src, dst)` table
    * via bounded walk enumeration: walks of length ≤ maxLen enumerated with a
    * recursive CTE; minimal-length walks are exactly shortest paths, so
    * COUNT(*) at minimal d is σ_st. Rounded to 4 decimals.
    */
  def bcSql(maxLen: Int): String =
    s"""WITH RECURSIVE
       |e AS (SELECT CAST(src AS INT) AS s, CAST(dst AS INT) AS t FROM edges
       |      UNION ALL
       |      SELECT CAST(dst AS INT), CAST(src AS INT) FROM edges),
       |verts AS (SELECT DISTINCT s AS v FROM e),
       |w AS (SELECT v AS s, v AS t, 0 AS d FROM verts
       |      UNION ALL
       |      SELECT w.s, e.t, w.d + 1 FROM w JOIN e ON w.t = e.s WHERE w.d < $maxLen),
       |dist AS (SELECT s, t, MIN(d) AS d FROM w GROUP BY s, t),
       |sigma AS (SELECT w.s, w.t, COUNT(*) AS ns
       |          FROM w JOIN dist ON w.s = dist.s AND w.t = dist.t AND w.d = dist.d
       |          GROUP BY w.s, w.t),
       |pairc AS (
       |  SELECT m.v AS v, SUM(sv.ns * vt.ns * 1.0 / st.ns) AS bc
       |  FROM verts m
       |  JOIN sigma sv ON sv.t = m.v AND sv.s <> m.v
       |  JOIN sigma vt ON vt.s = m.v AND vt.t <> m.v AND vt.t <> sv.s
       |  JOIN dist dsv ON dsv.s = sv.s AND dsv.t = sv.t
       |  JOIN dist dvt ON dvt.s = vt.s AND dvt.t = vt.t
       |  JOIN dist dst ON dst.s = sv.s AND dst.t = vt.t AND dst.d = dsv.d + dvt.d
       |  JOIN sigma st ON st.s = sv.s AND st.t = vt.t
       |  GROUP BY m.v)
       |SELECT verts.v AS v, ROUND(COALESCE(pairc.bc, 0.0), 4) AS bc
       |FROM verts LEFT JOIN pairc ON verts.v = pairc.v""".stripMargin

  /** DuckDB SQL computing the dependency column (v, delta) = δ_{v•}(r). */
  def dependencySql(maxLen: Int, r: Int): String =
    s"""WITH RECURSIVE
       |e AS (SELECT CAST(src AS INT) AS s, CAST(dst AS INT) AS t FROM edges
       |      UNION ALL
       |      SELECT CAST(dst AS INT), CAST(src AS INT) FROM edges),
       |verts AS (SELECT DISTINCT s AS v FROM e),
       |w AS (SELECT v AS s, v AS t, 0 AS d FROM verts
       |      UNION ALL
       |      SELECT w.s, e.t, w.d + 1 FROM w JOIN e ON w.t = e.s WHERE w.d < $maxLen),
       |dist AS (SELECT s, t, MIN(d) AS d FROM w GROUP BY s, t),
       |sigma AS (SELECT w.s, w.t, COUNT(*) AS ns
       |          FROM w JOIN dist ON w.s = dist.s AND w.t = dist.t AND w.d = dist.d
       |          GROUP BY w.s, w.t),
       |dep AS (
       |  SELECT sv.s AS v, SUM(sv.ns * vt.ns * 1.0 / st.ns) AS delta
       |  FROM sigma sv
       |  JOIN sigma vt ON vt.s = sv.t
       |  JOIN dist dsv ON dsv.s = sv.s AND dsv.t = sv.t
       |  JOIN dist dvt ON dvt.s = vt.s AND dvt.t = vt.t
       |  JOIN dist dst ON dst.s = sv.s AND dst.t = vt.t AND dst.d = dsv.d + dvt.d
       |  JOIN sigma st ON st.s = sv.s AND st.t = vt.t
       |  WHERE sv.t = $r AND sv.s <> $r AND vt.t <> $r AND vt.t <> sv.s
       |  GROUP BY sv.s)
       |SELECT verts.v AS v, ROUND(COALESCE(dep.delta, 0.0), 4) AS delta
       |FROM verts LEFT JOIN dep ON verts.v = dep.v""".stripMargin

  /** Random connected simple graph: uniform-attachment spanning tree plus
    * random extra edges. Deterministic in the drawn parameters.
    */
  val connectedGraphGen: Gen[EdgeList] =
    for {
      n <- Gen.choose(4, 9)
      p <- Gen.choose(0.0, 0.5)
      seed <- Gen.choose(0L, 1000000L)
    } yield GraphGen.erdosRenyi(n, p, seed)

  /** Deterministic sample of `count` random connected graphs (ScalaCheck Gen
    * driven by fixed seeds — usable without the scalatestplus bridge).
    */
  def sampleGraphs(count: Int): Seq[EdgeList] =
    (1 to count).map { i =>
      connectedGraphGen.pureApply(Gen.Parameters.default, org.scalacheck.rng.Seed(i.toLong))
    }

  /** a and b side by side, b's vertices numbered after a's. */
  def disjointUnion(a: EdgeList, b: EdgeList): EdgeList =
    EdgeList(a.n + b.n, (a.edges ++ b.edges.map { case (u, v) => (u + a.n, v + a.n) }).sorted)

  /** k diamonds in a row: the junctions 3i (i = 0..k), and the two middles
    * 3i + 1 and 3i + 2 between the junctions 3i and 3i + 3. The 2^j shortest
    * paths across j diamonds overflow Double's σ once j reaches 1024.
    */
  def diamondChain(k: Int): EdgeList =
    EdgeList(3 * k + 1, Vector.tabulate(k)(i =>
      Seq((3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 3), (3 * i + 2, 3 * i + 3))).flatten)

  /** δ_{s•}(v) on [[diamondChain]](k) from a junction s, by the definition
    * (Eq. 2): every shortest path from s to a vertex t beyond v, on the far
    * side of v from s, crosses a junction v, and half of them cross a middle
    * v. So δ counts the vertices beyond v, halved at a middle.
    */
  def diamondChainDependency(k: Int, s: Int): Array[Double] =
    Array.tabulate(3 * k + 1) { v =>
      val u = if (v < s) v else 3 * k - v // v's index from its own end of the chain
      if (v == s) 0.0 else if (u % 3 == 0) u.toDouble else (3 * (u / 3) + 1) / 2.0
    }

  /** Deterministic small integer edge weights in {1, 2, 3}, so weighted ties actually occur. */
  def smallWeights(e: (Int, Int)): Double = 1.0 + (e._1 + 2 * e._2) % 3

  /** A small fixed battery of named graphs used across suites. */
  def battery: Seq[(String, EdgeList)] = Seq(
    "path8" -> GraphGen.path(8),
    "cycle7" -> GraphGen.cycle(7),
    "star9" -> GraphGen.star(9),
    "complete6" -> GraphGen.complete(6),
    "grid3x4" -> GraphGen.grid(3, 4),
    "tree2x3" -> GraphGen.balancedTree(2, 3),
    "doubleClique4" -> GraphGen.doubleClique(4),
    "barbell3x2" -> GraphGen.barbell(3, 2),
    "er12" -> GraphGen.erdosRenyi(12, 0.3, 11L),
    "ba12" -> GraphGen.barabasiAlbert(12, 2, 5L),
    "ws12" -> GraphGen.wattsStrogatz(12, 4, 0.2, 3L),
    "karate" -> GraphGen.karateClub,
  )
}
