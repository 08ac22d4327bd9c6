package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{MHJoint, MHSingle}
import repro.graph.{CSRGraph, SparkBrandes}

/** One answered estimate query: its estimates, and the chain's acceptance
  * rate (computed after the query's clock stops).
  */
final class Answer(val estimates: Array[Double], accept: => Double) {
  lazy val acceptRate: Double = accept
}

/** What a query needs: the session, the workload graph and its probe vertices. */
final case class Ctx(spark: SparkSession, g: CSRGraph, probes: Array[Int])

/** How one kind of estimate query runs, plain (what `RunSingleMH` /
  * `RunJointMH` do) and traced (the same calls, one span per layer).
  */
sealed trait QueryKind {
  def plain(c: Ctx, T: Int, seed: Long): Answer

  /** Mirrors the body of the sampler's `runSpark`, with a span around each
    * layer call, inside the root span "query" of query `q`.
    */
  def traced(c: Ctx, T: Int, seed: Long, tr: Tracer, q: Int): Answer

  /** Exact values of what a query estimates. */
  def exact(c: Ctx, ref: Reference): Array[Double]

  /** Distinct sources among the initial state and the proposals at `seed`:
    * the number of Brandes passes the query needs.
    */
  def evals(c: Ctx, T: Int, seed: Long): Int

  protected def distinct(n: Int, v0: Int, vs: Array[Int]): Int = {
    val seen = new java.util.BitSet(n)
    seen.set(v0)
    vs.foreach(seen.set)
    seen.cardinality()
  }
}

/** BC(r) for the single probe r, by the single-space chain (§4.2) and the
  * harmonic estimator.
  */
case object SingleQuery extends QueryKind {
  private def target(c: Ctx) = c.probes.head

  def plain(c: Ctx, T: Int, seed: Long): Answer = {
    val chain = MHSingle.runSpark(c.spark, c.g, target(c), T, seed)
    new Answer(Array(chain.estimateHarmonic), chain.acceptanceRate)
  }

  def traced(c: Ctx, T: Int, seed: Long, tr: Tracer, q: Int): Answer = {
    val r = target(c)
    tr.span(q, "query", parent = "") {
      val (v0, props) = tr.span(q, "sampler.draw")(MHSingle.drawProposals(c.g.n, T, seed))
      val deltas = tr.span(q, "spark.call")(
        SparkBrandes.dependenciesOnTarget(c.spark, c.g, v0 +: props.toSeq, r))
      val chain = tr.span(q, "sampler.walk")(MHSingle.walk(r, c.g.n, seed, v0, props, deltas))
      val est = tr.span(q, "estimator")(chain.estimateHarmonic)
      new Answer(Array(est), chain.acceptanceRate)
    }
  }

  def exact(c: Ctx, ref: Reference): Array[Double] = Array(ref(target(c)))

  def evals(c: Ctx, T: Int, seed: Long): Int = {
    val (v0, props) = MHSingle.drawProposals(c.g.n, T, seed)
    distinct(c.g.n, v0, props)
  }
}

/** BC(r_i)/BC(r_j) for every ordered pair of R = probes, by the joint-space
  * chain (§4.3) and Eq. 22.
  */
case object JointQuery extends QueryKind {
  private def pairs(c: Ctx) =
    for (i <- c.probes.indices; j <- c.probes.indices if i != j) yield (i, j)

  def plain(c: Ctx, T: Int, seed: Long): Answer = {
    val chain = MHJoint.runSpark(c.spark, c.g, c.probes, T, seed)
    new Answer(pairs(c).map { case (a, b) => chain.ratioEstimate(a, b) }.toArray, chain.acceptanceRate)
  }

  def traced(c: Ctx, T: Int, seed: Long, tr: Tracer, q: Int): Answer = {
    val R = c.probes
    tr.span(q, "query", parent = "") {
      val (r0, v0, pr, pv) = tr.span(q, "sampler.draw")(MHJoint.drawProposals(R.length, c.g.n, T, seed))
      val table = tr.span(q, "spark.call")(
        SparkBrandes.dependenciesOnTargets(c.spark, c.g, v0 +: pv.toSeq, R))
      val chain = tr.span(q, "sampler.walk")(MHJoint.walk(R, c.g.n, seed, r0, v0, pr, pv, table))
      val ests = tr.span(q, "estimator")(pairs(c).map { case (a, b) => chain.ratioEstimate(a, b) })
      new Answer(ests.toArray, chain.acceptanceRate)
    }
  }

  def exact(c: Ctx, ref: Reference): Array[Double] =
    pairs(c).map { case (a, b) => ref(c.probes(a)) / ref(c.probes(b)) }.toArray

  def evals(c: Ctx, T: Int, seed: Long): Int = {
    val (_, v0, _, pv) = MHJoint.drawProposals(c.probes.length, c.g.n, T, seed)
    distinct(c.g.n, v0, pv)
  }
}

/** A benchmark workload.
  *
  * @param spec       graph spec, as the jobs take it (`repro.jobs.Jobs.graph`)
  * @param T          chain length of every query
  * @param minQueries the first `minQueries` timed queries are run whatever
  *                   `--seconds` says; `rel_err`, the acceptance rate and the
  *                   evaluation count are averaged over exactly these, so they
  *                   repeat at a fixed seed
  * @param warmups    untimed queries before timing, at [[warmupT]] (counted in `setup_s`)
  * @param maxFactor  a query fails when one of its estimates is off from the
  *                   exact value by more than this factor either way
  *                   ([[Stats.factorErr]]), or when it throws
  * @param probes     the target vertices, chosen from the graph
  */
final case class Workload(
    name: String,
    spec: String,
    kind: QueryKind,
    T: Int,
    minQueries: Int,
    warmups: Int,
    maxFactor: Double,
    probes: CSRGraph => Array[Int]) {

  /** Warm-up queries run the same code at a tenth of the chain length: enough
    * to compile the hot loops, and it leaves more of a run for timing.
    */
  def warmupT: Int = math.max(1, T / 10)
}

object Workloads {

  /** The k vertices of highest degree, ties broken by id. */
  def topByDegree(k: Int)(g: CSRGraph): Array[Int] =
    (0 until g.n).sortBy(v => (-g.degree(v), v)).take(k).toArray

  /** The vertex in the middle of the stable by-degree order. */
  def medianDegree(g: CSRGraph): Array[Int] = Array((0 until g.n).sortBy(g.degree).apply(g.n / 2))

  // maxFactor comes from 1500-3000 seeded chains per workload (40 for
  // T=1e7), replayed on exact dependency columns. The largest factor seen was
  // 1.02 for the T=1e7 probe and 2.0 for a joint pair.
  //
  // The kernel-bound workload uses BA(10000,4): a BFS working set of ~0.6 MB
  // stays in a core's L2. At BA(50000,4) (~3 MB) the kernel reads the L3 that
  // other tenants of a shared host also use. Its 4-thread speed then varied
  // by 15% (interquartile share) from one 1.5 s sample to the next, against
  // 7% at 10000 and 5% at 2000, too much for a run-to-run bound.
  val all: Seq[Workload] = Seq(
    // Driver-bound: dedupe of 1e7 proposals, the walk and the harmonic
    // estimator; the kernel is a small share.
    Workload("single-long-2k", "ba:2000:4:7", SingleQuery, T = 10000000, minQueries = 3, warmups = 2,
      maxFactor = 1.1, medianDegree),
    // Kernel-bound: ~1800 Brandes passes per query inside Spark tasks, through
    // dependenciesOnTargets with |R|-wide results, then the joint walk. A
    // kernel specialised to one target shows its cost here.
    Workload("joint-top5-10k", "ba:10000:4:7", JointQuery, T = 2000, minQueries = 4, warmups = 3,
      maxFactor = 4.0, topByDegree(5)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** The same workload at smoke-test size: a small graph, short chains and a
    * few queries, through the same code path.
    */
  def tiny(w: Workload): Workload = w.copy(
    spec = "ba:300:3:7",
    T = math.min(w.T, 20000),
    minQueries = math.min(w.minQueries, 3),
    warmups = 1,
    maxFactor = math.max(w.maxFactor, 4.0),
    probes = g => w.probes(g).take(5))
}
