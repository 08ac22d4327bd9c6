package repro.bench

import repro.SparkSpec
import repro.core.{Baselines, Chunks, MHJoint, MHSingle}
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.GraphGen

/** T6 — sampler comparison at equal sample budget, and per-sample cost
  * scaling (the paper's positioning claims: the MH sampler is competitive
  * with iid samplers and much better for well-placed vertices; each sample
  * costs O(|E|)).
  */
class T6CompareScaleBench extends SparkSpec {

  private val Budget = 2000
  private val Seeds = 10

  private def relErr(est: Double, bc: Double): Double = math.abs(est - bc) / bc

  test("T6: estimator comparison at equal sample budget") {
    val targets = BenchUtil.graphs.flatMap { case (name, el) =>
      val g = CSRGraph.fromEdges(el)
      val base = Seq((name, g, BenchUtil.hub(g), "hub"))
      if (name.startsWith("2Clique")) base :+ ((name, g, 1000, "separator")) else base
    }
    val rows = targets.map { case (name, g, r, kind) =>
      val bc = BenchUtil.exactBC(spark, name, g, r)
      def mean(f: Long => Double): Double =
        (1 to Seeds).map(s => relErr(f(9000L + s), bc)).sum / Seeds
      val mh = mean(s => BenchUtil.chain(spark, name, g, r, Budget, s).estimateHarmonic)
      val uni = mean(s => Baselines.uniformEstimate(g, r, Budget, s))
      val dst = mean(s => Baselines.distanceEstimate(g, r, Budget, s))
      val rk = mean(s => Baselines.rkEstimate(g, r, Budget, s))
      Seq(name, kind, r.toString, BenchUtil.f(mh, 4), BenchUtil.f(uni, 4),
        BenchUtil.f(dst, 4), BenchUtil.f(rk, 4))
    }
    println(BenchUtil.table(
      s"T6: mean relative error at budget=$Budget samples ($Seeds seeds)",
      Seq("graph", "probe", "r", "MH(harmonic)", "uniform[2]", "distance[13]", "RK[30]"),
      rows))
    // shape: every estimator resolves a hub/separator within 50% at this budget
    rows.foreach { row =>
      row.drop(3).foreach(e => assert(e.toDouble < 0.5, s"${row.head}: err $e"))
    }
  }

  test("T6b: per-sample dependency cost scales ~linearly with |E|") {
    val sizes = Seq(1000, 2000, 5000, 10000)
    val rows = sizes.map { n =>
      val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(n, 4, 7L))
      val r = BenchUtil.hub(g)
      val sources = Array.tabulate(1000)(i => (i * 37) % g.n)
      // a query's path: mark the distinct sources, then one dependencyTable job
      def evaluate(draws: Array[Int]): Array[Double] =
        SparkBrandes.dependencyTable(spark, g, LocalBrandes.markSources(g.n, draws(0), draws), Array(r))
      // warm-up to exclude JIT/Spark startup from the measurement
      evaluate(sources.take(50))
      val t0 = System.nanoTime()
      evaluate(sources)
      val perSampleUs = (System.nanoTime() - t0) / 1e3 / sources.distinct.length
      Seq(n.toString, g.m.toString, BenchUtil.f(perSampleUs, 1))
    }
    println(BenchUtil.table(
      "T6b: distributed dependency evaluation cost (BA(n,4), 1000 samples)",
      Seq("|V|", "|E|", "us/sample"), rows))
    val first = rows.head(2).toDouble
    val last = rows.last(2).toDouble
    // 10x edges should cost much less than 100x per sample (roughly linear)
    assert(last < 40 * first, s"per-sample cost should scale ~linearly: $first -> $last")
  }

  test("T6c: exact distributed Brandes wall-clock for context") {
    val rows = Seq(1000, 2000, 5000).map { n =>
      val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(n, 4, 7L))
      val t0 = System.nanoTime()
      val bc = SparkBrandes.bc(spark, g)
      val ms = (System.nanoTime() - t0) / 1e6
      assert(bc.length == n)
      Seq(n.toString, g.m.toString, BenchUtil.f(ms, 0))
    }
    println(BenchUtil.table("T6c: exact BC (all vertices), source-parallel Brandes",
      Seq("|V|", "|E|", "wall ms"), rows))
  }

  test("T6d: local table build cost per source, 1 worker and the driver's pool") {
    val ba10k = CSRGraph.fromEdges(GraphGen.barabasiAlbert(10000, 4, 7L))
    val top5 = (0 until ba10k.n).sortBy(v => (-ba10k.degree(v), v)).take(5).toArray
    val (_, v0, _, pv) = MHJoint.drawProposals(5, ba10k.n, 2000, 1L)
    val ba2k = CSRGraph.fromEdges(GraphGen.barabasiAlbert(2000, 4, 7L))
    // the two perfbench queries' tables: joint-top5-10k at seed 1, and single-long-2k,
    // whose T = 1e7 proposals cover every source
    val cases = Seq(
      ("BA(10000,4) joint, seed 1", ba10k, LocalBrandes.markSources(ba10k.n, v0, pv), top5, "top 5 by degree"),
      ("BA(2000,4) all sources", ba2k, LocalBrandes.allSources(ba2k.n), Array(BenchUtil.medianDegreeVertex(ba2k)),
        "median degree"))
    val reps = 7
    val rows = for {
      (name, g, sources, targets, probe) <- cases
      workers <- Seq(1, Chunks.default)
    } yield {
      // the table, and the Brandes passes it ran: one per source its screen keeps
      def build(): (Array[Double], Int) = LocalBrandes.evaluatedTable(g, sources, targets, workers)
      (1 to 3).foreach(_ => build()) // JIT warm-up
      val times = (1 to reps).map { _ => val t0 = System.nanoTime(); build(); System.nanoTime() - t0 }.sorted
      val (table, passes) = build()
      Seq(name, sources.cardinality.toString, probe, passes.toString, workers.toString,
        BenchUtil.f(times(reps / 2) / 1e3 / sources.cardinality, 1), java.util.Arrays.hashCode(table).toString)
    }
    println(BenchUtil.table(s"T6d: LocalBrandes.dependencyTable, us per source (median of $reps builds)",
      Seq("graph and sources", "|sources|", "targets", "passes", "workers", "us/source", "table hash"), rows))
  }

  test("T6e: where a single-long-2k query's time goes, in-JVM") {
    // MHSingle.run's query as perfbench's single-long-2k times it (runSpark builds on
    // the driver's pool on a local master), split at the builder call into contiguous
    // parts: the draw and the marking of the drawn sources, the table build, the rest
    // of the walk engine (row checks, the states buffer, the walk), and the estimator
    val g = CSRGraph.fromEdges(GraphGen.barabasiAlbert(2000, 4, 7L))
    val r = BenchUtil.medianDegreeVertex(g)
    val T = 10000000
    val (warm, reps) = (10, 41)
    val parts = (1 to warm + reps).map { seed =>
      var (b0, b1) = (0L, 0L)
      val t0 = System.nanoTime()
      val chain = MHSingle.sample(g.n, r, T, seed) { sources =>
        b0 = System.nanoTime(); val table = LocalBrandes.dependencyTable(g, sources, Array(r)); b1 = System.nanoTime(); table
      }
      val t1 = System.nanoTime()
      chain.estimateHarmonic
      val t2 = System.nanoTime()
      Seq(b0 - t0, b1 - b0, t1 - b1, t2 - t1, t2 - t0).map(_ / 1e6)
    }.drop(warm)
    def quartiles(xs: Seq[Double]): Seq[Double] = { val s = xs.sorted; Seq(0.25, 0.5, 0.75).map(f => s(((s.length - 1) * f).round.toInt)) }
    val names = Seq("draw and mark", "table build", "rest of walk engine", "estimateHarmonic", "whole query")
    val stats = names.indices.map(i => quartiles(parts.map(_(i))))
    val query = stats.last(1)
    def share(ms: Double): String = s"${BenchUtil.f(100 * ms / query, 1)}%"
    val rows = names.zip(stats).map { case (name, q) => Seq(name) ++ q.map(BenchUtil.f(_, 2)) :+ share(q(1)) } :+ {
      val sum = stats.init.map(_(1)).sum
      Seq("sum of the part medians", "", BenchUtil.f(sum, 2), "", share(sum))
    }
    println(BenchUtil.table(s"T6e: single-long-2k query split, BA(2000,4) r = $r, T = 1e7, ms (seeds ${warm + 1}-${warm + reps} after $warm warm-ups)",
      Seq("part", "q1", "median", "q3", "of query median"), rows))
  }
}
