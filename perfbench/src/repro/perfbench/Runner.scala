package repro.perfbench

import java.io.{File, FileWriter}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.jobs.Jobs

final case class Metric(name: String, value: Double, unit: String)

/** A run's outcome: the contract's four fields, plus report lines. */
final case class Result(correct: Boolean, attempted: Int, failed: Int,
                        metrics: Seq[Metric], notes: Seq[String])

/** Runs one workload: set-up, warm-up, a closed loop of timed queries (one
  * client; each query starts when the previous one has returned), then the
  * checks against the exact references.
  *
  * `trace = false` measures the end-to-end metrics. `trace = true` runs each
  * query twice, once plain and once with a span around every layer call (the
  * order alternates), and reports the per-layer metrics.
  */
object Runner {

  private def secs(ns: Long): Double = ns / 1e9

  /** Chain seed of query i (i < 0 for warm-ups), derived from the workload
    * seed by SplitMix64 finalisation.
    */
  def chainSeed(workloadSeed: Long, i: Int): Long = {
    var z = workloadSeed * 0x9E3779B97F4A7C15L + i.toLong * 0xBF58476D1CE4E5B9L + 0x94D049BB133111EBL
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Where the references come from: the committed files, or (for smoke
    * runs) a fresh computation.
    */
  sealed trait Refs
  final case class RefFiles(dir: File) extends Refs
  case object ComputeRefs extends Refs

  def run(w: Workload, refs: Refs, seed: Long, seconds: Double, trace: Boolean,
          stateDir: Option[File]): Result = {
    // ---- set-up: session, graph (built three times, median kept), warm-up
    val t0 = System.nanoTime()
    val spark = Jobs.session("perfbench")
    val sessionNs = System.nanoTime() - t0
    val builds = (1 to 3).map { _ =>
      val a = System.nanoTime()
      val el = Jobs.graph(w.spec)
      val b = System.nanoTime()
      val g = CSRGraph.fromEdges(el)
      (el, g, b - a, System.nanoTime() - b)
    }
    val (el, g, _, _) = builds.last
    val genNs = Stats.median(builds.map(_._3.toDouble))
    val csrNs = Stats.median(builds.map(_._4.toDouble))
    val graphNs = Stats.median(builds.map(b => (b._3 + b._4).toDouble))
    val ctx = Ctx(spark, g, w.probes(g))
    val w0 = System.nanoTime()
    for (k <- 0 until w.warmups) w.kind.plain(ctx, w.warmupT, chainSeed(seed, -1 - k)).acceptRate
    val warmNs = System.nanoTime() - w0
    val setupS = secs(sessionNs) + graphNs / 1e9 + secs(warmNs)

    val cores = spark.sparkContext.defaultParallelism
    val listener = if (trace) Some(new JobListener(spark.sparkContext)) else None
    val tracer = new Tracer
    val kernel = if (trace) Some(kernelProbe(g)) else None
    val overheadMs = listener.map { l =>
      val src = if (ctx.probes(0) == 0) 1 else 0
      val ms = (1 to 5).map { _ =>
        val a = System.nanoTime()
        SparkBrandes.dependenciesOnTarget(spark, g, Seq(src), ctx.probes(0))
        (System.nanoTime() - a) / 1e6
      }
      l.take()
      Stats.median(ms)
    }

    // ---- timed closed loop
    val plainNs = ArrayBuffer.empty[Long]
    val answers = ArrayBuffer.empty[Either[Throwable, Answer]]
    val traced = ArrayBuffer.empty[Traced]
    val violations = ArrayBuffer.empty[String]
    def timed(f: => Answer): (Long, Either[Throwable, Answer]) = {
      val a = System.nanoTime()
      val r = try Right(f) catch { case NonFatal(e) => Left(e) }
      val dt = System.nanoTime() - a
      r.foreach(_.acceptRate)
      (dt, r)
    }
    def tracedQuery(i: Int, s: Long): Either[Throwable, Answer] = {
      listener.foreach(_.take())
      val gc = Jvm.gcMs
      val (dt, r) = timed(w.kind.traced(ctx, w.T, s, tracer, i))
      val gcDelta = Jvm.gcMs - gc
      val js = listener.get.take()
      if (r.isRight) traced += Traced(i, dt, js, gcDelta)
      r
    }
    Jvm.resetHeapPeak()
    val loop0 = System.nanoTime()
    var i = 0
    while (i < w.minQueries || System.nanoTime() - loop0 < seconds * 1e9) {
      val s = chainSeed(seed, i)
      val tracedFirst = trace && i % 2 == 0
      val viaTrace = if (tracedFirst) Some(tracedQuery(i, s)) else None
      val (dt, r) = timed(w.kind.plain(ctx, w.T, s))
      plainNs += dt
      answers += r
      val other = if (trace && !tracedFirst) Some(tracedQuery(i, s)) else viaTrace
      (other, r) match {
        case (Some(Left(e)), _) => violations += s"traced query $i threw $e"
        case (Some(Right(x)), Right(y)) if !sameAnswer(x, y) =>
          violations += s"determinism violation: query $i gave different answers traced and plain"
        case _ =>
      }
      i += 1
    }
    val heapPeak = Jvm.heapPeakMb

    // ---- checks against the references (outside every timed region)
    val ref = refs match {
      case RefFiles(dir) => Reference.read(Reference.file(dir, w.spec))
      case ComputeRefs => Reference.compute(spark, w.spec, el, g, ctx.probes.toSeq)
    }
    val notes = ArrayBuffer.empty[String]
    val fpOk = Fingerprint.of(el) == ref.fingerprint
    if (!fpOk) notes += s"graph fingerprint mismatch for ${w.spec}: generated ${Fingerprint.of(el)}, " +
      s"references were made for ${ref.fingerprint}; every query counts as failed"
    // per query: mean relative error, and the worst factor by which an estimate is off
    val ex = w.kind.exact(ctx, ref)
    val (errs, worst) = answers.indices.map { k =>
      answers(k) match {
        case Right(a) =>
          (Stats.mean(a.estimates.indices.map(j => Stats.relErr(a.estimates(j), ex(j)))),
            a.estimates.indices.map(j => Stats.factorErr(a.estimates(j), ex(j))).max)
        case Left(_) => (Double.PositiveInfinity, Double.PositiveInfinity)
      }
    }.unzip
    answers.zipWithIndex.collect { case (Left(e), k) => notes += s"query $k threw $e" }
    val failedIdx = worst.indices.filter(k => !fpOk || !(worst(k) <= w.maxFactor))
    worst.indices.filter(k => answers(k).isRight && !(worst(k) <= w.maxFactor)).take(3).foreach { k =>
      notes += f"query $k: an estimate is off by a factor ${worst(k)}%.3f, beyond the workload bound ${w.maxFactor}"
    }
    val attempted = answers.length
    val failed = failedIdx.length

    // ---- determinism: the first minQueries repeat exactly at a fixed seed
    val first = 0 until w.minQueries
    val evals = first.map(k => w.kind.evals(ctx, w.T, chainSeed(seed, k)))
    val accepts = first.map(k => answers(k).fold(_ => Double.NaN, _.acceptRate))
    val relErr = Stats.mean(first.map(errs).filter(_.isFinite))
    val acceptRate = Stats.mean(accepts.filter(_.isFinite))
    val evalsMean = Stats.mean(evals.map(_.toDouble))
    violations ++= stateDir.toSeq.flatMap(d =>
      DeterminismLog.check(new File(d, "determinism.tsv"), w.name, seed,
        first.map(k => (k, errs(k), accepts(k), evals(k))))).map("determinism violation: " + _)
    notes ++= violations

    val times = plainNs.map(secs).toSeq
    val completed = answers.count(_.isRight)
    val p50 = Stats.median(times)
    val qps = completed / times.sum
    val e2e = Seq(
      Metric("setup_s", setupS, "s"),
      Metric("query_p50_s", p50, "s"),
      Metric("queries_per_s", qps, "1/s"),
    )
    val report = ArrayBuffer(
      f"queries: $attempted timed (closed loop, 1 client), ${w.minQueries} fixed for accuracy; T=${w.T}",
      f"setup: session ${secs(sessionNs)}%.3f s + graph ${graphNs / 1e9}%.3f s (median of 3) + " +
        f"${w.warmups} warm-up queries at T=${w.warmupT} ${secs(warmNs)}%.3f s",
      s"rel_err = $relErr ratio (mean over the first ${w.minQueries} queries)",
      s"worst estimate off by a factor ${worst.max} (bound ${w.maxFactor})",
      s"failed_frac = ${Stats.failedFrac(failed, attempted)} ratio ($failed of $attempted)",
    )
    if (times.length <= 20) report += times.map(t => f"$t%.3f").mkString("query times s: ", " ", "")
    if (Stats.hasTail(times.length, 90))
      report += s"query_p90_s = ${Stats.percentile(times, 90)} s (${times.length} samples)"
    else report += s"query_p90_s not reported: ${times.length} samples leave fewer than 10 beyond p90"

    val metrics = if (!trace) e2e else {
      val ledgers = traced.toSeq.map(t => tracer.ledger(t.q))
      def span(q: Int, name: String) = tracer.spans.find(s => s.query == q && s.name == name).get
      def spanS(name: String) = traced.toSeq.map { t => val s = span(t.q, name); secs(s.endNs - s.startNs) }
      val call = spanS("spark.call")
      val splits = traced.toSeq.map { t =>
        val sp = span(t.q, "spark.call")
        Stats.splitCall(tracer.epochMs(sp.startNs), tracer.epochMs(sp.endNs), t.jobs.firstStartMs, t.jobs.lastEndMs)
      }
      val jobS = splits.map(_._2 / 1000)
      val busyS = traced.toSeq.map(_.jobs.taskBusyMs / 1000.0)
      val k = kernel.get
      val unacc = ledgers.map(_.unaccountedFrac)
      if (Stats.median(unacc) > 0.10) {
        val gaps = ledgers.flatMap(_.gaps).groupMapReduce(_._1)(_._2)(_ + _).toSeq.sortBy(-_._2)
        notes += f"trace.unaccounted_frac ${Stats.median(unacc)}%.3f exceeds 0.10; root self time " +
          gaps.take(3).map { case (n, ns) => f"$n ${ns / 1e9 / ledgers.length}%.4f s/query" }.mkString("between ", ", ", "")
      }
      val m = Seq(
        Metric("session.start_s", secs(sessionNs), "s"),
        Metric("graphgen.gen_s", genNs / 1e9, "s"),
        Metric("csr.build_s", csrNs / 1e9, "s"),
        Metric("csr.bytes", 4.0 * (g.n + 1) + 8.0 * g.m, "bytes"),
        Metric("kernel.bfs_ns_per_arc", k.bfsNsPerArc, "ns"),
        Metric("kernel.sweep_ns_per_arc", k.sweepNsPerArc, "ns"),
        Metric("kernel.local_us_per_source", k.usPerSource, "us"),
        Metric("kernel.evals_per_query", evalsMean, "count"),
        Metric("kernel.dedupe_ratio", evalsMean / (w.T + 1.0), "ratio"),
        Metric("spark.call_s", Stats.median(call), "s"),
        Metric("spark.pre_job_s", Stats.median(splits.map(_._1 / 1000)), "s"),
        Metric("spark.job_s", Stats.median(jobS), "s"),
        Metric("spark.post_job_s", Stats.median(splits.map(_._3 / 1000)), "s"),
        Metric("spark.task_busy_s", Stats.median(busyS), "s"),
        Metric("spark.utilisation", Stats.median(busyS.zip(jobS).map { case (b, j) => b / (j * cores) }), "ratio"),
        Metric("spark.speedup_vs_local", Stats.median(jobS.map(j => evalsMean * k.usPerSource / 1e6 / j)), "ratio"),
        Metric("spark.us_per_source", Stats.median(call) / evalsMean * 1e6, "us"),
        Metric("spark.job_overhead_ms", overheadMs.get, "ms"),
        Metric("spark.jobs_per_query", Stats.median(traced.toSeq.map(_.jobs.jobs.toDouble)), "count"),
        Metric("spark.result_bytes", Stats.median(traced.toSeq.map(_.jobs.resultBytes.toDouble)), "bytes"),
        Metric("sampler.draw_s", Stats.median(spanS("sampler.draw")), "s"),
        Metric("sampler.walk_ns_per_step", Stats.median(spanS("sampler.walk")) / w.T * 1e9, "ns"),
        Metric("sampler.accept_rate", acceptRate, "ratio"),
        Metric("estimator.query_s", Stats.median(spanS("estimator")), "s"),
        Metric("estimator.rel_err", relErr, "ratio"),
        Metric("jvm.gc_s_per_query", traced.map(_.gcMs).sum / 1000.0 / traced.length, "s"),
        Metric("jvm.heap_peak_mb", heapPeak, "MB"),
        Metric("trace.unaccounted_frac", Stats.median(unacc), "ratio"),
        Metric("trace.overhead_frac",
          Stats.median(traced.toSeq.map(t => secs(t.ns))) / Stats.median(times) - 1, "ratio"),
      )
      report += BaselineLedger.line(g.n, m)
      stateDir.foreach { d =>
        val f = new File(d, s"trace-${w.name}-$seed.jsonl")
        val out = new FileWriter(f)
        try tracer.toJsonLines.foreach(l => out.write(l + "\n")) finally out.close()
        report += s"spans written to $f"
      }
      m
    }

    Result(fpOk && failed == 0 && violations.isEmpty, attempted, failed, metrics,
      report.toSeq ++ notes.toSeq)
  }

  private def sameAnswer(a: Answer, b: Answer): Boolean =
    a.estimates.map(java.lang.Double.doubleToLongBits).sameElements(
      b.estimates.map(java.lang.Double.doubleToLongBits)) &&
      java.lang.Double.doubleToLongBits(a.acceptRate) == java.lang.Double.doubleToLongBits(b.acceptRate)

  /** One successful traced query: its id, wall time, Spark jobs and GC time. */
  private final case class Traced(q: Int, ns: Long, jobs: JobStats, gcMs: Long)

  final case class KernelProbe(bfsNsPerArc: Double, sweepNsPerArc: Double, usPerSource: Double)

  /** Single-threaded `LocalBrandes.spd` and `dependency` over a fixed sample
    * of 16 sources, repeated until each has run for at least 0.25 s after one
    * warm pass; per-arc times divide by the 2m arcs a pass reads.
    */
  def kernelProbe(g: CSRGraph): KernelProbe = {
    val rnd = new scala.util.Random(20190326L)
    val sources = Array.fill(16)(rnd.nextInt(g.n))
    def perPass(f: Int => Any): Double = {
      sources.foreach(f)
      var passes = 0L
      val a = System.nanoTime()
      while (System.nanoTime() - a < 250000000L) { sources.foreach(f); passes += sources.length }
      (System.nanoTime() - a).toDouble / passes
    }
    val spd = perPass(s => LocalBrandes.spd(g, s))
    val dep = perPass(s => LocalBrandes.dependency(g, s))
    val arcs = 2.0 * g.m
    KernelProbe(spd / arcs, (dep - spd) / arcs, dep / 1000)
  }
}

/** Values that must repeat exactly at a fixed workload seed, kept across
  * runs of one build so a later run can compare against an earlier one.
  */
object DeterminismLog {
  def check(f: File, workload: String, seed: Long,
            rows: Seq[(Int, Double, Double, Int)]): Seq[String] = {
    def key(k: Int) = s"$workload\t$seed\t$k"
    def value(r: (Int, Double, Double, Int)) =
      s"${java.lang.Double.doubleToLongBits(r._2)}\t${java.lang.Double.doubleToLongBits(r._3)}\t${r._4}"
    val seen: Map[String, String] =
      if (!f.exists) Map.empty
      else {
        val src = scala.io.Source.fromFile(f)
        try src.getLines().map { l =>
          val c = l.split("\t", 4); (c.take(3).mkString("\t"), c(3))
        }.toMap finally src.close()
      }
    val bad = rows.flatMap { r =>
      seen.get(key(r._1)).filter(_ != value(r)).map(old =>
        s"$workload seed $seed query ${r._1}: (rel_err, accept_rate, evals) bits $old earlier, ${value(r)} now")
    }
    val out = new FileWriter(f, true)
    try rows.filterNot(r => seen.contains(key(r._1))).foreach(r => out.write(s"${key(r._1)}\t${value(r)}\n"))
    finally out.close()
    bad
  }
}
