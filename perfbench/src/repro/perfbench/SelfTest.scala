package repro.perfbench

import java.io.File
import java.nio.file.Files

/** Checks of the benchmark's own arithmetic, then a tiny-size smoke run of
  * every workload, plain and traced, through the same code path as a real
  * run. Returns the process exit code.
  */
object SelfTest {
  private var failures = 0

  private def check(what: String)(ok: => Boolean): Unit = {
    val pass = try ok catch { case scala.util.control.NonFatal(e) => println(s"  $e"); false }
    println(s"${if (pass) "ok  " else "FAIL"} $what")
    if (!pass) failures += 1
  }

  private def close(a: Double, b: Double) = math.abs(a - b) <= 1e-12 * math.max(1.0, math.abs(b))

  def run(): Int = {
    arithmetic()
    smoke()
    println(if (failures == 0) "selftest passed" else s"selftest: $failures failed")
    if (failures == 0) 0 else 1
  }

  private def arithmetic(): Unit = {
    val xs = Seq(5.0, 1.0, 4.0, 2.0, 3.0)
    check("median of odd and even counts") {
      Stats.median(xs) == 3.0 && Stats.median(xs :+ 6.0) == 3.5 && Stats.median(Seq(7.0)) == 7.0
    }
    val hundred = (1 to 100).map(_.toDouble)
    check("nearest-rank percentile") {
      Stats.percentile(hundred, 90) == 90.0 && Stats.percentile(hundred, 50) == 50.0 &&
        Stats.percentile(xs, 90) == 5.0 && Stats.percentile(xs, 20) == 1.0 &&
        Stats.percentile(hundred, 100) == 100.0
    }
    check("p90 is reported only with at least ten samples beyond it") {
      Stats.hasTail(100, 90) && !Stats.hasTail(99, 90) && Stats.hasTail(200, 90) && !Stats.hasTail(3, 90)
    }
    check("failed_frac counts against attempted") {
      Stats.failedFrac(0, 7) == 0.0 && Stats.failedFrac(3, 12) == 0.25 && Stats.failedFrac(5, 5) == 1.0
    }
    check("failed_frac rejects impossible counts") {
      Seq((1, 0), (-1, 3), (4, 3)).forall { case (f, a) =>
        try { Stats.failedFrac(f, a); false } catch { case _: IllegalArgumentException => true }
      }
    }
    check("relative error; non-finite estimates are infinitely wrong") {
      close(Stats.relErr(110, 100), 0.1) && close(Stats.relErr(90, 100), 0.1) &&
        Stats.relErr(Double.NaN, 1).isPosInfinity && Stats.relErr(Double.NegativeInfinity, 1).isPosInfinity
    }
    // query 0..100 ns; spans 10..40, 40..90; root self time 10 + 10 ns
    val l = Stats.Ledger(0, 100, Seq(("a", 10, 40), ("b", 40, 90)))
    check("ledger reconciliation: accounted time and unaccounted share") {
      l.total == 100 && l.accounted == 80 && close(l.unaccountedFrac, 0.2)
    }
    check("ledger reconciliation: gaps name where the root's self time went") {
      l.gaps == Seq("start..a" -> 10L, "a..b" -> 0L, "b..end" -> 10L) && l.gaps.map(_._2).sum == l.total - l.accounted
    }
    check("ledger rejects a span outside its query") {
      try { Stats.Ledger(0, 10, Seq(("a", 5, 11))); false } catch { case _: IllegalArgumentException => true }
    }
    check("spark call split into pre-job, job and post-job time") {
      Stats.splitCall(1000, 1100, Some(1020), Some(1090)) == ((20.0, 70.0, 10.0)) &&
        Stats.splitCall(1000, 1100, None, None) == ((100.0, 0.0, 0.0))
    }
    check("chain seeds differ per query and per workload seed, and repeat") {
      val s = (-3 until 50).map(Runner.chainSeed(1, _)) ++ (0 until 50).map(Runner.chainSeed(2, _))
      s.distinct.length == s.length && Runner.chainSeed(1, 7) == Runner.chainSeed(1, 7)
    }
    check("JSON numbers keep every digit and never print NaN") {
      Report.num(0.1 + 0.2) == "0.30000000000000004" && Report.num(3.0) == "3" &&
        Report.num(Double.NaN) == "null" && Report.num(1e-7) == "1.0E-7"
    }
    check("result line has exactly the contract's keys") {
      Report.result(Result(true, 2, 0, Seq(Metric("x_s", 1.5, "s")), Nil)) ==
        """{"correct": true, "attempted": 2, "failed": 0, "metrics": {"x_s": {"value": 1.5, "unit": "s"}}}"""
    }
    val dir = Files.createTempDirectory(new File(sys.props("java.io.tmpdir")).toPath, "determinism").toFile
    val log = new File(dir, "d.tsv")
    check("determinism log: first run records, same values pass, changed values are reported") {
      val rows = Seq((0, 0.125, 0.4, 1960))
      DeterminismLog.check(log, "w", 1, rows).isEmpty &&
        DeterminismLog.check(log, "w", 1, rows).isEmpty &&
        DeterminismLog.check(log, "w", 2, Seq((0, 0.5, 0.4, 1960))).isEmpty &&
        DeterminismLog.check(log, "w", 1, Seq((0, 0.125, 0.4, 1961))).length == 1
    }
    val f = new File(dir, "ref.properties")
    check("reference files round-trip; the fingerprint tells generated graphs apart") {
      val el = repro.jobs.Jobs.graph("ba:300:3:7")
      val ref = Reference("ba:300:3:7", Fingerprint.of(el), Map(1 -> (0.1 + 0.2), 5 -> 1234.5))
      Reference.write(f, ref, Seq("provenance"))
      Reference.read(f) == ref && Fingerprint.of(repro.jobs.Jobs.graph("ba:300:3:7")) == ref.fingerprint &&
        Fingerprint.of(repro.jobs.Jobs.graph("ba:300:3:8")) != ref.fingerprint
    }
    log.delete(); f.delete(); dir.delete()
  }

  private def smoke(): Unit =
    for (w0 <- Workloads.all; trace <- Seq(false, true)) {
      val w = Workloads.tiny(w0)
      check(s"smoke ${w.name} trace=$trace on ${w.spec}, T=${w.T}") {
        val r = Runner.run(w, Runner.ComputeRefs, seed = 11, seconds = 0, trace = trace, stateDir = None)
        r.notes.filter(n => n.contains("violation") || n.contains("mismatch") || n.contains("threw"))
          .foreach(n => println(s"  $n"))
        val expected = if (trace) Seq("session.start_s", "spark.job_s", "trace.overhead_frac")
                       else Seq("setup_s", "query_p50_s", "queries_per_s")
        r.correct && r.attempted >= w.minQueries && r.failed == 0 &&
          expected.forall(n => r.metrics.exists(_.name == n)) &&
          r.metrics.forall(m => !m.value.isNaN && !m.value.isInfinite)
      }
    }
}
