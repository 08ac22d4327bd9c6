package repro.perfbench

/** Arithmetic the benchmark reports; pure, so `SelfTest` can pin it. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val k = s.length / 2
    if (s.length % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  /** Nearest-rank percentile: the smallest value with at least p% of the
    * values at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no values")
    require(p > 0 && p <= 100, s"percentile must be in (0, 100], got $p")
    val s = xs.sorted
    s(math.ceil(p / 100 * s.length).toInt - 1)
  }

  /** Whether at least ten samples lie above the p-th percentile, so that the
    * percentile is worth reporting.
    */
  def hasTail(count: Int, p: Double): Boolean =
    count - math.ceil(p / 100 * count).toInt >= 10

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no values")
    xs.sum / xs.length
  }

  /** Share of attempted queries that failed. */
  def failedFrac(failed: Int, attempted: Int): Double = {
    require(attempted > 0 && failed >= 0 && failed <= attempted,
      s"failed=$failed of attempted=$attempted")
    failed.toDouble / attempted
  }

  /** |estimate - exact| / exact, or +Inf when the estimate is not finite. */
  def relErr(estimate: Double, exact: Double): Double = {
    require(exact > 0, s"exact value must be positive, got $exact")
    if (estimate.isNaN || estimate.isInfinite) Double.PositiveInfinity
    else math.abs(estimate - exact) / exact
  }

  /** How many times off an estimate is, either way: max(est/exact, exact/est);
    * +Inf when the estimate is not a positive finite number.
    */
  def factorErr(estimate: Double, exact: Double): Double = {
    require(exact > 0, s"exact value must be positive, got $exact")
    if (!(estimate > 0) || estimate.isInfinite) Double.PositiveInfinity
    else math.max(estimate / exact, exact / estimate)
  }

  /** One query's time split into layer spans. `spans` are the direct
    * children of the query's root span, as (name, start, end) in ns, in call
    * order; the root runs from `start` to `end`.
    */
  final case class Ledger(start: Long, end: Long, spans: Seq[(String, Long, Long)]) {
    require(end >= start, "query ends before it starts")
    spans.foreach { case (n, s, e) =>
      require(s >= start && e <= end && e >= s, s"span $n lies outside its query")
    }

    def total: Long = end - start

    def accounted: Long = spans.map { case (_, s, e) => e - s }.sum

    /** 1 - sum of layer times / query time: the root's self time share. */
    def unaccountedFrac: Double =
      if (total == 0) 0.0 else 1.0 - accounted.toDouble / total

    /** Gaps of the root's self time, named by the spans they sit between. */
    def gaps: Seq[(String, Long)] = {
      val names = "start" +: spans.map(_._1) :+ "end"
      val edges = (start -> start) +: spans.map { case (_, s, e) => s -> e } :+ (end -> end)
      edges.sliding(2).zip(names.sliding(2)).map { case (Seq(a, b), Seq(na, nb)) =>
        s"$na..$nb" -> (b._1 - a._2)
      }.toSeq
    }
  }

  /** Split of a Spark call into pre-job, job and post-job time, from the call's
    * wall interval and the first job start / last job end (all ms since the
    * epoch). Without any job the whole call counts as pre-job.
    */
  def splitCall(callStartMs: Double, callEndMs: Double,
                jobStartMs: Option[Double], jobEndMs: Option[Double]): (Double, Double, Double) =
    (jobStartMs, jobEndMs) match {
      case (Some(js), Some(je)) =>
        val pre = math.max(0.0, js - callStartMs)
        val job = math.max(0.0, je - math.max(js, callStartMs))
        (pre, job, math.max(0.0, callEndMs - callStartMs - pre - job))
      case _ => (callEndMs - callStartMs, 0.0, 0.0)
    }
}
