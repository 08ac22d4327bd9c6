package repro.perfbench

/** JSON rendering of results, and the seed ledger entry. */
object Report {

  /** A JSON number with all its digits; non-finite values become null. */
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) "null"
    else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
    else java.lang.Double.toString(x)

  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  /** The contract's result line. */
  def result(r: Result): String = obj(Seq(
    "correct" -> r.correct.toString,
    "attempted" -> r.attempted.toString,
    "failed" -> r.failed.toString,
    "metrics" -> obj(r.metrics.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit))))),
  ))
}

/** The traced run's numbers set against the baseline table measured when the
  * roadmap was written (4 cores, BA(n,4), warm JIT), so later changes can be
  * compared with it row by row.
  */
object BaselineLedger {

  /** (row, value from the traced metrics, baseline by graph size n). */
  private val rows: Seq[(String, Map[String, Double] => Double, Map[Int, Double])] = Seq(
    ("local LocalBrandes.dependency us/source", _("kernel.local_us_per_source"),
      Map(2000 -> 319, 10000 -> 1498)),
    ("local kernel ns/arc", m => m("kernel.bfs_ns_per_arc") + m("kernel.sweep_ns_per_arc"),
      Map(2000 -> 19.9, 10000 -> 18.7)),
    ("backward-sweep share of kernel",
      m => m("kernel.sweep_ns_per_arc") / (m("kernel.bfs_ns_per_arc") + m("kernel.sweep_ns_per_arc")),
      Map(10000 -> 0.52)),
    ("SparkBrandes.dependenciesOnTarget us/source", _("spark.us_per_source"),
      Map(2000 -> 232, 10000 -> 903)),
    ("fixed cost of a 1-source Spark job ms", _("spark.job_overhead_ms"),
      Map(2000 -> 75, 10000 -> 59)),
    ("walk ns/step (baseline: MHSingle.walk, T=1e5, cached column)", _("sampler.walk_ns_per_step"),
      Map(2000 -> 739, 10000 -> 278)),
    ("estimator ms (baseline: estimateHarmonic, T=1e5)", m => m("estimator.query_s") * 1000,
      Map(2000 -> 112, 10000 -> 38)),
  )

  def line(n: Int, metrics: Seq[Metric]): String = {
    val m = metrics.map(x => x.name -> x.value).toMap
    val entries = rows.map { case (name, f, base) =>
      name -> Report.obj(Seq("value" -> Report.num(f(m)), "baseline" -> base.get(n).fold("null")(Report.num)))
    }
    "ledger " + Report.obj(Seq("n" -> n.toString, "rows" -> Report.obj(entries)))
  }
}
