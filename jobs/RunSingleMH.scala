package repro.jobs

import repro.core.MHSingle
import repro.graph.SparkBrandes

/** spark-submit entrypoint: estimate BC(r) with the single-space MH sampler
  * (§4.2), the δ column built on the session's cores as `runSpark` builds it;
  * the result line names the builder and its wall time.
  *
  * Usage: RunSingleMH <graph-spec> <r> <T> [seed]
  * e.g.   RunSingleMH ba:2000:4:7 0 5000 42
  */
object RunSingleMH {
  def main(args: Array[String]): Unit = {
    val usage = "usage: RunSingleMH <graph-spec> <r> <T> [seed]"
    require(args.length >= 3, usage)
    val r = Jobs.field(usage, "r", args(1))(_.toInt)
    val T = Jobs.field(usage, "T", args(2))(_.toInt)
    val seed = if (args.length > 3) Jobs.field(usage, "seed", args(3))(_.toLong) else 42L
    val spark = Jobs.session("RunSingleMH")
    try {
      val g = Jobs.csr(args(0))
      var table = ""
      // runSpark's chain, with its table build reported
      val chain = MHSingle.sample(g.n, r, T, seed)(Jobs.reportingTable(spark, g, Array(r))(table = _))
      val exact = SparkBrandes.bc(spark, g)(r)
      println(s"graph=${args(0)} n=${g.n} m=${g.m} r=$r T=$T seed=$seed")
      println(f"acceptanceRate=${chain.acceptanceRate}%.4f table=$table")
      println(f"exact BC(r)          = $exact%.4f")
      println(f"estimate (harmonic)  = ${chain.estimateHarmonic}%.4f")
      println(f"estimate (eq7)       = ${chain.estimateEq7}%.6f")
      println(f"ergodic mean delta   = ${chain.ergodicMeanDelta}%.4f")
    } finally spark.stop()
  }
}
