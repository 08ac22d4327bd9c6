package repro.jobs

import repro.core.MHJoint
import repro.graph.SparkBrandes

/** spark-submit entrypoint: estimate all pairwise BC ratios of a probe set R
  * with the joint-space MH sampler (§4.3), the δ table built as `runSpark`
  * builds it; the result line names the builder and its wall time.
  *
  * Usage: RunJointMH <graph-spec> <r1,r2,...> <T> [seed]
  * e.g.   RunJointMH ba:2000:4:7 0,1,2,3 20000 42
  */
object RunJointMH {
  def main(args: Array[String]): Unit = {
    val usage = "usage: RunJointMH <graph-spec> <r1,r2,...> <T> [seed]"
    require(args.length >= 3, usage)
    val R = Jobs.field(usage, "R", args(1))(_.split(",").map(_.toInt))
    val T = Jobs.field(usage, "T", args(2))(_.toInt)
    val seed = if (args.length > 3) Jobs.field(usage, "seed", args(3))(_.toLong) else 42L
    val spark = Jobs.session("RunJointMH")
    try {
      val g = Jobs.csr(args(0))
      var table = ""
      // runSpark's chain, with its table build reported
      val chain = MHJoint.sample(g.n, R, T, seed)(Jobs.reportingTable(spark, g, R)(table = _))
      val bc = SparkBrandes.bc(spark, g)
      println(s"graph=${args(0)} n=${g.n} m=${g.m} R=${R.mkString(",")} T=$T seed=$seed")
      println(f"acceptanceRate=${chain.acceptanceRate}%.4f table=$table")
      for (i <- R.indices; j <- R.indices if i != j) {
        val est = chain.ratioEstimate(i, j)
        val tru = bc(R(i)) / bc(R(j))
        println(f"BC(${R(i)})/BC(${R(j)}): est=$est%.4f exact=$tru%.4f " +
          f"relEst=${chain.relativeEstimate(i, j)}%.4f")
      }
    } finally spark.stop()
  }
}
