package repro.jobs

import repro.graph.SparkBrandes

/** spark-submit entrypoint: exact betweenness of every vertex of a generated
  * graph via the source-parallel distributed Brandes.
  *
  * Usage: RunExactBC <graph-spec> [topK]
  * e.g.   RunExactBC ba:2000:4:7 10
  */
object RunExactBC {
  def main(args: Array[String]): Unit = {
    val usage = "usage: RunExactBC <graph-spec> [topK]"
    require(args.nonEmpty, usage)
    val topK = if (args.length > 1) Jobs.field(usage, "topK", args(1))(_.toInt) else 10
    val spark = Jobs.session("RunExactBC")
    try {
      val g = Jobs.csr(args(0))
      val bc = SparkBrandes.bc(spark, g)
      println(s"graph=${args(0)} n=${g.n} m=${g.m}")
      bc.zipWithIndex.sortBy(-_._1).take(topK).foreach { case (score, v) =>
        println(f"v=$v%6d  BC=$score%.4f")
      }
    } finally spark.stop()
  }
}
