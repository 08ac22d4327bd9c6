package repro.perfbench

import java.io.File
import repro.graph.CSRGraph
import repro.jobs.Jobs

/** Command line of the benchmark; see perfbench/README.md. */
object Main {

  val refDir = new File("perfbench/references")

  private def stateDir: Option[File] =
    sys.props.get("perfbench.state_dir").map(new File(_)).filter(_.isDirectory)

  def main(args: Array[String]): Unit = {
    val code = try {
      args.toList match {
        case "--selftest" :: Nil => SelfTest.run()
        case "--make-references" :: Nil => makeReferences(); 0
        case _ => bench(parse(args))
      }
    } catch {
      case e: IllegalArgumentException =>
        System.err.println(s"perfbench: ${e.getMessage}")
        2
      case scala.util.control.NonFatal(e) =>
        e.printStackTrace()
        1
    }
    org.apache.spark.sql.SparkSession.getDefaultSession.foreach(_.stop())
    sys.exit(code)
  }

  private def parse(args: Array[String]): Map[String, String] = {
    val usage = "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>"
    require(args.length % 2 == 0, usage)
    val m = args.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val keys = Set("--workload", "--seed", "--seconds", "--trace")
    require(m.keySet == keys, usage)
    require(Set("0", "1").contains(m("--trace")), usage)
    m
  }

  private def bench(a: Map[String, String]): Int = {
    val w = Workloads.byName(a("--workload"))
    val seed = a("--seed").toLong
    val seconds = a("--seconds").toDouble
    val trace = a("--trace") == "1"
    val ref = Reference.file(refDir, w.spec)
    require(ref.isFile, s"missing reference file $ref")
    val r = Runner.run(w, Runner.RefFiles(refDir), seed, seconds, trace, stateDir)
    println("env " + env(w, seed, seconds, trace))
    r.notes.foreach(n => println(s"${w.name}: $n"))
    println(Report.result(r))
    0
  }

  private def env(w: Workload, seed: Long, seconds: Double, trace: Boolean): String = {
    val sc = Jobs.session("perfbench").sparkContext
    Report.obj(Seq(
      "workload" -> Report.str(w.name),
      "graph" -> Report.str(w.spec),
      "T" -> w.T.toString,
      "seed" -> seed.toString,
      "seconds" -> Report.num(seconds),
      "trace" -> trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> Report.str(sc.master),
      "spark_version" -> Report.str(sc.version),
      "jvm" -> Report.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "driver_heap" -> Report.str(sys.props.getOrElse("perfbench.heap", "unset")),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "git_sha" -> Report.str(sys.props.getOrElse("perfbench.git_sha", "none")),
      "source_sha256" -> Report.str(sys.props.getOrElse("perfbench.source_sha256", "unknown")),
    ))
  }

  /** Recompute every reference file: one whole-graph exact BC per graph. */
  private def makeReferences(): Unit = {
    val spark = Jobs.session("perfbench")
    for ((spec, ws) <- Workloads.all.groupBy(_.spec).toSeq.sortBy(_._1)) {
      val el = Jobs.graph(spec)
      val g = CSRGraph.fromEdges(el)
      val probes = ws.flatMap(_.probes(g)).distinct.sorted
      val t = System.nanoTime()
      val ref = Reference.compute(spark, spec, el, g, probes)
      val s = (System.nanoTime() - t) / 1e9
      val f = Reference.file(refDir, spec)
      Reference.write(f, ref, Seq(
        s"Exact ordered-pair betweenness (bc.<vertex>) of the probe vertices of the",
        s"workloads ${ws.map(_.name).mkString(", ")}, on graph $spec.",
        f"Computed by one whole-graph SparkBrandes.bc on ${spark.sparkContext.master} ($s%.0f s).",
        "Produced by: bash perfbench/run.sh --make-references",
      ))
      println(f"wrote $f (${probes.length} probes, $s%.1f s)")
    }
  }
}
