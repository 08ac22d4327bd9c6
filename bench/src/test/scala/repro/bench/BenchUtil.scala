package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.MHSingle
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}
import repro.graphgen.{EdgeList, GraphGen}

/** Shared fixtures and formatting for the table benches (DESIGN.md §5).
  *
  * Heavy per-graph quantities (full dependency columns, exact BC) are
  * computed once per (graph, target) via the distributed source-parallel
  * Brandes and cached for the whole bench run; individual chains then go
  * through [[MHSingle.sample]] with the cached column as their builder, which
  * is exactly what [[MHSingle.runSpark]] computes per chain, minus redundant
  * re-BFS.
  */
object BenchUtil {

  /** The bench graph suite — synthetic stand-ins for the EDBT evaluation's
    * real networks (DESIGN.md §2).
    */
  lazy val graphs: Seq[(String, EdgeList)] = Seq(
    "BA(2000,4)" -> GraphGen.barabasiAlbert(2000, 4, 7L),
    "ER(2000,.004)" -> GraphGen.erdosRenyi(2000, 0.004, 7L),
    "WS(2000,8,.1)" -> GraphGen.wattsStrogatz(2000, 8, 0.1, 7L),
    "2Clique(500)" -> GraphGen.doubleClique(500),
  )

  private val columnCache =
    scala.collection.mutable.HashMap.empty[(String, Int), Array[Double]]

  /** Full dependency column δ_{v•}(r) for all v, distributed, cached. */
  def deltaColumn(spark: SparkSession, name: String, g: CSRGraph, r: Int): Array[Double] =
    columnCache.getOrElseUpdate((name, r),
      SparkBrandes.dependencyTable(spark, g, LocalBrandes.allSources(g.n), Array(r)))

  /** Exact BC(r) from the cached column. */
  def exactBC(spark: SparkSession, name: String, g: CSRGraph, r: Int): Double =
    deltaColumn(spark, name, g, r).sum

  /** Run a single-space chain against a cached dependency column. */
  def chain(spark: SparkSession, name: String, g: CSRGraph, r: Int, T: Int,
            seed: Long): repro.core.Chain = {
    val col = deltaColumn(spark, name, g, r)
    MHSingle.sample(g.n, r, T, seed)(_ => col)
  }

  /** Vertex of maximum degree — the "hub" probe. */
  def hub(g: CSRGraph): Int = (0 until g.n).maxBy(g.degree)

  /** Vertex whose degree is the median — the "typical" probe. */
  def medianDegreeVertex(g: CSRGraph): Int =
    (0 until g.n).sortBy(g.degree).apply(g.n / 2)

  /** Render an aligned text table (printed into bench output and transcribed
    * into EXPERIMENTS.md).
    */
  def table(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    val sep = widths.map("-" * _).mkString("  ")
    (s"\n== $title ==" +: fmt(headers) +: sep +: rows.map(fmt)).mkString("\n")
  }

  def f(x: Double, digits: Int = 4): String = s"%.${digits}f".format(x)
}
