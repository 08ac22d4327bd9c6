package repro.perfbench

import java.io.{File, FileInputStream, FileOutputStream, OutputStreamWriter}
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import java.util.Properties
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, SparkBrandes}
import repro.graphgen.EdgeList

/** A generated graph's identity: vertex count, edge count and a SHA-256 of
  * the canonical edge list. References are valid only for the graph that
  * has this fingerprint.
  */
final case class Fingerprint(n: Int, m: Int, sha256: String)

object Fingerprint {
  def of(el: EdgeList): Fingerprint = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    buf.putInt(el.n).putInt(el.numEdges)
    md.update(buf.array())
    el.edges.foreach { case (u, v) =>
      buf.clear(); buf.putInt(u).putInt(v); md.update(buf.array())
    }
    Fingerprint(el.n, el.numEdges, md.digest().map("%02x".format(_)).mkString)
  }
}

/** Exact ordered-pair betweenness of the probe vertices of one graph, with
  * the fingerprint of the graph it was computed on.
  */
final case class Reference(spec: String, fingerprint: Fingerprint, bc: Map[Int, Double]) {
  def apply(v: Int): Double =
    bc.getOrElse(v, throw new NoSuchElementException(s"no exact reference for vertex $v of $spec"))
}

object Reference {

  /** Exact BC of `probes` from one whole-graph [[SparkBrandes.bc]]. */
  def compute(spark: SparkSession, spec: String, el: EdgeList, g: CSRGraph,
              probes: Seq[Int]): Reference = {
    val all = SparkBrandes.bc(spark, g)
    Reference(spec, Fingerprint.of(el), probes.distinct.map(v => v -> all(v)).toMap)
  }

  def file(dir: File, spec: String): File = new File(dir, spec.replace(':', '-') + ".properties")

  def write(f: File, ref: Reference, provenance: Seq[String]): Unit = {
    val lines = provenance.map("# " + _) ++ Seq(
      s"graph=${ref.spec}",
      s"n=${ref.fingerprint.n}",
      s"m=${ref.fingerprint.m}",
      s"edges.sha256=${ref.fingerprint.sha256}",
    ) ++ ref.bc.toSeq.sortBy(_._1).map { case (v, b) => s"bc.$v=${java.lang.Double.toString(b)}" }
    val w = new OutputStreamWriter(new FileOutputStream(f), UTF_8)
    try w.write(lines.mkString("", "\n", "\n")) finally w.close()
  }

  def read(f: File): Reference = {
    val p = new Properties()
    val in = new FileInputStream(f)
    try p.load(in) finally in.close()
    def get(k: String) = Option(p.getProperty(k)).getOrElse(sys.error(s"$f: missing key $k"))
    val bc = p.stringPropertyNames().asScala.collect {
      case k if k.startsWith("bc.") => k.stripPrefix("bc.").toInt -> get(k).toDouble
    }.toMap
    Reference(get("graph"), Fingerprint(get("n").toInt, get("m").toInt, get("edges.sha256")), bc)
  }
}
