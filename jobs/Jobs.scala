package repro.jobs

import java.util.BitSet
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, SparkBrandes}
import repro.graphgen.{EdgeList, GraphGen}

/** Shared helpers for the spark-submit entrypoints. */
object Jobs {

  def session(name: String): SparkSession = {
    // spark-submit injects spark.master as a system property; default to
    // local[*] so the mains also run under `sbt runMain`.
    val master = sys.props.get("spark.master")
      .orElse(sys.env.get("SPARK_MASTER"))
      .getOrElse("local[*]")
    val s = SparkSession.builder.appName(name).master(master)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The graph specs [[graph]] accepts. */
  val graphSpecs: String = "ba:<n>:<m>:<seed>, er:<n>:<p>:<seed>, ws:<n>:<k>:<beta>:<seed>, " +
    "barbell:<k>:<len>, doubleclique:<k>, path:<n>, grid:<rows>:<cols>, karate"

  /** Parse a graph spec like `ba:2000:4:7`, `er:2000:0.004:7`, `ws:2000:8:0.1:7`,
    * `barbell:500:3`, `doubleclique:500`, `path:100`, `karate`.
    *
    * @throws IllegalArgumentException naming the bad field and the accepted
    *   forms, for an unknown spec or a field that does not parse
    */
  def graph(spec: String): EdgeList = {
    val usage = s"graph spec '$spec'; accepted forms: $graphSpecs"
    def int(name: String, value: String) = field(usage, name, value)(_.toInt)
    def long(name: String, value: String) = field(usage, name, value)(_.toLong)
    def double(name: String, value: String) = field(usage, name, value)(_.toDouble)
    spec.split(":").toList match {
      case "ba" :: n :: m :: seed :: Nil       =>
        GraphGen.barabasiAlbert(int("n", n), int("m", m), long("seed", seed))
      case "er" :: n :: p :: seed :: Nil       =>
        GraphGen.erdosRenyi(int("n", n), double("p", p), long("seed", seed))
      case "ws" :: n :: k :: b :: seed :: Nil  =>
        GraphGen.wattsStrogatz(int("n", n), int("k", k), double("beta", b), long("seed", seed))
      case "barbell" :: k :: len :: Nil        => GraphGen.barbell(int("k", k), int("len", len))
      case "doubleclique" :: k :: Nil          => GraphGen.doubleClique(int("k", k))
      case "path" :: n :: Nil                  => GraphGen.path(int("n", n))
      case "grid" :: r :: c :: Nil             => GraphGen.grid(int("rows", r), int("cols", c))
      case "karate" :: Nil                     => GraphGen.karateClub
      case _ => throw new IllegalArgumentException(s"unknown $usage")
    }
  }

  /** One field of a command line or graph spec, parsed by `parse`.
    *
    * @throws IllegalArgumentException naming the field, its value and `usage`
    *   when the value does not parse
    */
  def field[A](usage: String, name: String, value: String)(parse: String => A): A =
    try parse(value)
    catch { case _: NumberFormatException => throw new IllegalArgumentException(s"bad $name '$value'; $usage") }

  def csr(spec: String): CSRGraph = CSRGraph.fromEdges(graph(spec))

  /** The samplers' `runSpark` table builder ([[SparkBrandes.sessionTable]]),
    * which also passes `report` where the table was built, the Brandes passes
    * it ran and its wall time, as "driver pool, 4 workers, 452 of 2000
    * sources evaluated, 0.009 s", for a job's result line.
    */
  def reportingTable(spark: SparkSession, g: CSRGraph, targets: Array[Int])
                    (report: String => Unit): BitSet => Array[Double] = { sources =>
    val start = System.nanoTime
    val (table, where) = SparkBrandes.sessionTable(spark, g, sources, targets)
    report(f"$where, ${(System.nanoTime - start) / 1e9}%.3f s")
    table
  }
}
