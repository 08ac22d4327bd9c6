package repro.graph

import java.util.BitSet
import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import repro.core.Chunks

/** Source-parallel exact Brandes on Spark (RDD layer).
  *
  * The graph (a few primitive arrays) is broadcast once; sources are an RDD
  * and each task runs the Brandes kernel (BFS or Dijkstra + accumulation)
  * locally. This is the standard way Brandes scales out (the graph fits on
  * every executor; the |V|-way source loop is what is parallelized), and it is also exactly
  * the shape of the paper's sampler workload: every MH proposal needs one
  * dependency evaluation, and proposals of an *independence* sampler are iid,
  * so a whole chain's worth of them is evaluated as one Spark job.
  */
object SparkBrandes {

  /** Exact BC of every vertex: each task sums the dependency vectors of its
    * sources, in order, with [[LocalBrandes.bc]]'s fold, and the driver sums
    * the per-partition sums in partition order, so repeated calls at one
    * partition count are bit-identical.
    */
  def bc(spark: SparkSession, g: CSRGraph, numPartitions: Int = 0): Array[Double] =
    perPartition(spark, g, Array.range(0, g.n), numPartitions)(LocalBrandes.bc(_, _))
      .foldLeft(new Array[Double](g.n))(LocalBrandes.accumulate)

  /** [[LocalBrandes.dependencyTable]] as one distributed job: the sources
    * that [[LocalBrandes.supported]] keeps are split over `numPartitions`
    * tasks (default: the session's parallelism), each task evaluates its rows
    * with [[LocalBrandes.rows]] at one worker, and the driver scatters them into the
    * table; the other sources' rows are +0.0. Every row depends only on its
    * own source, so the table is bit-identical for every partition count.
    */
  def dependencyTable(
      spark: SparkSession,
      g: CSRGraph,
      sources: BitSet,
      targets: Array[Int],
      numPartitions: Int = 0): Array[Double] =
    evaluatedTable(spark, g, sources, targets, numPartitions)._1

  /** [[dependencyTable]], and the number of Brandes passes its job ran. */
  private def evaluatedTable(spark: SparkSession, g: CSRGraph, sources: BitSet, targets: Array[Int],
                             numPartitions: Int): (Array[Double], Int) = {
    val (table, ids) = LocalBrandes.screenedTable(g, sources, targets)
    if (ids.nonEmpty) {
      val k = targets.length
      val batches = perPartition(spark, g, ids, numPartitions) { (graph, vs) =>
        val batch = vs.toArray
        val rows = new Array[Double](batch.length * k)
        LocalBrandes.rows(graph, batch, targets, rows, _ * k, 1)
        (batch, rows)
      }
      batches.foreach { case (batch, rows) =>
        var i = 0
        while (i < batch.length) { System.arraycopy(rows, i * k, table, batch(i) * k, k); i += 1 }
      }
    }
    (table, ids.length)
  }

  /** The δ table of the samplers' `runSpark` over `sources`, built on the
    * session's cores, and where it was built and how many Brandes passes it
    * ran: "driver pool, W workers, P of S sources evaluated" or "Spark job,
    * Q partitions, P of S sources evaluated". On a local master the executors
    * are the driver's own threads, so the table is built on the driver's pool
    * ([[LocalBrandes.dependencyTable]]), with no broadcast, no task launch
    * and no static split of the sources; on any other master it is one Spark
    * job ([[dependencyTable]]). Both give the same bits.
    */
  def sessionTable(spark: SparkSession, g: CSRGraph, sources: BitSet,
                   targets: Array[Int]): (Array[Double], String) = {
    val local = spark.sparkContext.isLocal
    val (table, passes) =
      if (local) LocalBrandes.evaluatedTable(g, sources, targets, Chunks.default)
      else evaluatedTable(spark, g, sources, targets, 0)
    val where =
      if (local) s"driver pool, ${Chunks.count(passes, Chunks.default)} workers"
      else s"Spark job, ${partitions(spark, passes, 0)} partitions"
    (table, s"$where, $passes of ${sources.cardinality} sources evaluated")
  }

  /** The task count of a job over `count` sources: `numPartitions`
    * (default: the session's parallelism), but no more than there are sources.
    */
  private def partitions(spark: SparkSession, count: Int, numPartitions: Int): Int =
    math.min(if (numPartitions > 0) numPartitions else spark.sparkContext.defaultParallelism, count)

  /** The one job shape of both calls above: broadcast `g`, run `task` once
    * per partition of `sources` (split into [[partitions]] tasks), and
    * collect the results in partition order. The broadcast is destroyed even
    * if the job fails.
    */
  private def perPartition[T: ClassTag](spark: SparkSession, g: CSRGraph, sources: Array[Int],
                                        numPartitions: Int)(task: (CSRGraph, Iterator[Int]) => T): Array[T] = {
    val sc = spark.sparkContext
    val bg = sc.broadcast(g)
    try sc.parallelize(ArraySeq.unsafeWrapArray(sources), partitions(spark, sources.length, numPartitions))
      .mapPartitions(vs => Iterator.single(task(bg.value, vs)))
      .collect()
    finally bg.destroy()
  }

  /** [[dependenciesOnTargets]] for one target r: the δ column δ_{v•}(r), NaN at unlisted v. */
  def dependenciesOnTarget(
      spark: SparkSession,
      g: CSRGraph,
      sources: Seq[Int],
      r: Int): Array[Double] =
    dependenciesOnTargets(spark, g, sources, Array(r))

  /** The δ table restricted to `targets` over the distinct vertices of
    * `sources`: one Brandes pass per source yields δ_{v•}(x) for *all* x
    * simultaneously, so the joint-space sampler (which needs δ_{v•}(r) for
    * every r ∈ R) costs the same per sample as the single-space one.
    */
  def dependenciesOnTargets(
      spark: SparkSession,
      g: CSRGraph,
      sources: Seq[Int],
      targets: Array[Int]): Array[Double] =
    dependencyTable(spark, g, LocalBrandes.markSources(g.n, sources), targets)
}
