package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}

/** A timed interval of one layer call inside one query. */
final case class Span(query: Int, name: String, parent: String, startNs: Long, endNs: Long)

/** In-memory span recorder; spans are written out when the run ends. */
final class Tracer {
  val spans = ArrayBuffer.empty[Span]
  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nanos0 = System.nanoTime()

  /** A `System.nanoTime` reading as ms since the epoch, the clock of Spark's
    * scheduler events.
    */
  def epochMs(ns: Long): Double = epochMs0 + (ns - nanos0) / 1e6

  def span[A](query: Int, name: String, parent: String = "query")(f: => A): A = {
    val s = System.nanoTime()
    val a = f
    spans += Span(query, name, parent, s, System.nanoTime())
    a
  }

  /** The direct children of one query's root span, as a ledger. */
  def ledger(query: Int): Stats.Ledger = {
    val mine = spans.filter(_.query == query)
    val root = mine.find(_.name == "query").getOrElse(sys.error(s"query $query has no root span"))
    Stats.Ledger(root.startNs, root.endNs,
      mine.filter(_.parent == "query").map(s => (s.name, s.startNs, s.endNs)).toSeq)
  }

  def toJsonLines: Seq[String] = spans.toSeq.map { s =>
    s"""{"query":${s.query},"name":"${s.name}","parent":"${s.parent}","start_ns":${s.startNs},"end_ns":${s.endNs}}"""
  }
}

/** What the Spark scheduler reported for the jobs of one layer call. */
final case class JobStats(jobs: Int, firstStartMs: Option[Double], lastEndMs: Option[Double],
                          taskBusyMs: Long, resultBytes: Long)

/** Collects job and task events; `take` returns what arrived since the last
  * `take`, after the listener bus has delivered every posted event.
  */
final class JobListener(sc: SparkContext) extends SparkListener {
  private var jobs = 0
  private var firstStart = Option.empty[Double]
  private var lastEnd = Option.empty[Double]
  private var busyMs = 0L
  private var resultBytes = 0L

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    firstStart = Some(firstStart.fold(e.time.toDouble)(math.min(_, e.time.toDouble)))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    lastEnd = Some(lastEnd.fold(e.time.toDouble)(math.max(_, e.time.toDouble)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null) {
      busyMs += e.taskMetrics.executorRunTime
      resultBytes += e.taskMetrics.resultSize
    }
  }

  def take(): JobStats = {
    ListenerBusAccess.drain(sc)
    synchronized {
      val out = JobStats(jobs, firstStart, lastEnd, busyMs, resultBytes)
      jobs = 0; firstStart = None; lastEnd = None; busyMs = 0; resultBytes = 0
      out
    }
  }
}

/** JVM-wide garbage-collection time and heap high-water mark. */
object Jvm {
  /** Heap pools but eden: what outlived a young collection, or was allocated
    * straight into the old generation. Eden's peak only shows the young
    * generation's size.
    */
  private def heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && !p.getName.contains("Eden"))

  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def resetHeapPeak(): Unit = heapPools.foreach(_.resetPeakUsage())

  /** Sum of those pools' peaks since the last reset (an upper bound on the
    * peak of their sum).
    */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
