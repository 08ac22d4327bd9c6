package org.apache.spark

/** Spark's listener bus delivers events asynchronously; its drain hook is
  * package-private, so the benchmark reaches it from here.
  */
object ListenerBusAccess {

  /** Block until every event posted so far has reached the listeners. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(10000L)
}
