package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}

/** The driver's one thread source: O(T) driver loops split their index range
  * into contiguous chunks and run them on the JVM's common ForkJoin pool, the
  * calling thread working chunk 0, and a local δ-table build runs one worker
  * per chunk. Every such loop gives the same bits at any chunk count, so one
  * chunk is the plain sequential loop.
  */
private[repro] object Chunks {

  /** The chunk count the public paths use: one per pool worker plus the caller. */
  def default: Int = ForkJoinPool.getCommonPoolParallelism + 1

  /** The chunk count actually used for `total` items: `chunks`, but at least
    * one and no more than there are items.
    */
  def count(total: Int, chunks: Int): Int = math.max(1, math.min(chunks, total))

  /** First index of chunk c of `total` items in k chunks; chunk c is
    * `start(total, k, c) until start(total, k, c + 1)`.
    */
  def start(total: Int, k: Int, c: Int): Int = (total.toLong * c / k).toInt

  /** Runs body(0), …, body(k − 1): chunk 0 on the calling thread, the others
    * on the common pool, returning when all are done. A body must not throw:
    * the pool rewraps exceptions, so a failure is recorded and raised by the
    * caller.
    */
  def run(k: Int)(body: Int => Unit): Unit = {
    val pool = ForkJoinPool.commonPool()
    val tasks = Array.tabulate(k - 1)(c => pool.submit(new Runnable { def run(): Unit = body(c + 1) }))
    body(0)
    tasks.foreach(_.join())
  }

  /** Starts `body` on the common pool and returns its join, which waits for
    * the result. The body must not throw, as for [[run]].
    */
  def fork[A](body: => A): () => A = {
    val task = ForkJoinPool.commonPool().submit(new Callable[A] { def call(): A = body })
    () => task.join()
  }
}
