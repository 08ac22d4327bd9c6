package repro.core

import java.util.BitSet
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}

/** One realized run of the single-space sampler.
  *
  * @param r         target vertex whose betweenness is being estimated
  * @param n         |V(G)|
  * @param seed      RNG seed (chains are pure functions of (graph, r, T, seed))
  * @param states    chain state at every iteration t = 0..T (length T+1)
  * @param proposals vertex proposed at iteration t = 1..T (length T)
  * @param accepted  whether iteration t's proposal was accepted (length T)
  * @param delta     the δ column (length n): δ_{v•}(r) for every vertex that
  *                  appeared as state/proposal, NaN ("not evaluated") elsewhere
  */
final case class Chain(
    r: Int,
    n: Int,
    seed: Long,
    states: Array[Int],
    proposals: Array[Int],
    accepted: Array[Boolean],
    delta: Array[Double]) {

  def T: Int = proposals.length

  def acceptanceRate: Double = if (T == 0) 0.0 else accepted.count(identity).toDouble / T

  /** Paper's estimator, Eq. 7, reading M as the multiset of chain states
    * (consistent with Theorem 1's n = T+1 samples):
    * B̈C(r) = 1/((T+1)(|V|−1)) Σ_t δ_{X_t•}(r).
    */
  def estimateEq7: Double = stateDeltaSum / ((T + 1).toDouble * (n - 1).toDouble)

  /** Plain ergodic average of δ over the chain — the π_r-mean E_π[δ] that
    * Eq. 7 (up to its 1/(|V|−1) factor) converges to; reported in benches to
    * make the Eq.-7 normalization gap visible.
    */
  def ergodicMeanDelta: Double = stateDeltaSum / (T + 1).toDouble

  /** Σ_t δ_{X_t•}(r), summed in chain order. */
  private def stateDeltaSum: Double = {
    var s = 0.0
    var t = 0
    while (t < states.length) { s += delta(states(t)); t += 1 }
    s
  }

  /** Self-normalized (harmonic-mean) estimator of the normalizing constant
    * BC(r) = Σ_v δ_{v•}(r): since E_{π_r}[1/δ] = |supp(δ)| / BC(r),
    * B̂C(r) = ŝupp / mean_t(1/δ_{X_t}). The support size is estimated for
    * free from the same run — proposals (and the initial state) are iid
    * uniform draws, so the fraction with δ > 0 estimates |supp|/|V|
    * unbiasedly. This is the estimator that makes the paper's chain actually
    * deliver BC(r); see DESIGN.md §1.
    */
  def estimateHarmonic: Double = {
    // the uniform draws are the initial state and the proposals; a draw whose
    // δ was never evaluated makes the estimate NaN rather than a silent count
    val d0 = delta(states(0))
    if (d0.isNaN) return Double.NaN
    // 1/δ once per vertex, and 0 off the support, where adding +0.0 leaves
    // the sum's bits as they are: the serial loop below adds the same terms
    // in the same order as dividing at every state
    val inv = new Array[Double](n)
    var v = 0
    while (v < n) { val d = delta(v); if (d > 0.0) inv(v) = 1.0 / d; v += 1 }
    // the calling thread sums over the states, in chain order, while the
    // pool counts the positive proposals (an integer: any order will do)
    val k = Chunks.count(T, Chunks.default - 1)
    val positive = new Array[Int](k) // δ > 0 among chunk c's proposals, −1 once one is unevaluated
    var invSum = 0.0
    var inSupport = 0
    Chunks.run(k + 1) { c =>
      if (c == 0) {
        var sum = 0.0
        var count = 0
        var t = 0
        while (t <= T) { val s = states(t); sum += inv(s); if (delta(s) > 0.0) count += 1; t += 1 }
        invSum = sum
        inSupport = count
      } else {
        var p = 0
        var t = Chunks.start(T, k, c - 1)
        val end = Chunks.start(T, k, c)
        while (t < end && p >= 0) {
          val d = delta(proposals(t))
          if (d > 0.0) p += 1 else if (d.isNaN) p = -1
          t += 1
        }
        positive(c - 1) = p
      }
    }
    if (positive.contains(-1)) return Double.NaN
    val suppHat = n.toDouble * (positive.sum + (if (d0 > 0.0) 1 else 0)) / (T + 1)
    if (inSupport == 0 || suppHat == 0.0) 0.0
    else suppHat / (invSum / inSupport)
  }
}

/** The single-space Metropolis-Hastings sampler of §4.2: an Independence MH
  * chain on V(G) with uniform proposals and acceptance
  * min{1, δ_{v'•}(r)/δ_{v•}(r)} (Eq. 6), whose stationary distribution is the
  * optimal sampling distribution π_r of Eq. 5.
  *
  * Because the proposal distribution does not depend on the current state,
  * the whole proposal stream is drawn up front and every needed dependency
  * score δ_{v•}(r) is evaluated as **one Spark job** over the distinct
  * proposed vertices ([[SparkBrandes.dependencyTable]]), into a dense δ
  * column; the O(T) accept/reject walk then runs on the driver. The local
  * path differs only in building the column with
  * [[LocalBrandes.dependencyTable]], so both are bit-for-bit identical for the
  * same seed.
  *
  * The driver's O(T) work — the draw, the walk and the harmonic estimator's
  * support count — runs in chunks on the JVM's common ForkJoin pool with the
  * calling thread as one worker ([[Chunks]]), and gives the same bits as one
  * sequential loop: the draw jumps the LCG ahead to each chunk's start, and
  * the walk stitches its chunks with the coupling described at
  * [[independenceWalk]].
  */
object MHSingle {

  /** Draw the initial state and the T uniform proposals for a given seed. */
  def drawProposals(n: Int, T: Int, seed: Long): (Int, Array[Int]) = {
    val rnd = new Lcg(seed)
    val v0 = rnd.nextInt(n)
    val props = new Array[Int](T)
    rnd.fillInts(props, n, Chunks.default)
    (v0, props)
  }

  /** Accept/reject walk over a δ column (length n, see [[Chain.delta]]).
    *
    * Zero-score convention: from a state with δ = 0 every proposal is
    * accepted (ratio treated as 1 or ∞), and a proposal with δ = 0 is never
    * accepted from a state with δ > 0 (min{1, 0/δ} = 0) — so the chain
    * enters supp(δ) and never leaves it.
    *
    * @throws NoSuchElementException if the column has no δ for v0 or for a
    *   proposal; it names v0, or else the first such proposal in chain order
    */
  def walk(r: Int, n: Int, seed: Long, v0: Int, proposals: Array[Int],
           delta: Array[Double]): Chain = {
    require(delta.length == n, s"delta column has length ${delta.length}, expected n=$n")
    val (states, accepted) = independenceWalk(seed, v0, proposals, delta, 1, Chunks.default)
    Chain(r, n, seed, states, proposals, accepted, delta)
  }

  /** The one Independence-MH accept/reject loop of both samplers, over flat
    * states s indexing `weight`, which holds `width` entries per source vertex
    * s / width. Conventions and failure as in [[walk]]; returns (states,
    * accepted), the same bits at every chunk count.
    *
    * The walk runs in `chunks` chunks of steps at once, because copies of an
    * independence chain started from different states merge at the first
    * proposal that every state accepts (the coupling behind perfect sampling
    * for IMH, Corcoran & Tweedie 2002). With δ_max the largest evaluated
    * weight, step t's proposal p is accepted from every state when
    * u_t < δ(p)/δ_max: from a state with δ = 0 always, and from one with
    * 0 < δ ≤ δ_max because correctly rounded division is monotone, so
    * δ(p)/δ ≥ δ(p)/δ_max. That has probability E[δ]/δ_max = 1/μ(r) per step
    * (the quantity of Theorem 1; Mengersen & Tweedie 1996). Each chunk but
    * the first looks for its first such step τ and walks from τ to its end,
    * as the first chunk walks from s0, all on [[Chunks]]; then one
    * sequential pass walks each chunk's steps before τ from the previous
    * chunk's end state. A chunk with no such step (δ_max = 0, or μ(r) about
    * the chunk length or more) is walked whole in that pass: the same bits,
    * only not faster. The u_t come from one stream, each chunk's jumped
    * ahead to its first step.
    */
  private[core] def independenceWalk(seed: Long, s0: Int, proposals: Array[Int], weight: Array[Double],
                                     width: Int, chunks: Int): (Array[Int], Array[Boolean]) = {
    val T = proposals.length
    val states = new Array[Int](T + 1)
    val accepted = new Array[Boolean](T)
    states(0) = s0
    if (weight(s0).isNaN) unevaluated(s0 / width)
    val dmax = couplingBound(weight)
    val k = Chunks.count(T, chunks)
    def lo(c: Int): Int = Chunks.start(T, k, c)
    val tau = new Array[Int](k) // c ≥ 1: chunk c's first step that every state accepts, lo(c + 1) if none
    val missing = new Array[Int](k) // chunk c's first step with an unevaluated proposal, lo(c + 1) if none
    Chunks.run(k) { c =>
      val hi = lo(c + 1)
      val rnd = stream(seed, lo(c))
      if (c == 0) missing(c) = steps(rnd, lo(c), hi, s0, proposals, weight, states, accepted)
      else {
        var t = lo(c)
        var found = false
        var nan = false
        while (t < hi && !found && !nan) {
          val dp = weight(proposals(t))
          if (dp.isNaN) nan = true
          else { found = rnd.nextDouble() < dp / dmax; t += 1 }
        }
        if (found) {
          tau(c) = t - 1
          accepted(t - 1) = true
          states(t) = proposals(t - 1)
          missing(c) = steps(rnd, t, hi, proposals(t - 1), proposals, weight, states, accepted)
        } else {
          tau(c) = hi
          missing(c) = if (nan) t else hi
        }
      }
    }
    var c = 0
    while (c < k) {
      if (missing(c) < lo(c + 1)) unevaluated(proposals(missing(c)) / width)
      c += 1
    }
    c = 1
    while (c < k) {
      steps(stream(seed, lo(c)), lo(c), tau(c), states(lo(c)), proposals, weight, states, accepted)
      c += 1
    }
    (states, accepted)
  }

  /** Steps `from until to` of the walk, from state `start` and drawing from
    * `rnd`: writes accepted(t) and states(t + 1), and returns the first step
    * whose proposal is unevaluated, or `to`.
    */
  private def steps(rnd: Lcg, from: Int, to: Int, start: Int, proposals: Array[Int], weight: Array[Double],
                    states: Array[Int], accepted: Array[Boolean]): Int = {
    var cur = start
    var dc = weight(cur)
    var t = from
    while (t < to) {
      val prop = proposals(t)
      val dp = weight(prop)
      if (dp.isNaN) return t
      val ratio = if (dc == 0.0) 1.0 else dp / dc
      val acc = rnd.nextDouble() < math.min(1.0, ratio)
      if (acc) { cur = prop; dc = dp }
      accepted(t) = acc
      states(t + 1) = cur
      t += 1
    }
    to
  }

  /** The walk's uniform draws from step t on: its stream jumped t draws
    * (2t outputs) ahead. The stream is separate from [[drawProposals]]'.
    */
  private def stream(seed: Long, t: Int): Lcg = {
    val rnd = new Lcg(seed ^ 0x5DEECE66DL)
    rnd.skip(2L * t)
    rnd
  }

  /** The largest evaluated weight, δ_max of the coupling. NaN, which couples
    * no step, if a weight is negative: dependencies never are, but a caller's
    * column could be, and the bound then proves nothing.
    */
  private def couplingBound(weight: Array[Double]): Double = {
    var max = 0.0
    var i = 0
    while (i < weight.length) {
      val w = weight(i)
      if (w > max) max = w else if (w < 0.0) return Double.NaN
      i += 1
    }
    max
  }

  private def unevaluated(v: Int): Nothing =
    throw new NoSuchElementException(s"the dependency of source $v was not evaluated")

  /** Run fully locally (exact dependency kernel, one pass per distinct source). */
  def run(g: CSRGraph, r: Int, T: Int, seed: Long): Chain =
    sample(g.n, r, T, seed)(LocalBrandes.dependencyTable(g, _, Array(r)))

  /** Run with the dependency evaluations distributed over Spark. */
  def runSpark(spark: SparkSession, g: CSRGraph, r: Int, T: Int, seed: Long): Chain =
    sample(g.n, r, T, seed)(SparkBrandes.dependencyTable(spark, g, _, Array(r)))

  /** The one seed → chain path: draw, mark the distinct sources, build their
    * δ column with `column` (length n, δ_{v•}(r) at every marked v, other
    * entries never read), walk. [[run]]/[[runSpark]] pass the local/Spark
    * table builder; a caller holding a cached column passes `_ => column`.
    */
  def sample(n: Int, r: Int, T: Int, seed: Long)(column: BitSet => Array[Double]): Chain = {
    require(r >= 0 && r < n, s"target r=$r is not a vertex of a graph with n=$n vertices")
    require(T >= 0, s"chain length T=$T must be non-negative")
    val (v0, props) = drawProposals(n, T, seed)
    walk(r, n, seed, v0, props, column(LocalBrandes.markSources(n, v0, props)))
  }
}
