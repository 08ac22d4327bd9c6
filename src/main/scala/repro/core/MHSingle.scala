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
    var positive = if (d0 > 0.0) 1 else 0
    var t = 0
    while (t < T) {
      val d = delta(proposals(t))
      if (d > 0.0) positive += 1 else if (d.isNaN) return Double.NaN
      t += 1
    }
    val suppHat = n.toDouble * positive / (T + 1)
    var invSum = 0.0
    var inSupport = 0
    t = 0
    while (t <= T) {
      val d = delta(states(t))
      if (d > 0.0) { invSum += 1.0 / d; inSupport += 1 }
      t += 1
    }
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
  */
object MHSingle {

  /** Draw the initial state and the T uniform proposals for a given seed. */
  def drawProposals(n: Int, T: Int, seed: Long): (Int, Array[Int]) = {
    val rnd = new Lcg(seed)
    val v0 = rnd.nextInt(n)
    val props = new Array[Int](T)
    var t = 0
    while (t < T) { props(t) = rnd.nextInt(n); t += 1 }
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
    *   proposal
    */
  def walk(r: Int, n: Int, seed: Long, v0: Int, proposals: Array[Int],
           delta: Array[Double]): Chain = {
    require(delta.length == n, s"delta column has length ${delta.length}, expected n=$n")
    val (states, accepted) = independenceWalk(seed, v0, proposals, delta, 1)
    Chain(r, n, seed, states, proposals, accepted, delta)
  }

  /** The one Independence-MH accept/reject loop of both samplers, over flat
    * states s indexing `weight`, which holds `width` entries per source vertex
    * s / width. Conventions and failure as in [[walk]]; returns (states, accepted).
    */
  private[core] def independenceWalk(seed: Long, s0: Int, proposals: Array[Int],
                                     weight: Array[Double], width: Int): (Array[Int], Array[Boolean]) = {
    val T = proposals.length
    val rnd = new Lcg(seed ^ 0x5DEECE66DL) // separate stream from drawProposals
    val states = new Array[Int](T + 1)
    val accepted = new Array[Boolean](T)
    states(0) = s0
    var cur = s0
    var dc = weight(s0)
    if (dc.isNaN) unevaluated(s0 / width)
    var t = 1
    while (t <= T) {
      val prop = proposals(t - 1)
      val dp = weight(prop)
      if (dp.isNaN) unevaluated(prop / width)
      val ratio = if (dc == 0.0) 1.0 else dp / dc
      val acc = rnd.nextDouble() < math.min(1.0, ratio)
      if (acc) { cur = prop; dc = dp }
      accepted(t - 1) = acc
      states(t) = cur
      t += 1
    }
    (states, accepted)
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
