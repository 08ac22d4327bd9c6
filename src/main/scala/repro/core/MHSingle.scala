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
  * @param delta     the δ column (length n): δ_{v•}(r) for every vertex that
  *                  appeared as state/proposal, NaN ("not evaluated") elsewhere
  */
final case class Chain(
    r: Int,
    n: Int,
    seed: Long,
    states: Array[Int],
    proposals: Array[Int],
    delta: Array[Double]) {

  def T: Int = proposals.length

  /** Whether step t's proposal was accepted: a self-proposal has ratio 1
    * (δ = 0, or finite δ/δ = 1.0), which the uniform u < 1 always accepts. */
  def accepted(t: Int): Boolean = states(t + 1) == proposals(t)

  def acceptanceRate: Double = MHSingle.acceptanceRate(states, proposals)

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
    // pool counts the states and the proposals with δ > 0 (integers: any
    // order will do), adding each test's 0 or 1 rather than branching on it:
    // off a hub the support is a fraction of V, and a branch on it mispredicts
    val k = Chunks.count(T + 1, Chunks.default - 1)
    val positive = new Array[Int](k) // δ > 0 among chunk c's proposals, −1 if one is unevaluated
    val supported = new Array[Int](k) // δ > 0 among chunk c's states
    var invSum = 0.0
    Chunks.run(k + 1) { c =>
      if (c == 0) {
        var sum = 0.0
        var t = 0
        while (t <= T) { sum += inv(states(t)); t += 1 }
        invSum = sum
      } else {
        var p = 0
        var unevaluated = false
        var t = Chunks.start(T, k, c - 1)
        var end = Chunks.start(T, k, c)
        while (t < end) {
          val d = delta(proposals(t))
          p += (if (d > 0.0) 1 else 0)
          unevaluated |= java.lang.Double.isNaN(d)
          t += 1
        }
        positive(c - 1) = if (unevaluated) -1 else p
        var q = 0
        t = Chunks.start(T + 1, k, c - 1)
        end = Chunks.start(T + 1, k, c)
        while (t < end) { q += (if (delta(states(t)) > 0.0) 1 else 0); t += 1 }
        supported(c - 1) = q
      }
    }
    if (positive.contains(-1)) return Double.NaN
    val suppHat = n.toDouble * (positive.sum + (if (d0 > 0.0) 1 else 0)) / (T + 1)
    val inSupport = supported.sum
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
  * score δ_{v•}(r) is evaluated as **one batch** of Brandes passes over the
  * distinct proposed vertices, into a dense δ column; the O(T) accept/reject
  * walk then runs on the driver. [[run]] builds the column on the driver's
  * pool ([[LocalBrandes.dependencyTable]]); [[runSpark]] does too on a local
  * master, and otherwise runs one Spark job
  * ([[SparkBrandes.dependencyTable]]). Rows depend only on their source, so
  * every builder gives the same chain, bit for bit, for the same seed.
  *
  * The driver's O(T) work — the draw, the walk and the harmonic estimator's
  * support count — runs in chunks on the JVM's common ForkJoin pool with the
  * calling thread as one worker ([[Chunks]]), and gives the same bits as one
  * sequential loop: the draw jumps the LCG ahead to each chunk's start, and
  * the walk stitches its chunks with the coupling described at
  * [[independenceWalk]].
  *
  * On a disconnected graph a source outside r's component has δ_{v•}(r) = 0:
  * it is outside supp(π_r) and the harmonic estimator's support estimate.
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
    * Only the drawn sources' entries (v0's and the proposals') are checked,
    * so any value elsewhere walks. The checks run in the order listed:
    * @throws IllegalArgumentException if v0 is outside [0, n), the column's
    *   length is not n, or a drawn source's δ is negative or +∞, naming it
    * @throws NoSuchElementException if a drawn source's δ is NaN (not
    *   evaluated), naming v0, or else the first such proposal in chain order
    * @throws IllegalArgumentException if a proposal is outside [0, n),
    *   naming the first such step and the value
    */
  def walk(r: Int, n: Int, seed: Long, v0: Int, proposals: Array[Int],
           delta: Array[Double]): Chain =
    Chain(r, n, seed, independenceWalk(seed, v0, proposals, n, 1, Chunks.default)(_ => delta)._1, proposals, delta)

  /** The one Independence-MH engine of both samplers, over flat states
    * s = v·width + k into n source rows of `width` entries, and the only code
    * that handles a chain's drawn sources: it marks them once (v = s / width
    * for s0 and each proposal inside the table), calls `build` once on them,
    * checks their rows as [[walk]] lists, naming v (a NaN anywhere in a row
    * fails: a builder fills whole rows), takes δ_max below as their largest
    * entry, and walks. Returns the T + 1 states, the same bits at every chunk
    * count, and the table.
    *
    * The walk runs in `chunks` chunks of steps at once, because copies of an
    * independence chain started from different states merge at the first
    * proposal that every state accepts (the coupling behind perfect sampling
    * for IMH, Corcoran & Tweedie 2002). Every state lies in a drawn row, so
    * with δ_max their largest entry, step t's proposal p is accepted from
    * every state when u_t < δ(p)/δ_max: from a state with δ = 0 always, and
    * from one with 0 < δ ≤ δ_max because correctly rounded division is
    * monotone, so δ(p)/δ ≥ δ(p)/δ_max. That has probability
    * E[δ]/δ_max = 1/μ(r) per step (the quantity of Theorem 1; Mengersen &
    * Tweedie 1996). Each chunk but the first looks for its first such step
    * τ and walks from τ to its end, as the first chunk walks from s0, all on
    * [[Chunks]]; then one sequential pass walks each chunk's steps before τ
    * from the previous chunk's end state. A chunk with no such step
    * (δ_max = 0, or μ(r) about the chunk length or more) is walked whole in
    * that pass: the same bits, only not faster. The u_t come from one
    * stream, each chunk's jumped ahead to its first step.
    *
    * A proposal outside the table is found last, by the JVM's own index
    * check on `weight(p)`, which every step already pays (a separate pass
    * over T = 1e7 proposals cost 10–20% of the walk); the chunk records it.
    */
  private[core] def independenceWalk(seed: Long, s0: Int, proposals: Array[Int], n: Int, width: Int, chunks: Int)
                                    (build: BitSet => Array[Double]): (Array[Int], Array[Double]) = {
    require(s0 >= 0 && s0 < n.toLong * width,
      s"vertex ${Math.floorDiv(s0, width)} at the initial state is outside [0, n = $n)")
    val drawn = LocalBrandes.markSources(n, s0, proposals, width)
    val weight = build(drawn)
    require(weight.length == n.toLong * width,
      s"delta table has length ${weight.length}, expected n * |R| = $n * $width")
    var max = 0.0
    val holes = new BitSet // drawn sources with a NaN (unevaluated) entry
    drawn.stream.forEach { v =>
      for (i <- v * width until (v + 1) * width) {
        val w = weight(i)
        if (w < 0.0 || w == Double.PositiveInfinity)
          throw new IllegalArgumentException(s"the dependency of source $v is $w; a dependency is finite and non-negative")
        if (w > max) max = w else if (w.isNaN) holes.set(v)
      }
    }
    val dmax = max // a val, so the chunks read a constant, not the closure's shared cell
    if (!holes.isEmpty) {
      val first = (Iterator.single(s0) ++ proposals).map(Math.floorDiv(_, width)).find(v => v >= 0 && holes.get(v)).get
      throw new NoSuchElementException(s"the dependency of source $first was not evaluated")
    }
    val T = proposals.length
    val states = new Array[Int](T + 1)
    states(0) = s0
    val k = Chunks.count(T, chunks)
    def lo(c: Int): Int = Chunks.start(T, k, c)
    val tau = new Array[Int](k) // c ≥ 1: chunk c's first step that every state accepts, lo(c + 1) if none
    val outside = new Array[Boolean](k) // chunk c read a proposal outside the table
    Chunks.run(k) { c =>
      val hi = lo(c + 1)
      val rnd = stream(seed, lo(c))
      try {
        if (c == 0) steps(rnd, lo(c), hi, s0, proposals, weight, states)
        else {
          var t = lo(c)
          while (t < hi && !(rnd.nextDouble() < weight(proposals(t)) / dmax)) t += 1
          tau(c) = t
          if (t < hi) {
            states(t + 1) = proposals(t)
            steps(rnd, t + 1, hi, proposals(t), proposals, weight, states)
          }
        }
      } catch { case _: ArrayIndexOutOfBoundsException => outside(c) = true }
    }
    val t = if (outside.contains(true)) proposals.indexWhere(p => p < 0 || p >= weight.length) else -1
    require(t < 0, s"vertex ${Math.floorDiv(proposals(t), width)} at step $t is outside [0, n = $n)")
    var c = 1
    while (c < k) {
      steps(stream(seed, lo(c)), lo(c), tau(c), states(lo(c)), proposals, weight, states)
      c += 1
    }
    (states, weight)
  }

  /** Steps `from until to` of the walk, from state `start` and drawing from
    * `rnd`: writes states(t + 1). */
  private def steps(rnd: Lcg, from: Int, to: Int, start: Int, proposals: Array[Int], weight: Array[Double],
                    states: Array[Int]): Unit = {
    var cur = start
    var dc = weight(cur)
    var t = from
    while (t < to) {
      val prop = proposals(t)
      val dp = weight(prop)
      val ratio = if (dc == 0.0) 1.0 else dp / dc
      if (rnd.nextDouble() < math.min(1.0, ratio)) { cur = prop; dc = dp }
      states(t + 1) = cur
      t += 1
    }
  }

  /** The walk's uniform draws from step t on: its stream jumped t draws
    * (2t outputs) ahead. The stream is separate from [[drawProposals]]'.
    */
  private def stream(seed: Long, t: Int): Lcg = {
    val rnd = new Lcg(seed ^ 0x5DEECE66DL)
    rnd.skip(2L * t)
    rnd
  }

  /** Both chains' share of accepted steps, each read as `accepted(t)`: X_{t+1} = proposal t. */
  private[core] def acceptanceRate(states: Array[Int], proposals: Array[Int]): Double = {
    val T = proposals.length
    var count = 0
    var t = 0
    while (t < T) { if (states(t + 1) == proposals(t)) count += 1; t += 1 }
    if (T == 0) 0.0 else count.toDouble / T
  }

  /** Run fully locally (exact dependency kernel, one pass per distinct source). */
  def run(g: CSRGraph, r: Int, T: Int, seed: Long): Chain =
    sample(g.n, r, T, seed)(LocalBrandes.dependencyTable(g, _, Array(r)))

  /** Run on a Spark session's cores: the δ column is built where
    * [[SparkBrandes.sessionTable]] chooses, on the driver's pool on a local
    * master and as one Spark job otherwise, so the chain is [[run]]'s, bit
    * for bit.
    */
  def runSpark(spark: SparkSession, g: CSRGraph, r: Int, T: Int, seed: Long): Chain =
    sample(g.n, r, T, seed)(SparkBrandes.sessionTable(spark, g, _, Array(r))._1)

  /** The one seed → chain path: validate, draw, walk; the walk calls `column`
    * once, on the distinct drawn sources, for their δ column (length n,
    * δ_{v•}(r) at every marked v, other entries never read). [[run]]/[[runSpark]]
    * pass the local/Spark table builder; a cached column passes `_ => column`.
    */
  def sample(n: Int, r: Int, T: Int, seed: Long)(column: BitSet => Array[Double]): Chain = {
    require(r >= 0 && r < n, s"target r=$r is not a vertex of a graph with n=$n vertices")
    require(T >= 0, s"chain length T=$T must be non-negative")
    val (v0, props) = drawProposals(n, T, seed)
    val (states, delta) = independenceWalk(seed, v0, props, n, 1, Chunks.default)(column)
    Chain(r, n, seed, states, props, delta)
  }
}
