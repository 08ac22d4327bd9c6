package repro.core

import java.util.BitSet
import org.apache.spark.sql.SparkSession
import repro.graph.{CSRGraph, LocalBrandes, SparkBrandes}

/** One realized run of the joint-space sampler (§4.3). A state or proposal
  * ⟨R(k), v⟩ with k the *index into R* is the flat index s = v·|R| + k, so
  * k = s % |R|, v = s / |R|, and s is its δ's position in `delta`. As with
  * [[Chain]], only [[MHJoint.sample]] and [[MHJoint.walk]] build one, so
  * every row an estimator reads has passed the walk's checks.
  *
  * @param states    chain state at every iteration t = 0..T (length T+1), flat
  * @param proposals pair proposed at iteration t = 1..T (length T), flat
  * @param delta     the δ table restricted to R, row-major n × |R|:
  *                  delta(v * R.length + k) = δ_{v•}(R(k)) for every vertex v that
  *                  appeared in a state or proposal, NaN ("not evaluated") elsewhere
  */
final class JointChain private[core] (
    val R: Array[Int],
    val n: Int,
    val seed: Long,
    val states: Array[Int],
    val proposals: Array[Int],
    val delta: Array[Double]) {

  def T: Int = proposals.length

  /** Whether step t's proposal was accepted, as [[Chain.accepted]]. */
  def accepted(t: Int): Boolean = states(t + 1) == proposals(t)

  def acceptanceRate: Double = MHSingle.acceptanceRate(states, proposals)

  /** Iterations whose r-component is R(k) — the multiset S(k) of the paper. */
  def sampleIndices(k: Int): Array[Int] = Array.range(0, T + 1).filter(t => states(t) % R.length == k)

  /** Numerator of Eq. 22 for the ordered pair (i over j):
    * (1/|S(j)|) Σ_{s ∈ S(j)} min{1, δ_{s.v•}(r_i)/δ_{s.v•}(r_j)} — the
    * estimator of the relative betweenness score B̈C_{r_j}(r_i). NaN when
    * S(j) is empty.
    */
  def relativeEstimate(i: Int, j: Int): Double = {
    val width = R.length
    require(i >= 0 && i < width, s"index i=$i is not an index into R, |R| = $width")
    require(j >= 0 && j < width, s"index j=$j is not an index into R, |R| = $width")
    var sum = 0.0
    var size = 0
    var t = 0
    while (t <= T) {
      val s = states(t)
      if (s % width == j) { // the row of s holds δ(r_i) at s − j + i and δ(r_j) at s
        sum += Estimators.cappedRatio(delta(s - j + i), delta(s))
        size += 1
      }
      t += 1
    }
    if (size == 0) Double.NaN else sum / size
  }

  /** Eq. 22: estimate of BC(r_i)/BC(r_j). */
  def ratioEstimate(i: Int, j: Int): Double =
    relativeEstimate(i, j) / relativeEstimate(j, i)
}

/** The joint-space Metropolis-Hastings sampler of §4.3: a chain on R × V(G)
  * with uniform proposals on both coordinates and acceptance
  * min{1, δ_{v'•}(r')/δ_{v•}(r)} (Eq. 17); stationary distribution Eq. 18.
  *
  * As with [[MHSingle]], proposals are iid, so each distinct proposed source
  * v needs one Brandes pass — which yields δ_{v•}(x) for *every* x at once,
  * so the whole R-restricted dependency table for a chain is one batch,
  * built by the same builders as [[MHSingle]]'s column.
  *
  * Disconnected graphs behave as in [[MHSingle]]. Members of R in different
  * components have disjoint supports, so Eq. 22 sums only the samples before
  * the chain enters the support: NaN (Theorem 3's 0/0) if it starts there, else 0 or +∞.
  */
object MHJoint {

  def drawProposals(nR: Int, n: Int, T: Int, seed: Long)
      : (Int, Int, Array[Int], Array[Int]) = {
    val rnd = new Lcg(seed)
    val r0 = rnd.nextInt(nR)
    val v0 = rnd.nextInt(n)
    val pr = new Array[Int](T)
    val pv = new Array[Int](T)
    rnd.fillInts(pr, nR, Chunks.default)
    rnd.fillInts(pv, n, Chunks.default)
    (r0, v0, pr, pv)
  }

  /** Accept/reject walk over a δ table (n × |R|, see [[JointChain.delta]]):
    * [[MHSingle.walk]]'s loop over the flat states v·|R| + k, so the same
    * zero-δ conventions and failures hold, naming the source v, over the
    * drawn sources' whole rows: a NaN at an r-index never drawn fails too.
    * @throws IllegalArgumentException first, if r0 or a `propsR(t)` is outside [0, |R|) or v0 or a
    *   `propsV(t)` outside [0, n), naming the step and the value, or if `propsR` and `propsV` differ in length
    */
  def walk(R: Array[Int], n: Int, seed: Long, r0: Int, v0: Int,
           propsR: Array[Int], propsV: Array[Int],
           delta: Array[Double]): JointChain =
    flatWalk(R, n, seed, r0, v0, propsR, propsV)(_ => delta)

  /** [[walk]] over the table that `table` builds for its drawn sources. */
  private def flatWalk(R: Array[Int], n: Int, seed: Long, r0: Int, v0: Int, propsR: Array[Int],
                       propsV: Array[Int])(table: BitSet => Array[Double]): JointChain = {
    val width = R.length
    val T = propsV.length
    require(propsR.length == T, s"propsR has ${propsR.length} steps and propsV has $T; they must be equal")
    def flat(t: Int, r: Int, v: Int): Int = { // t = −1: the initial state
      def step = if (t < 0) "the initial state" else s"step $t"
      require(r >= 0 && r < width, s"r-index $r at $step is outside [0, |R| = $width)")
      require(v >= 0 && v < n, s"vertex $v at $step is outside [0, n = $n)")
      v * width + r
    }
    val s0 = flat(-1, r0, v0)
    val proposals = new Array[Int](T)
    var t = 0
    while (t < T) { proposals(t) = flat(t, propsR(t), propsV(t)); t += 1 }
    val (states, delta) = MHSingle.independenceWalk(seed, s0, proposals, n, width, Chunks.default)(table)
    new JointChain(R, n, seed, states, proposals, delta)
  }

  /** Run fully locally. */
  def run(g: CSRGraph, R: Array[Int], T: Int, seed: Long): JointChain =
    sample(g.n, R, T, seed)(LocalBrandes.dependencyTable(g, _, R))

  /** Run on a Spark session's cores, the δ table built where
    * [[SparkBrandes.sessionTable]] chooses, as in [[MHSingle.runSpark]].
    */
  def runSpark(spark: SparkSession, g: CSRGraph, R: Array[Int], T: Int,
               seed: Long): JointChain =
    sample(g.n, R, T, seed)(SparkBrandes.sessionTable(spark, g, _, R)._1)

  /** The one seed → chain path: validate, draw, walk; the walk calls `table`
    * once, on the distinct drawn sources, for their δ table (n × |R| as in
    * [[JointChain.delta]], every marked row filled, other rows never read).
    * [[run]]/[[runSpark]] pass the local/Spark table builder; a cached table passes `_ => table`.
    */
  def sample(n: Int, R: Array[Int], T: Int, seed: Long)
                    (table: BitSet => Array[Double]): JointChain = {
    require(R.nonEmpty, "target set R must be non-empty")
    require(R.forall(r => r >= 0 && r < n),
      s"target set R=${R.mkString("{", ",", "}")} has a vertex outside [0, $n)")
    require(R.distinct.length == R.length,
      s"target set R=${R.mkString("{", ",", "}")} has repeated vertices")
    require(T >= 0, s"chain length T=$T must be non-negative")
    val (r0, v0, pr, pv) = drawProposals(R.length, n, T, seed)
    flatWalk(R, n, seed, r0, v0, pr, pv)(table)
  }
}
