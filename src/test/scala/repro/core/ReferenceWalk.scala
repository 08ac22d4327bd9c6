package repro.core

/** The reference for [[MHSingle.independenceWalk]]: the plain sequential
  * Independence-MH loop over flat states, one uniform per step from the
  * walk's stream, that records each step's accept/reject flag as it decides
  * it by the division of Eq. 6. The stream is `java.util.Random`'s, whose
  * algorithm [[Lcg]] copies, so the reference shares no code with the walk. The chunked walk must reproduce its states bit for bit, and the
  * chains' derived `accepted(t)` its flags; [[harmonic]] is the reference
  * for [[Chain.estimateHarmonic]].
  */
object ReferenceWalk {

  /** (states, accepted) of the walk from s0 over `proposals` into `weight`. */
  def apply(seed: Long, s0: Int, proposals: Array[Int], weight: Array[Double]): (Array[Int], Array[Boolean]) = {
    val rnd = new java.util.Random(seed ^ 0x5DEECE66DL)
    val states = new Array[Int](proposals.length + 1)
    val accepted = new Array[Boolean](proposals.length)
    states(0) = s0
    for (t <- proposals.indices) {
      val (cur, prop) = (states(t), proposals(t))
      val ratio = if (weight(cur) == 0.0) 1.0 else weight(prop) / weight(cur)
      accepted(t) = rnd.nextDouble() < math.min(1.0, ratio)
      states(t + 1) = if (accepted(t)) prop else cur
    }
    (states, accepted)
  }

  /** The harmonic estimate as one sequential loop over everything: n times
    * the share of the draws (s0 and the proposals) with δ > 0, over the mean
    * of 1/δ across the `states` with δ > 0, summed in chain order; 0 if no
    * state has δ > 0.
    */
  def harmonic(n: Int, s0: Int, proposals: Array[Int], states: Array[Int], weight: Array[Double]): Double = {
    val draws = (s0 +: proposals).count(weight(_) > 0.0)
    var sum = 0.0
    var inSupport = 0
    for (s <- states if weight(s) > 0.0) { sum += 1.0 / weight(s); inSupport += 1 }
    if (inSupport == 0) 0.0 else n.toDouble * draws / states.length / (sum / inSupport)
  }
}
