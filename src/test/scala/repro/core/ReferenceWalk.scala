package repro.core

/** The reference for [[MHSingle.independenceWalk]]: the plain sequential
  * Independence-MH loop over flat states, one uniform per step from the
  * walk's stream, that records each step's accept/reject flag as it decides
  * it. The chunked walk must reproduce its states bit for bit, and the
  * chains' derived `accepted(t)` its flags.
  */
object ReferenceWalk {

  /** (states, accepted) of the walk from s0 over `proposals` into `weight`. */
  def apply(seed: Long, s0: Int, proposals: Array[Int], weight: Array[Double]): (Array[Int], Array[Boolean]) = {
    val rnd = new Lcg(seed ^ 0x5DEECE66DL)
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
}
