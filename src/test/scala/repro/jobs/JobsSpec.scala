package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.GraphGen

/** The job entry layer's argument checks; each fails before a Spark session starts. */
class JobsSpec extends AnyFunSuite {

  test("graph specs parse to the generators, and a bad spec names the bad field and the accepted forms") {
    assert(Jobs.graph("ba:300:3:7") == GraphGen.barabasiAlbert(300, 3, 7L))
    assert(Jobs.graph("ws:100:4:0.1:2") == GraphGen.wattsStrogatz(100, 4, 0.1, 2L))
    assert(Jobs.graph("karate") == GraphGen.karateClub)
    val unknown = intercept[IllegalArgumentException](Jobs.graph("bogus:1"))
    assert(unknown.getMessage.contains("unknown graph spec 'bogus:1'") &&
      unknown.getMessage.contains(Jobs.graphSpecs), unknown.getMessage)
    for ((spec, field) <- Seq("ba:x:4:7" -> "n 'x'", "er:100:p:7" -> "p 'p'", "ws:100:4:0.1:s" -> "seed 's'",
      "grid:3:c" -> "cols 'c'")) {
      val e = intercept[IllegalArgumentException](Jobs.graph(spec))
      assert(e.getMessage.contains(s"bad $field") && e.getMessage.contains(Jobs.graphSpecs), e.getMessage)
    }
  }

  test("the jobs report their usage on a bad r, R, T, seed or topK") {
    def failure(run: Array[String] => Unit, args: String*): String =
      intercept[IllegalArgumentException](run(args.toArray)).getMessage
    val single = failure(RunSingleMH.main, "karate", "x", "10")
    assert(single.contains("bad r 'x'") && single.contains("usage: RunSingleMH"), single)
    val singleT = failure(RunSingleMH.main, "karate", "0", "1e3")
    assert(singleT.contains("bad T '1e3'") && singleT.contains("usage: RunSingleMH"), singleT)
    val joint = failure(RunJointMH.main, "karate", "0,,1", "10")
    assert(joint.contains("bad R '0,,1'") && joint.contains("usage: RunJointMH"), joint)
    val seed = failure(RunJointMH.main, "karate", "0,1", "10", "s")
    assert(seed.contains("bad seed 's'") && seed.contains("usage: RunJointMH"), seed)
    val topK = failure(RunExactBC.main, "karate", "ten")
    assert(topK.contains("bad topK 'ten'") && topK.contains("usage: RunExactBC"), topK)
    val missing = failure(RunSingleMH.main, "karate", "0")
    assert(missing.contains("usage: RunSingleMH"), missing)
  }
}
