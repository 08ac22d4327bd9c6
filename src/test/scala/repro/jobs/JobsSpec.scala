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

  test("a spec whose fields parse but are out of range names the generator's parameters and their values") {
    for ((spec, parts) <- Seq(
      "ba:3:4:7" -> Seq("barabasiAlbert", "n=3", "m=4"),
      "grid:0:5" -> Seq("grid", "rows=0", "cols=5"),
      "er:1:0.5:7" -> Seq("erdosRenyi", "n=1", "p=0.5"),
      "ws:10:3:0.1:2" -> Seq("wattsStrogatz", "n=10", "k=3", "beta=0.1"),
      "barbell:1:2" -> Seq("barbell", "k=1", "pathLen=2"),
      "doubleclique:1" -> Seq("doubleClique", "k=1"))) {
      val e = intercept[IllegalArgumentException](Jobs.graph(spec))
      assert(parts.forall(e.getMessage.contains), s"$spec: ${e.getMessage}")
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
