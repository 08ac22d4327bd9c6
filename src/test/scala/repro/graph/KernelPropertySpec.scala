package repro.graph

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

/** Seeded ScalaCheck properties of [[LocalBrandes.Kernel]]: on random graphs
  * with random target sets, one reused kernel's table rows, dependency
  * vectors, SPDs and BC are bit-identical to the top-down-only
  * [[TopDownKernel]] from every source. The graph classes steer the kernel's
  * level steps: random ER/BA/WS graphs and disjoint unions of them (bottom-up
  * levels that leave unreachable vertices unvisited), dense ER graphs whose
  * passes run two or more bottom-up levels, strings of dense beads, whose
  * passes expand a bead bottom up, the bridge to the next top down and that
  * bead bottom up again (so a bottom-up level runs while an earlier one's
  * keys remain), trees, whose whole-DAG passes fill all m arc slots, and complete
  * graphs, whose BFS stops once level 1 holds all n vertices. The random
  * classes also reach a top-down level that discovers the last vertex and
  * scans on, which stores into the visitation order's spare slot: the kernel
  * fails here without it. A last property changes the target set from one
  * source to the next, so a kernel that kept a mark, a list head or a
  * frontier key from its previous pass would read it.
  */
class KernelPropertySpec extends AnyFunSuite {

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  private val er = for { n <- Gen.choose(2, 120); p <- Gen.choose(0.0, 0.1); seed <- Gen.long }
    yield GraphGen.erdosRenyi(n, p, seed)
  private val ba = for { m <- Gen.choose(1, 4); n <- Gen.choose(m + 2, 150); seed <- Gen.long }
    yield GraphGen.barabasiAlbert(n, m, seed)
  private val ws = for { k <- Gen.oneOf(2, 4, 6); n <- Gen.choose(k + 1, 120); beta <- Gen.choose(0.0, 1.0); seed <- Gen.long }
    yield GraphGen.wattsStrogatz(n, k, beta, seed)
  private val random = Gen.oneOf(er, ba, ws)
  private val unions = Gen.choose(2, 3).flatMap(Gen.listOfN(_, random)).map(_.reduce(TestGraphs.disjointUnion))
  private val dense = for { n <- Gen.choose(200, 300); p <- Gen.choose(0.015, 0.03); seed <- Gen.long }
    yield GraphGen.erdosRenyi(n, p, seed)
  /** 2 to 4 dense ER beads of falling size, each joined to the next by a path
    * through 0 to 2 new vertices.
    */
  private val beads = for {
    k <- Gen.choose(2, 4)
    sizes <- Gen.listOfN(k, Gen.choose(3, 30)).map(_.sorted.reverse)
    p <- Gen.choose(0.6, 1.0)
    bridge <- Gen.choose(0, 2)
    seed <- Gen.long
  } yield {
    val edges = Vector.newBuilder[(Int, Int)]
    var n = 0
    for ((size, i) <- sizes.zipWithIndex) {
      if (i > 0) { (0 to bridge).foreach(j => edges += ((n - 1 + j, n + j))); n += bridge }
      val bead = GraphGen.erdosRenyi(size, p, seed + i)
      edges ++= bead.edges.map { case (u, v) => (u + n, v + n) }
      n += size
    }
    EdgeList(n, edges.result().sorted)
  }
  private val trees = Gen.oneOf(
    for { n <- Gen.choose(1, 200); seed <- Gen.long } yield
      if (n == 1) EdgeList(1, Vector.empty) else GraphGen.erdosRenyi(n, 0.0, seed),
    for { branch <- Gen.choose(2, 4); depth <- Gen.choose(0, 4) } yield GraphGen.balancedTree(branch, depth))
  private val complete = Gen.choose(2, 40).map(GraphGen.complete)

  /** A graph and 1 to 6 distinct targets. */
  private def withTargets(graphs: Gen[EdgeList]): Gen[(EdgeList, Seq[Int])] = for {
    el <- graphs
    k <- Gen.choose(1, math.min(el.n, 6))
    targets <- Gen.pick(k, 0 until el.n)
  } yield (el, targets.toSeq)

  /** The steps of the BFS from s, one letter per expanded level, 'T' top
    * down and 'B' bottom up, replayed by the kernel's direction rule from the
    * reference distances: level d is expanded while some vertex is
    * unvisited, bottom up when its vertices have more arcs than the vertices
    * beyond it.
    */
  private def levelSteps(g: CSRGraph, dist: Array[Int]): String = {
    val levels = dist.max + 1
    val arcsAt = new Array[Long](levels)
    val countAt = new Array[Int](levels)
    for (v <- 0 until g.n if dist(v) >= 0) { arcsAt(dist(v)) += g.degree(v); countAt(dist(v)) += 1 }
    var unvisitedArcs = 2L * g.m; var visited = 0
    val steps = new StringBuilder
    for (d <- 0 until levels) {
      unvisitedArcs -= arcsAt(d); visited += countAt(d)
      if (visited < g.n) steps += (if (arcsAt(d) > unvisitedArcs) 'B' else 'T')
    }
    steps.result()
  }

  /** The first output of a reused kernel that differs from the reference's
    * in its bits, from any source, and the level steps of every pass.
    */
  private def compare(el: EdgeList, targets: Seq[Int]): (Option[String], Set[String]) = {
    val g = CSRGraph.fromEdges(el)
    val kernel = new LocalBrandes.Kernel(g)
    val reference = new TopDownKernel(g)
    val t = targets.toArray
    val row = new Array[Double](t.length)
    var steps = Set.empty[String]
    val mismatch = (0 until g.n).iterator.flatMap { s =>
      kernel.row(s, t, row, 0)
      val (dist, sigma, order) = kernel.spd(s)
      val (dist0, sigma0, order0) = reference.spd(s)
      steps += levelSteps(g, dist0)
      Seq(
        !row.map(bits).sameElements(reference.row(s, t).map(bits)) -> "row",
        !kernel.dependency(s).map(bits).sameElements(reference.dependency(s).map(bits)) -> "dependency",
        !(dist.sameElements(dist0) && sigma.map(bits).sameElements(sigma0.map(bits)) &&
          order.sameElements(order0)) -> "spd")
        .collectFirst { case (true, what) => s"$what from source $s" }
    }.nextOption()
      .orElse(Option.when(!LocalBrandes.bc(g).map(bits).sameElements(reference.bc().map(bits)))("bc"))
    (mismatch.map(m => s"$m on n=${g.n}, m=${g.m}, targets ${targets.mkString(",")}"), steps)
  }

  /** Checks `tests` runs of a property under a fixed seed. */
  private def checkProp(prop: Prop, tests: Int, seed: Long): Unit = {
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(seed)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
  }

  /** Checks `tests` graphs of a class under a fixed seed; returns the level
    * steps of every pass they ran.
    */
  private def check(graphs: Gen[EdgeList], tests: Int, seed: Long): Set[String] = {
    var steps = Set.empty[String]
    checkProp(Prop.forAllNoShrink(withTargets(graphs)) { case (el, targets) =>
      val (mismatch, passSteps) = compare(el, targets)
      steps ++= passSteps
      Prop(mismatch.isEmpty) :| mismatch.getOrElse("")
    }, tests, seed)
    steps
  }

  private def bottomUps(steps: String): Int = steps.count(_ == 'B')

  test("the kernel matches the top-down reference bit for bit on random ER, BA and WS graphs") {
    assert(check(random, 60, 11L).exists(bottomUps(_) >= 1))
  }

  test("the kernel matches the reference on disjoint unions, whose BFS leaves vertices unvisited") {
    assert(check(unions, 40, 12L).exists(bottomUps(_) >= 1))
  }

  test("the kernel matches the reference on dense ER graphs, whose passes run two or more bottom-up levels") {
    assert(check(dense, 15, 13L).exists(bottomUps(_) >= 2))
  }

  test("the kernel matches the reference on strings of beads, whose passes run bottom up, top down, bottom up") {
    assert(check(beads, 40, 16L).exists(_.matches(".*BT+B.*")))
  }

  test("the kernel matches the reference on trees, whose sub-DAG holds all m edges") {
    check(trees, 40, 14L)
  }

  test("the kernel matches the reference on complete graphs, which visit all n vertices in level 1") {
    check(complete, 30, 15L)
  }

  test("one reused kernel matches the reference as the target set changes from source to source") {
    val graphs = for {
      el <- Gen.oneOf(random, unions, dense, beads)
      perSource <- Gen.listOfN(el.n, Gen.choose(1, math.min(el.n, 6)).flatMap(Gen.pick(_, 0 until el.n)))
    } yield (el, perSource.map(_.toArray).toArray)
    checkProp(Prop.forAllNoShrink(graphs) { case (el, targetsOf) =>
      val g = CSRGraph.fromEdges(el)
      val kernel = new LocalBrandes.Kernel(g)
      val reference = new TopDownKernel(g)
      val mismatch = (0 until g.n).find { s =>
        val row = new Array[Double](targetsOf(s).length)
        kernel.row(s, targetsOf(s), row, 0)
        !row.map(bits).sameElements(reference.row(s, targetsOf(s)).map(bits))
      }
      Prop(mismatch.isEmpty) :| mismatch.fold("")(s =>
        s"row from source $s on n=${g.n}, m=${g.m}, targets ${targetsOf(s).mkString(",")}")
    }, 40, 17L)
  }
}
