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
  * passes run two or more bottom-up levels, trees, whose whole-DAG passes
  * fill all m arc slots, and complete graphs, whose BFS stops once level 1
  * holds all n vertices. The random classes also reach a top-down level that
  * discovers the last vertex and scans on, which stores into the visitation
  * order's spare slot: the kernel fails here without it.
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

  /** How many levels of the BFS from s the kernel's direction rule expands
    * bottom up, replayed from the reference distances: level d is expanded
    * while some vertex is unvisited, bottom up when its vertices have more
    * arcs than the vertices beyond it.
    */
  private def bottomUpLevels(g: CSRGraph, dist: Array[Int]): Int = {
    val levels = dist.max + 1
    val arcsAt = new Array[Long](levels)
    val countAt = new Array[Int](levels)
    for (v <- 0 until g.n if dist(v) >= 0) { arcsAt(dist(v)) += g.degree(v); countAt(dist(v)) += 1 }
    var unvisitedArcs = 2L * g.m; var visited = 0; var count = 0
    for (d <- 0 until levels) {
      unvisitedArcs -= arcsAt(d); visited += countAt(d)
      if (visited < g.n && arcsAt(d) > unvisitedArcs) count += 1
    }
    count
  }

  /** The first output of a reused kernel that differs from the reference's
    * in its bits, from any source, and the most bottom-up levels of a pass.
    */
  private def compare(el: EdgeList, targets: Seq[Int]): (Option[String], Int) = {
    val g = CSRGraph.fromEdges(el)
    val kernel = new LocalBrandes.Kernel(g)
    val reference = new TopDownKernel(g)
    val t = targets.toArray
    val row = new Array[Double](t.length)
    var mostBottomUp = 0
    val mismatch = (0 until g.n).iterator.flatMap { s =>
      kernel.row(s, t, row, 0)
      val (dist, sigma, order) = kernel.spd(s)
      val (dist0, sigma0, order0) = reference.spd(s)
      mostBottomUp = math.max(mostBottomUp, bottomUpLevels(g, dist0))
      Seq(
        !row.map(bits).sameElements(reference.row(s, t).map(bits)) -> "row",
        !kernel.dependency(s).map(bits).sameElements(reference.dependency(s).map(bits)) -> "dependency",
        !(dist.sameElements(dist0) && sigma.map(bits).sameElements(sigma0.map(bits)) &&
          order.sameElements(order0)) -> "spd")
        .collectFirst { case (true, what) => s"$what from source $s" }
    }.nextOption()
      .orElse(Option.when(!LocalBrandes.bc(g).map(bits).sameElements(reference.bc().map(bits)))("bc"))
    (mismatch.map(m => s"$m on n=${g.n}, m=${g.m}, targets ${targets.mkString(",")}"), mostBottomUp)
  }

  /** Checks `tests` graphs of a class under a fixed seed; returns the most
    * bottom-up levels any of their passes ran.
    */
  private def check(graphs: Gen[EdgeList], tests: Int, seed: Long): Int = {
    var mostBottomUp = 0
    val prop = Prop.forAllNoShrink(withTargets(graphs)) { case (el, targets) =>
      val (mismatch, bottomUp) = compare(el, targets)
      mostBottomUp = math.max(mostBottomUp, bottomUp)
      Prop(mismatch.isEmpty) :| mismatch.getOrElse("")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(tests).withInitialSeed(Seed(seed)), prop)
    assert(result.passed, org.scalacheck.util.Pretty.pretty(result))
    mostBottomUp
  }

  test("the kernel matches the top-down reference bit for bit on random ER, BA and WS graphs") {
    assert(check(random, 60, 11L) >= 1)
  }

  test("the kernel matches the reference on disjoint unions, whose BFS leaves vertices unvisited") {
    assert(check(unions, 40, 12L) >= 1)
  }

  test("the kernel matches the reference on dense ER graphs, whose passes run two or more bottom-up levels") {
    assert(check(dense, 15, 13L) >= 2)
  }

  test("the kernel matches the reference on trees, whose sub-DAG holds all m edges") {
    check(trees, 40, 14L)
  }

  test("the kernel matches the reference on complete graphs, which visit all n vertices in level 1") {
    check(complete, 30, 15L)
  }
}
