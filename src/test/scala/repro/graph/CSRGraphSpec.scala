package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.graphgen.{EdgeList, GraphGen}
import repro.testutil.TestGraphs

class CSRGraphSpec extends AnyFunSuite {

  private def neighborsOf(g: CSRGraph, v: Int): IndexedSeq[Int] =
    (g.offsets(v) until g.offsets(v + 1)).map(g.neighbors)

  test("fromEdges: degrees match edge incidences") {
    val el = GraphGen.grid(3, 3)
    val g = CSRGraph.fromEdges(el)
    val deg = Array.fill(el.n)(0)
    el.edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    (0 until el.n).foreach(v => assert(g.degree(v) == deg(v)))
  }

  test("neighbors are sorted and symmetric") {
    TestGraphs.sampleGraphs(20).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      for (v <- 0 until g.n) {
        val nb = neighborsOf(g, v)
        assert(nb == nb.sorted, s"neighbors of $v not sorted")
        nb.foreach(w => assert(neighborsOf(g, w).contains(v), s"edge $v-$w not symmetric"))
      }
    }
  }

  test("m equals undirected edge count") {
    TestGraphs.battery.foreach { case (name, el) =>
      assert(CSRGraph.fromEdges(el).m == el.numEdges, name)
    }
  }

  test("maxDegree on star is n-1") {
    assert(CSRGraph.fromEdges(GraphGen.star(15)).maxDegree == 14)
  }

  test("isConnected is false for a disconnected edge list") {
    // two disjoint edges on 4 vertices
    val g = CSRGraph.fromEdges(EdgeList(4, Vector((0, 1), (2, 3))))
    assert(!g.isConnected)
  }

  test("componentsWithout on a path splits into two sides") {
    val g = CSRGraph.fromEdges(GraphGen.path(7))
    val comps = g.componentsWithout(3).map(_.toSet)
    assert(comps.toSet == Set(Set(0, 1, 2), Set(4, 5, 6)))
  }

  test("componentsWithout on a cycle stays connected") {
    val g = CSRGraph.fromEdges(GraphGen.cycle(8))
    assert(g.componentsWithout(0).map(_.size) == Vector(7))
  }

  test("componentsWithout covers all vertices except the removed one") {
    TestGraphs.sampleGraphs(15).foreach { el =>
      val g = CSRGraph.fromEdges(el)
      val comps = g.componentsWithout(0)
      assert(comps.flatten.sorted == (1 until g.n).toVector)
    }
  }

  test("foreachNeighbor agrees with neighborsOf") {
    val g = CSRGraph.fromEdges(GraphGen.karateClub)
    for (v <- 0 until g.n) {
      val buf = Vector.newBuilder[Int]
      g.foreachNeighbor(v)(buf += _)
      assert(buf.result() == neighborsOf(g, v).toVector)
    }
  }
}
