package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Driver-only tests of Algorithm 3's forward selection on fabricated
  * per-column distance tables (no Spark involved).
  */
class MultiColumnSearchSpec extends AnyFunSuite {

  /** Column 0: informative (true pairs close, l-l far apart).
    * Column 1: noise (everything equally far).
    */
  private def prepared: MultiColumnAutoFJ.PreparedMulti = {
    val nL = 12; val nR = 6
    def pdInf(l: Long, r: Long): PairDist = {
      val d = if (l == r - 100L) 0.05 else 0.8 // r's true l has matching index
      PairDist(l, r, Array.fill(ConfigSpace.Size)(d.toFloat))
    }
    def pdNoise(l: Long, r: Long): PairDist =
      PairDist(l, r, Array.fill(ConfigSpace.Size)(0.7f))
    val lrPairs = for (r <- 0 until nR; l <- 0 until nL) yield (l.toLong, 100L + r)
    val llPairs = for (a <- 0 until nL; b <- 0 until nL if a != b)
      yield (a.toLong, b.toLong)
    def llDistInf(a: Long, b: Long) =
      PairDist(a, b, Array.fill(ConfigSpace.Size)(0.9f))
    def llDistNoise(a: Long, b: Long) =
      PairDist(a, b, Array.fill(ConfigSpace.Size)(0.7f))
    MultiColumnAutoFJ.PreparedMulti(
      columns = Vector("informative", "noise"),
      lrCols = Array(
        lrPairs.map { case (l, r) => pdInf(l, r) }.toArray,
        lrPairs.map { case (l, r) => pdNoise(l, r) }.toArray),
      llCols = Array(
        llPairs.map { case (a, b) => llDistInf(a, b) }.toArray,
        llPairs.map { case (a, b) => llDistNoise(a, b) }.toArray))
  }

  test("forward selection picks the informative column, not the noise") {
    val res = MultiColumnAutoFJ.run(prepared, tau = 0.9, fids = Array(0))
    assert(res.selected == Vector(0))
    assert(res.weights(0) == 1.0 && res.weights(1) == 0.0)
  }

  test("the selected program joins every r to its true l") {
    val res = MultiColumnAutoFJ.run(prepared, tau = 0.9, fids = Array(0))
    val expected = (0 until 6).map(r => (100L + r) -> r.toLong).toMap
    assert(res.result.assignment == expected)
  }

  test("adding the noise column does not improve estimated recall") {
    val res = MultiColumnAutoFJ.run(prepared, tau = 0.9, fids = Array(0))
    assert(res.selected.size == 1, "selection should stop after the informative column")
  }

  test("estimated precision stays above tau") {
    val res = MultiColumnAutoFJ.run(prepared, tau = 0.9, fids = Array(0))
    assert(res.result.estPrecision > 0.9)
  }
}
