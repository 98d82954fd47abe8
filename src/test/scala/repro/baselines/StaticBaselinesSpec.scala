package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ConfigSpace, PairDist, SearchData}

class StaticBaselinesSpec extends AnyFunSuite {

  private def pd(l: Long, r: Long, f0: Double, fRest: Double = 0.9) = {
    val d = Array.fill(ConfigSpace.Size)(fRest.toFloat)
    d(0) = f0.toFloat
    PairDist(l, r, d)
  }

  /** The 140-function layout of `pairs`: slot f is function f. */
  private def data(pairs: Array[PairDist]) =
    SearchData.fromSingle(pairs, Array.empty, ConfigSpace.full.map(_.id).toArray)

  test("scoredForFunction picks each right record's closest left") {
    val pairs = Array(pd(1, 100, 0.1), pd(2, 100, 0.3), pd(1, 101, 0.5), pd(3, 101, 0.2))
    val out = StaticBaselines.scoredForFunction(data(pairs), s = 0)
      .map(s => s.rId -> s.lId).toMap
    assert(out == Map(100L -> 1L, 101L -> 3L))
  }

  test("scoredForFunction scores are negated distances") {
    val pairs = Array(pd(1, 100, 0.25))
    val s = StaticBaselines.scoredForFunction(data(pairs), 0).head
    assert(math.abs(s.score + 0.25) < 1e-6)
  }

  test("scoredForFunction tie-breaks to the smaller left id") {
    val pairs = Array(pd(7, 100, 0.2), pd(3, 100, 0.2))
    assert(StaticBaselines.scoredForFunction(data(pairs), 0).head.lId == 3L)
  }

  test("UBR counts a pair feasible when some function ranks the gt first") {
    // Under f0 the gt left (1) is closest; under the rest everything ties.
    val pairs = Array(pd(1, 100, 0.1), pd(2, 100, 0.4))
    val ubr = StaticBaselines.upperBoundRecall(data(pairs), Map(100L -> 1L), 1)
    assert(ubr == 1.0)
  }

  test("UBR is 0 when no function makes the gt the argmin") {
    // gt left (2) is strictly farther under every function.
    val d1 = Array.fill(ConfigSpace.Size)(0.1f)
    val d2 = Array.fill(ConfigSpace.Size)(0.5f)
    val pairs = Array(PairDist(1, 100, d1), PairDist(2, 100, d2))
    assert(StaticBaselines.upperBoundRecall(data(pairs), Map(100L -> 2L), 1) == 0.0)
  }

  test("UBR is 0 when the gt pair was blocked away") {
    val pairs = Array(pd(1, 100, 0.1))
    assert(StaticBaselines.upperBoundRecall(data(pairs), Map(100L -> 9L), 1) == 0.0)
  }

  test("UBR normalizes by gtTotal") {
    val pairs = Array(pd(1, 100, 0.1), pd(2, 100, 0.4))
    val ubr = StaticBaselines.upperBoundRecall(data(pairs), Map(100L -> 1L), 2)
    assert(ubr == 0.5)
  }
}
