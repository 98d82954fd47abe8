package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ActiveLearningSpec extends AnyFunSuite {

  test("logistic regression fits a separable problem") {
    val rng = new Random(3)
    val x = Array.tabulate(100)(i =>
      if (i < 50) Array(0.9 + rng.nextGaussian() * 0.05)
      else Array(0.1 + rng.nextGaussian() * 0.05))
    val y = Array.tabulate(100)(i => if (i < 50) 1.0 else 0.0)
    val m = ActiveLearning.fitLogistic(x, y)
    assert(m.p(Array(0.95)) > 0.8)
    assert(m.p(Array(0.05)) < 0.2)
  }

  test("uncertainty sampling labels up to the positive budget and scores all pairs") {
    val rng = new Random(4)
    val pairs = Vector.tabulate(90)(i => CandPair(i, 100L + i / 3, "", ""))
    val gt = (0 until 30).map(i => (100L + i) -> (i * 3).toLong).toMap
    val feats = pairs.map { p =>
      val isM = gt.get(p.rId).contains(p.lId)
      Array.fill(4)((if (isM) 0.85 else 0.15) + rng.nextGaussian() * 0.05)
    }
    val out = ActiveLearning.run(pairs, feats, gt, seed = 9)
    assert(out.map(_.rId).distinct.size == 30)
    val correct = out.count(s => gt.get(s.rId).contains(s.lId))
    assert(correct >= 24, s"AL should recover most matches, got $correct/30")
  }

  test("empty input yields empty output") {
    assert(ActiveLearning.run(Vector.empty, Vector.empty, Map.empty).isEmpty)
  }

  test("deterministic in the seed") {
    val pairs = Vector.tabulate(30)(i => CandPair(i, 100L + i, "", ""))
    val gt = (0 until 10).map(i => (100L + i) -> i.toLong).toMap
    val feats = pairs.map(p => Array.fill(3)(if (gt.get(p.rId).contains(p.lId)) 0.9 else 0.1))
    val a = ActiveLearning.run(pairs, feats, gt, seed = 5)
    val b = ActiveLearning.run(pairs, feats, gt, seed = 5)
    assert(a == b)
  }

  test("uncertainFirst picks what sorting by a recomputed |p - 0.5| picks, ties included") {
    val rng = new Random(11)
    // Scores from a small set, symmetric about 0.5, so many keys tie
    // exactly (0.25 and 0.75 both give 0.25).
    val levels = Array(0.05, 0.25, 0.4, 0.5, 0.6, 0.75, 0.95)
    val score = Array.fill(400)(levels(rng.nextInt(levels.length)))
    val pool = (0 until 400).filter(_ => rng.nextInt(4) != 0)
    var calls = 0
    def p(i: Int): Double = { calls += 1; score(i) }
    val old = pool.sortBy(i => math.abs(p(i) - 0.5))
    val oldCalls = calls
    calls = 0
    val now = ActiveLearning.uncertainFirst(pool, p)
    assert(now == old)
    assert(calls == pool.size, "one score per pool element")
    assert(oldCalls > pool.size)
  }
}
