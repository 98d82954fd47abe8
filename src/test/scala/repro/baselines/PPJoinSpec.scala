package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Preprocess, Tokenize}

class PPJoinSpec extends AnyFunSuite {

  private val L = Seq(
    1L -> "2008 LSU Tigers baseball team",
    2L -> "2008 LSU Tigers football team",
    3L -> "Galactic Research Institute",
  )
  private val R = Seq(
    100L -> "2008 LSU baseball team",
    101L -> "completely unrelated string here",
  )

  /** Brute-force Jaccard join as the reference. */
  private def brute(threshold: Double): Map[Long, (Long, Double)] = {
    def toks(s: String) = Tokenize.space(Preprocess.lower(s)).toSet
    val best = for {
      (rid, rt) <- R
      sims = L.map { case (lid, lt) =>
        val a = toks(lt); val b = toks(rt)
        val inter = (a intersect b).size
        (lid, if (a.isEmpty && b.isEmpty) 0.0 else inter.toDouble / (a.size + b.size - inter))
      }
      (lid, sim) = sims.maxBy { case (l, s) => (s, -l) } if sim >= threshold
    } yield rid -> (lid, sim)
    best.toMap
  }

  test("PPJoin agrees with the brute-force Jaccard join at t=0.3") {
    val out = PPJoin.run(L, R, threshold = 0.3)
      .map(s => s.rId -> (s.lId, s.score)).toMap
    val expected = brute(0.3)
    assert(out.keySet == expected.keySet)
    out.foreach { case (r, (l, s)) =>
      val (el, es) = expected(r)
      assert(l == el && math.abs(s - es) < 1e-9, s"r=$r")
    }
  }

  test("PPJoin at a high threshold drops weak pairs") {
    val out = PPJoin.run(L, R, threshold = 0.9)
    assert(out.isEmpty, s"no pair reaches Jaccard 0.9: $out")
  }

  test("PPJoin finds exact-duplicate pairs at t=1.0 modulo prefix math") {
    val out = PPJoin.run(Seq(1L -> "alpha beta"), Seq(100L -> "beta alpha"), 0.99)
    assert(out.map(s => s.rId -> s.lId) == Vector(100L -> 1L))
  }

  test("PPJoin respects the length filter semantics (results unchanged)") {
    // The filters only prune; verification keeps results exact. Compare
    // two thresholds where brute force says the same best pair survives.
    val o1 = PPJoin.run(L, R, 0.3).map(s => s.rId -> s.lId).toMap
    val o2 = PPJoin.run(L, R, 0.5).map(s => s.rId -> s.lId).toMap
    assert(o2.toSet.subsetOf(o1.toSet))
  }
}
