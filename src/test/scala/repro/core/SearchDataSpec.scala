package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class SearchDataSpec extends AnyFunSuite {

  private def pd(l: Long, r: Long, ds: Double*) = PairDist(l, r, ds.map(_.toFloat).toArray)

  test("fromSingle builds dense indices and per-slot distance arrays") {
    val lr = Array(pd(10, 100, 0.1, 0.2), pd(11, 100, 0.3, 0.4))
    val ll = Array(pd(10, 11, 0.5, 0.6), pd(11, 10, 0.5, 0.6))
    val d = SearchData.fromSingle(lr, ll, fids = Array(0, 1))
    assert(d.nLeft == 2 && d.nRight == 1 && d.nF == 2)
    assert(d.nLr == 2 && d.nLl == 2)
    assert(d.lrDist(0).toSeq == Seq(0.1f, 0.3f))
    assert(d.lrDist(1).toSeq == Seq(0.2f, 0.4f))
  }

  test("fromSingle respects the fids slice") {
    val lr = Array(pd(10, 100, 0.1, 0.2, 0.3))
    val ll = Array(pd(10, 11, 0.5, 0.6, 0.7))
    val d = SearchData.fromSingle(lr, ll, fids = Array(2))
    assert(d.nF == 1)
    assert(d.lrDist(0)(0) == 0.3f)
    assert(d.llDist(0)(0) == 0.7f)
  }

  test("fromColumns combines distances with the weight vector (Def. 4.1)") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.6))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.8))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(0.5, 0.5))
    assert(math.abs(d.lrDist(0)(0) - 0.4f) < 1e-6)
    assert(math.abs(d.llDist(0)(0) - 0.6f) < 1e-6)
  }

  test("fromColumns skips zero-weight columns entirely") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.9))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.9))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(1.0, 0.0))
    assert(d.lrDist(0)(0) == 0.2f)
  }

  test("fromColumns rejects all-zero weights") {
    intercept[IllegalArgumentException] {
      SearchData.fromColumns(Array(Array(pd(1, 2, 0.1))), Array(Array(pd(1, 3, 0.1))),
        Array(0), Array(0.0))
    }
  }

  test("fromColumns rejects misaligned columns") {
    intercept[IllegalArgumentException] {
      SearchData.fromColumns(
        Array(Array(pd(1, 2, 0.1)), Array.empty[PairDist]),
        Array(Array(pd(1, 3, 0.1)), Array(pd(1, 3, 0.1))),
        Array(0), Array(0.5, 0.5))
    }
  }

  test("left ids cover both LR left sides and LL both sides") {
    val lr = Array(pd(10, 100, 0.1))
    val ll = Array(pd(11, 12, 0.5))
    val d = SearchData.fromSingle(lr, ll, Array(0))
    assert(d.lIds.toSet == Set(10L, 11L, 12L))
  }

  /** The per-pair combine `fromColumns` had before the column-major tables:
    * boxed id maps, and per pair and slot a `Double` sum over the non-zero
    * columns in ascending order, read through `PairDist.d`.
    */
  private def reference(
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
      fids: Array[Int],
      weights: Array[Double],
  ): SearchData = {
    val cols = lrCols.indices.filter(c => weights(c) != 0.0).toArray
    val lIdSet = new scala.collection.mutable.LinkedHashSet[Long]
    lrCols(0).foreach(p => lIdSet += p.leftId)
    llCols(0).foreach { p => lIdSet += p.leftId; lIdSet += p.rightId }
    val lIds = lIdSet.toArray
    val lIdx = lIds.zipWithIndex.toMap
    val rIdSet = new scala.collection.mutable.LinkedHashSet[Long]
    lrCols(0).foreach(p => rIdSet += p.rightId)
    val rIds = rIdSet.toArray
    val rIdx = rIds.zipWithIndex.toMap
    def combine(colPairs: Array[Array[PairDist]]): (Array[Int], Array[Array[Float]]) = {
      val n = colPairs(0).length
      val left = new Array[Int](n)
      val dist = Array.ofDim[Float](fids.length, n)
      var i = 0
      while (i < n) {
        left(i) = lIdx(colPairs(0)(i).leftId)
        var s = 0
        while (s < fids.length) {
          var acc = 0.0
          var ci = 0
          while (ci < cols.length) {
            val c = cols(ci)
            acc += weights(c) * colPairs(c)(i).d(fids(s))
            ci += 1
          }
          dist(s)(i) = acc.toFloat
          s += 1
        }
        i += 1
      }
      (left, dist)
    }
    val (lrL, lrD) = combine(lrCols)
    val (llL, llD) = combine(llCols)
    new SearchData(lIds, rIds, lrL, lrCols(0).map(p => rIdx(p.rightId)), lrD,
      llL, llCols(0).map(p => lIdx(p.rightId)), llD, fids)
  }

  private def sameBits(a: SearchData, b: SearchData): Boolean = {
    def bits(t: Array[Array[Float]]) = t.map(_.map(java.lang.Float.floatToRawIntBits).toSeq).toSeq
    a.lIds.sameElements(b.lIds) && a.rIds.sameElements(b.rIds) &&
      a.lrLeft.sameElements(b.lrLeft) && a.lrRight.sameElements(b.lrRight) &&
      a.llLeft.sameElements(b.llLeft) && a.llRight.sameElements(b.llRight) &&
      bits(a.lrDist) == bits(b.lrDist) && bits(a.llDist) == bits(b.llDist) && a.fids.sameElements(b.fids)
  }

  /** 1–4 aligned columns of random pairs over a few ids (repeats allowed),
    * 4 functions, 1–4 slots, and three weight vectors with zeros.
    */
  private val columns = for {
    m <- Gen.choose(1, 4)
    nLr <- Gen.choose(1, 12)
    nLl <- Gen.choose(0, 12)
    lrIds <- Gen.listOfN(nLr, Gen.zip(Gen.choose(0L, 6L), Gen.choose(100L, 105L)))
    llIds <- Gen.listOfN(nLl, Gen.zip(Gen.choose(0L, 8L), Gen.choose(0L, 8L)))
    dist = Gen.listOfN(4, Gen.oneOf(Gen.choose(0f, 1f), Gen.oneOf(0f, 1f, 0.1f, 1e-7f))).map(_.toArray)
    lr <- Gen.listOfN(m, Gen.sequence[List[PairDist], PairDist](lrIds.map { case (l, r) => dist.map(PairDist(l, r, _)) }))
    ll <- Gen.listOfN(m, Gen.sequence[List[PairDist], PairDist](llIds.map { case (a, b) => dist.map(PairDist(a, b, _)) }))
    fids <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.choose(0, 3)))
    weights <- Gen.listOfN(3, Gen.listOfN(m, Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 1.0), Gen.oneOf(0.1, 0.3, 1.0 / 3))))
  } yield (lr.map(_.toArray).toArray, ll.map(_.toArray).toArray, fids.toArray,
           weights.map(_.toArray).filter(_.exists(_ != 0.0)))

  test("fromColumns and reused per-run tables equal the per-pair combine bit for bit (ScalaCheck)") {
    val prop = Prop.forAll(columns) { case (lr, ll, fids, weights) =>
      val tables = SearchData.Tables(lr, ll, fids, Array.fill(lr.length)(true))
      weights.forall { w =>
        val want = reference(lr, ll, fids, w)
        sameBits(SearchData.fromColumns(lr, ll, fids, w), want) && sameBits(tables.blend(w), want)
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
