package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class SearchDataSpec extends AnyFunSuite {

  private def pd(l: Long, r: Long, ds: Double*) = PairDist(l, r, ds.map(_.toFloat).toArray)

  /** The L–R distances at `[from, until)` under slot `s`, rounded. */
  private def lrRange(d: SearchData, s: Int, from: Int, until: Int): Seq[Float] = {
    val acc = new Array[Double](until - from)
    d.lrDist(s, from, until, acc)
    acc.toSeq.map(_.toFloat)
  }

  private def lrAt(d: SearchData, s: Int, j: Int): Float = lrRange(d, s, j, j + 1).head

  /** The L–L distances at `[from, until)` under slot `s`, rounded. */
  private def llRange(d: SearchData, s: Int, from: Int, until: Int): Seq[Float] = {
    val acc = new Array[Double](until - from)
    d.llDist(s, from, until, acc)
    acc.toSeq.map(_.toFloat)
  }

  private def llAt(d: SearchData, s: Int, j: Int): Float = llRange(d, s, j, j + 1).head

  test("fromSingle builds dense indices and per-slot distance arrays") {
    val lr = Array(pd(10, 100, 0.1, 0.2), pd(11, 100, 0.3, 0.4))
    val ll = Array(pd(10, 11, 0.5, 0.6), pd(11, 10, 0.5, 0.6))
    val d = SearchData.fromSingle(lr, ll, fids = Array(0, 1))
    assert(d.nLeft == 2 && d.nRight == 1 && d.nF == 2)
    assert(d.nLr == 2 && d.nLl == 2)
    assert(lrRange(d, 0, 0, d.nLr) == Seq(0.1f, 0.3f))
    assert(lrRange(d, 1, 0, d.nLr) == Seq(0.2f, 0.4f))
  }

  test("fromSingle respects the fids slice") {
    val lr = Array(pd(10, 100, 0.1, 0.2, 0.3))
    val ll = Array(pd(10, 11, 0.5, 0.6, 0.7))
    val d = SearchData.fromSingle(lr, ll, fids = Array(2))
    assert(d.nF == 1)
    assert(lrAt(d, 0, 0) == 0.3f)
    assert(llAt(d, 0, 0) == 0.7f)
  }

  test("fromColumns combines distances with the weight vector (Def. 4.1)") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.6))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.8))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(0.5, 0.5))
    assert(math.abs(lrAt(d, 0, 0) - 0.4f) < 1e-6)
    assert(math.abs(llAt(d, 0, 0) - 0.6f) < 1e-6)
  }

  test("fromColumns skips zero-weight columns entirely") {
    val lrA = Array(pd(10, 100, 0.2))
    val lrB = Array(pd(10, 100, 0.9))
    val llA = Array(pd(10, 11, 0.4))
    val llB = Array(pd(10, 11, 0.9))
    val d = SearchData.fromColumns(Array(lrA, lrB), Array(llA, llB),
      fids = Array(0), weights = Array(1.0, 0.0))
    assert(lrAt(d, 0, 0) == 0.2f)
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

  /** What a [[SearchData]] holds, as plain arrays. */
  private final case class Layout(
      lIds: Seq[Long], rIds: Seq[Long],
      lrOff: Seq[Int], lrLeft: Seq[Int], lrDist: Seq[Seq[Int]],
      llOff: Seq[Int], llRight: Seq[Int], llDist: Seq[Seq[Int]], fids: Seq[Int])

  private def bits(f: Float): Int = java.lang.Float.floatToRawIntBits(f)

  private def layout(d: SearchData): Layout = Layout(d.lIds.toSeq, d.rIds.toSeq,
    d.lrOff.toSeq, d.lrLeft.toSeq, Seq.tabulate(d.nF)(lrRange(d, _, 0, d.nLr).map(bits)),
    d.llOff.toSeq, d.llRight.toSeq, Seq.tabulate(d.nF)(llRange(d, _, 0, d.nLl).map(bits)), d.fids.toSeq)

  /** The per-pair combine `fromColumns` had before the column-major tables:
    * boxed id maps, and per pair and slot a `Double` sum over the non-zero
    * columns in ascending order, read through `PairDist.d`. The L–R pairs
    * are then grouped by right record and the L–L pairs by left record,
    * each group in input order.
    */
  private def reference(
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
      fids: Array[Int],
      weights: Array[Double],
  ): Layout = {
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
    def combine(colPairs: Array[Array[PairDist]], i: Int, s: Int): Int = {
      var acc = 0.0
      var ci = 0
      while (ci < cols.length) {
        val c = cols(ci)
        acc += weights(c) * colPairs(c)(i).d(fids(s))
        ci += 1
      }
      bits(acc.toFloat)
    }
    def grouped(colPairs: Array[Array[PairDist]], group: PairDist => Int, n: Int) = {
      val order = colPairs(0).indices.sortBy(i => group(colPairs(0)(i)))
      val off = (0 to n).map(g => colPairs(0).count(p => group(p) < g))
      (order, off, fids.indices.map(s => order.map(combine(colPairs, _, s))))
    }
    val (lrOrder, lrOff, lrDist) = grouped(lrCols, p => rIdx(p.rightId), rIds.length)
    val (llOrder, llOff, llDist) = grouped(llCols, p => lIdx(p.leftId), lIds.length)
    Layout(lIds.toSeq, rIds.toSeq, lrOff, lrOrder.map(i => lIdx(lrCols(0)(i).leftId)), lrDist,
      llOff, llOrder.map(i => lIdx(llCols(0)(i).rightId)), llDist, fids.toSeq)
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
        layout(SearchData.fromColumns(lr, ll, fids, w)) == want && layout(tables.blend(w)) == want
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("withSlots on the selection's tables equals fromColumns over the final slots (ScalaCheck)") {
    // Up to 80 slots (repeats allowed), so extraction splits them into chunks.
    val gen = Gen.zip(columns, Gen.choose(1, 80).flatMap(Gen.listOfN(_, Gen.choose(0, 3))))
    val prop = Prop.forAll(gen) { case ((lr, ll, selFids, weights), fids) =>
      val selection = SearchData.Tables(lr, ll, selFids, Array.fill(lr.length)(true))
      weights.forall { w =>
        layout(selection.withSlots(fids.toArray, w.map(_ != 0.0)).blend(w)) ==
          reference(lr, ll, fids.toArray, w)
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("each r's row read on its own, into one reused buffer, equals the per-pair combine (ScalaCheck)") {
    val prop = Prop.forAll(columns) { case (lr, ll, fids, weights) =>
      val tables = SearchData.Tables(lr, ll, fids, Array.fill(lr.length)(true))
      weights.forall { w =>
        val d = tables.blend(w)
        val want = reference(lr, ll, fids, w)
        val buf = new Array[Double](d.nLr)
        (0 until d.nF).forall { s =>
          (0 until d.nRight).forall { r =>
            val (from, until) = (d.lrOff(r), d.lrOff(r + 1))
            d.lrDist(s, from, until, buf)
            (0 until until - from).map(i => bits(buf(i).toFloat)) == want.lrDist(s).slice(want.lrOff(r), want.lrOff(r + 1))
          }
        }
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** 1–3 aligned columns of distinct L–R pairs over up to 5 left and 4 right
    * ids in random order, so first-seen order and id order disagree, with 2
    * functions whose distances sit on a coarse grid, so that nearest-l ties
    * are frequent, and a weight vector with zeros.
    */
  private val tiedColumns = for {
    m <- Gen.choose(1, 3)
    keys <- Gen.nonEmptyListOf(Gen.zip(Gen.choose(0L, 4L), Gen.choose(100L, 103L))).map(_.distinct)
    dist = Gen.listOfN(2, Gen.oneOf(0f, 0.1f, 0.2f, 0.5f, 1f)).map(_.toArray)
    lr <- Gen.listOfN(m, Gen.sequence[List[PairDist], PairDist](keys.map { case (l, r) => dist.map(PairDist(l, r, _)) }))
    w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.5, 1.0, 1.0 / 3))
  } yield (lr.map(_.toArray).toArray, (if (w.forall(_ == 0.0)) 1.0 :: w.tail else w).toArray)

  test("nearest is the brute-force least distance, ties to the smaller left id (ScalaCheck)") {
    val prop = Prop.forAll(tiedColumns) { case (lr, w) =>
      val d = SearchData.fromColumns(lr, Array.fill(lr.length)(Array.empty[PairDist]), Array(0, 1), w)
      val bestL = new Array[Int](d.nRight)
      val bestD = new Array[Float](d.nRight)
      (0 until d.nF).forall { s =>
        d.nearest(s, bestL, bestD)
        d.rIds.indices.forall { r =>
          // Def. 4.1's blend of each of r's input pairs, then (min d, min leftId).
          val (wantD, wantL) = lr(0).indices.filter(lr(0)(_).rightId == d.rIds(r)).map { i =>
            var acc = 0.0
            w.indices.foreach(c => if (w(c) != 0.0) acc += w(c) * lr(c)(i).d(s))
            (acc.toFloat, lr(0)(i).leftId)
          }.min(Ordering.Tuple2(Ordering.Float.TotalOrdering, Ordering.Long))
          bits(bestD(r)) == bits(wantD) && d.lIds(bestL(r)) == wantL
        }
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
