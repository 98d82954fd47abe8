package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

/** Driver-side search tests on hand-built distance tables — the 1-D
  * analogue of the Figure 4 grid world.
  */
class AutoFJSearchSpec extends AnyFunSuite {

  /** Single-function SearchData from explicit distances. */
  private def data1(
      lr: Seq[(Long, Long, Double)],
      ll: Seq[(Long, Long, Double)],
  ): SearchData =
    SearchData.fromSingle(
      lr.map { case (l, r, d) => PairDist(l, r, Array(d.toFloat)) }.toArray,
      ll.map { case (l, r, d) => PairDist(l, r, Array(d.toFloat)) }.toArray,
      fids = Array(0))

  /** Two-function SearchData (for conflict tests). */
  private def data2(
      lr: Seq[(Long, Long, Double, Double)],
      ll: Seq[(Long, Long, Double, Double)],
  ): SearchData =
    SearchData.fromSingle(
      lr.map { case (l, r, d0, d1) => PairDist(l, r, Array(d0.toFloat, d1.toFloat)) }.toArray,
      ll.map { case (l, r, d0, d1) => PairDist(l, r, Array(d0.toFloat, d1.toFloat)) }.toArray,
      fids = Array(0, 1))

  // Reference records on a 1-D grid at positions 0, 10, 20, 30 (unit = /100).
  private val grid = Seq(0L -> 0, 1L -> 10, 2L -> 20, 3L -> 30)
  private val llGrid = for {
    (a, pa) <- grid; (b, pb) <- grid if a != b
  } yield (a, b, math.abs(pa - pb) / 100.0)

  // r1 sits near l0 (a "safe" join); r2 sits between l0 and l1 (unsafe —
  // its true counterpart is missing, the Figure 4(b) case).
  private val lrGrid = Seq(
    (0L, 100L, 0.02), (1L, 100L, 0.08),
    (0L, 101L, 0.049), (1L, 101L, 0.051),
  )

  test("2d-ball: safe join estimated at precision 1, unsafe at 1/2") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.search(d, thetas = Array(0.02, 0.05), tau = 0.0)
    assert(res.assignment == Map(100L -> 0L, 101L -> 0L))
    assert(res.scores(100L) == 1.0, "clean 2d-ball around l0 for r1")
    assert(res.scores(101L) == 0.5, "l1 falls inside the 2d-ball for r2")
  }

  test("precision target stops the greedy before the unsafe join") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.search(d, thetas = Array(0.02, 0.05), tau = 0.9)
    assert(res.assignment == Map(100L -> 0L))
    assert(res.estPrecision == 1.0)
    assert(res.program.size == 1)
    assert(res.program.head.theta == 0.02)
  }

  test("lower precision target admits the unsafe join") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.search(d, thetas = Array(0.02, 0.05), tau = 0.6)
    assert(res.assignment == Map(100L -> 0L, 101L -> 0L))
    assert(math.abs(res.estPrecision - 0.75) < 1e-9)
  }

  test("each r joins its closest l (Eq. 1)") {
    val lr = Seq((0L, 100L, 0.3), (1L, 100L, 0.1), (2L, 100L, 0.5))
    val res = AutoFJ.search(data1(lr, llGrid), thetas = Array(0.5), tau = 0.0)
    assert(res.assignment == Map(100L -> 1L))
  }

  test("greedy prefers the high-profit (clean) configuration first") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.search(d, thetas = Array(0.02, 0.05), tau = 0.0)
    assert(res.program.head.theta == 0.02, "clean config selected first")
    assert(res.trace.head.estPrecision == 1.0)
  }

  test("trace carries actuals when ground truth is provided") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.search(d, thetas = Array(0.02, 0.05), tau = 0.0,
      gt = Map(100L -> 0L, 101L -> 1L), gtTotal = 2)
    assert(res.trace.head.actPrecision == 1.0)
    assert(res.trace.head.actRecall == 0.5)
    assert(res.trace.last.actPrecision == 0.5) // r2 joined to l0 but gt says l1
  }

  test("conflict resolution: the more confident assignment wins") {
    // f0 joins r->l0 with a crowded ball; f1 joins r->l1 with a clean ball.
    val lr = Seq(
      (0L, 100L, 0.05, 0.9),
      (1L, 100L, 0.9, 0.02),
    )
    val ll = Seq(
      (0L, 1L, 0.08, 0.9), (1L, 0L, 0.08, 0.9), // l1 inside f0's 2θ-ball of l0
      (0L, 2L, 0.09, 0.9), (2L, 0L, 0.09, 0.9),
      (1L, 2L, 0.9, 0.9), (2L, 1L, 0.9, 0.9),
    )
    val res = AutoFJ.search(data2(lr, ll), thetas = Array(0.05), tau = 0.0)
    // Under f0: ball(l0, 0.1) = {l0, l1, l2} -> prec 1/3.
    // Under f1: ball(l1, 0.1) = {l1} -> prec 1.
    assert(res.assignment == Map(100L -> 1L))
    assert(res.scores(100L) == 1.0)
  }

  test("no joinable candidates yields an empty program") {
    // The only pair sits beyond every threshold.
    val res = AutoFJ.search(data1(Seq((0L, 100L, 0.9)), llGrid),
      thetas = Array(0.1, 0.2), tau = 0.9)
    assert(res.assignment.isEmpty)
    assert(res.program.isEmpty)
  }

  test("empty L-R table yields an empty result") {
    val res = AutoFJ.search(data1(Seq.empty, llGrid), thetas = Array(0.1), tau = 0.9)
    assert(res.assignment.isEmpty && res.program.isEmpty && res.estTP == 0.0)
  }

  test("searchOneConfig picks the max-TP config meeting the target") {
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.searchOneConfig(d, thetas = Array(0.02, 0.05), tau = 0.9)
    assert(res.assignment == Map(100L -> 0L))
    assert(res.program.size == 1)
  }

  test("searchOneConfig returns an empty result when nothing meets the target") {
    // Only the unsafe pair exists: precision 0.5 < 0.9 everywhere.
    val lr = Seq((0L, 101L, 0.049), (1L, 101L, 0.051))
    val res = AutoFJ.searchOneConfig(data1(lr, llGrid), thetas = Array(0.05), tau = 0.9)
    assert(res.program.isEmpty && res.assignment.isEmpty && res.estTP == 0.0)
  }

  test("searchOneConfig with tau=0 joins through the best single config") {
    // θ=0.02 gives TP=1 (one clean join); θ=0.05 gives TP=0.5+0.5=1 too —
    // a tie, resolved to the first (smaller θ) config deterministically.
    val d = data1(lrGrid, llGrid)
    val res = AutoFJ.searchOneConfig(d, thetas = Array(0.02, 0.05), tau = 0.0)
    assert(res.program.map(_.theta) == Vector(0.02))
    assert(res.assignment == Map(100L -> 0L))
    assert(math.abs(res.estTP - 1.0) < 1e-9)
  }

  test("deterministic: same input, same program") {
    val d1 = data1(lrGrid, llGrid)
    val d2 = data1(lrGrid, llGrid)
    val a = AutoFJ.search(d1, Array(0.02, 0.05), 0.9)
    val b = AutoFJ.search(d2, Array(0.02, 0.05), 0.9)
    assert(a.program == b.program && a.assignment == b.assignment)
  }

  /** Small random tables: up to 6 left and 8 right records, 1–2 functions,
    * distances on a coarse grid so that ties are common.
    */
  private val smallTables: Gen[(Array[PairDist], Array[PairDist], Int)] = for {
    nL <- Gen.choose(1, 6)
    nR <- Gen.choose(1, 8)
    nF <- Gen.choose(1, 2)
    dist = Gen.listOfN(nF, Gen.choose(0, 10).map(i => (i / 20.0).toFloat)).map(_.toArray)
    lrKeys <- Gen.someOf(for (l <- 0 until nL; r <- 0 until nR) yield (l.toLong, 100L + r))
    lr <- Gen.sequence[List[PairDist], PairDist](lrKeys.map { case (l, r) => dist.map(PairDist(l, r, _)) })
    llKeys <- Gen.someOf(for (a <- 0 until nL; b <- 0 until nL if a != b) yield (a.toLong, b.toLong))
    ll <- Gen.sequence[List[PairDist], PairDist](llKeys.map { case (a, b) => dist.map(PairDist(a, b, _)) })
  } yield (lr.toArray, ll.toArray, nF)

  private val smallData: Gen[SearchData] =
    smallTables.map { case (lr, ll, nF) => SearchData.fromSingle(lr, ll, fids = (0 until nF).toArray) }

  test("random tables: results are consistent with their estimates (ScalaCheck)") {
    val thetas = Array(0.05, 0.1, 0.2, 0.3, 0.5)
    val prop = Prop.forAll(smallData, Gen.oneOf(0.0, 0.57, 0.83)) { (d, tau) =>
      def consistent(res: AutoFJ.Result): Boolean =
        res.assignment.keySet == res.scores.keySet &&
          math.abs(res.estTP - res.scores.values.sum) < 1e-9 &&
          (tau <= 0 || res.program.isEmpty || res.estPrecision > tau)
      val one = AutoFJ.searchOneConfig(d, thetas, tau)
      consistent(AutoFJ.search(d, thetas, tau)) && consistent(one) &&
        ((one.program.isEmpty && one.assignment.isEmpty && one.estTP == 0.0) ||
          (one.program.size == 1 && one.estPrecision > tau))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** rId → (lId, score) by brute force over the input pairs: each program
    * config ⟨f, θ⟩ joins every r whose nearest l (ties: the smaller leftId)
    * is within θ, at precision 1 / (1 + #{l' : d_ll(l, l') ≤ (2θ).toFloat});
    * configs apply in program order and a later one replaces a join only
    * when it is more confident.
    */
  private def bruteForce(lr: Array[PairDist], ll: Array[PairDist], program: Vector[ConfigSpace.JoinConfig])
      : Map[Long, (Long, Double)] = {
    val out = scala.collection.mutable.Map.empty[Long, (Long, Double)]
    program.foreach { cfg =>
      lr.groupBy(_.rightId).foreach { case (rid, pairs) =>
        val dMin = pairs.map(_.d(cfg.fId)).min
        if (dMin <= cfg.theta.toFloat) {
          val l = pairs.filter(_.d(cfg.fId) == dMin).map(_.leftId).min
          val ball = ll.count(p => p.leftId == l && p.d(cfg.fId) <= (2.0 * cfg.theta).toFloat)
          val p = 1.0 / (1 + ball)
          if (out.get(rid).forall(p > _._2)) out(rid) = (l, p)
        }
      }
    }
    out.toMap
  }

  test("random tables: every score is the brute-force 2θ-ball estimate of its join (ScalaCheck)") {
    val thetas = Array(0.05, 0.1, 0.2, 0.3, 0.5)
    val prop = Prop.forAll(smallTables, Gen.oneOf(0.0, 0.57, 0.83)) { case ((lr, ll, nF), tau) =>
      val d = SearchData.fromSingle(lr, ll, fids = (0 until nF).toArray)
      Seq(AutoFJ.search(d, thetas, tau), AutoFJ.searchOneConfig(d, thetas, tau)).forall { res =>
        val want = bruteForce(lr, ll, res.program)
        res.assignment == want.map { case (r, (l, _)) => r -> l } &&
          res.scores == want.map { case (r, (_, p)) => r -> p }
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** θ grids the ball counts must handle: uniform, non-uniform, with
    * repeated steps, and with steps whose 2θ rounds to a float above or
    * below the double.
    */
  private val grids: Gen[Array[Double]] = {
    val sensitive = Gen.oneOf(0.05, 0.1, 1.0 / 3, 0.15, 0.35, 0.45, 0.3, 1e-8, 0.5)
    val step = Gen.frequency(3 -> Gen.choose(0.0, 0.6), 2 -> sensitive)
    Gen.oneOf(
      Gen.choose(1, 50).map(ConfigSpace.thresholds(_)),
      Gen.choose(1, 12).flatMap(Gen.listOfN(_, step)).map(_.sorted.toArray),
      Gen.choose(1, 6).flatMap(Gen.listOfN(_, step)).map(ts => (ts ++ ts).sorted.toArray))
  }

  /** A grid, 1–3 columns of L–L pairs over up to 6 left records whose
    * distances often sit on a radius (2θ).toFloat or one float from it,
    * columns that repeat column 0's vectors or draw their own, weights
    * with zeros, and the function slots.
    */
  private val ballCases = for {
    thetas <- grids
    onRadius = Gen.oneOf(thetas.toSeq).map(t => (2.0 * t).toFloat)
      .flatMap(r => Gen.oneOf(r, Math.nextUp(r), Math.nextDown(r)))
    dist = Gen.frequency(3 -> onRadius, 1 -> Gen.choose(0f, 1.2f), 1 -> Gen.oneOf(0f, 1f))
    vec = Gen.listOfN(2, dist).map(_.toArray)
    m <- Gen.choose(1, 3)
    nL <- Gen.choose(1, 6)
    keys <- Gen.someOf(for (a <- 0 until nL; b <- 0 until nL if a != b) yield (a.toLong, b.toLong))
    col0 <- Gen.listOfN(keys.size, vec)
    rest <- Gen.listOfN(m - 1, Gen.sequence[List[Array[Float]], Array[Float]](
      col0.map(v => Gen.oneOf(Gen.const(v), vec))))
    w <- Gen.listOfN(m, Gen.oneOf(0.0, 0.0, 1.0, 0.5, 0.25, 1.0 / 3, 0.7))
    fids <- Gen.oneOf(Seq(Array(0, 1), Array(1, 0), Array(1)))
  } yield {
    val ll = (col0 :: rest).map(vs => keys.toArray.zip(vs).map { case ((a, b), v) => PairDist(a, b, v) }).toArray
    val lr = Array.fill(m)(Array.tabulate(nL)(l => PairDist(l.toLong, 100L + l, Array(0f, 0f))))
    (thetas, lr, ll, (if (w.forall(_ == 0.0)) 1.0 :: w.tail else w).toArray, fids)
  }

  test("ball counts equal 1 + #{d <= (2θ).toFloat} over the blended L-L pairs (ScalaCheck)") {
    val prop = Prop.forAll(ballCases) { case (thetas, lr, ll, w, fids) =>
      val data = SearchData.fromColumns(lr, ll, fids, w)
      val counts = new AutoFJ.BallCounts(data, thetas)
      fids.indices.forall { s =>
        counts.count(s, Array.tabulate(2 * data.nLeft)(_ % data.nLeft))
        data.lIds.indices.forall { l =>
          // The blend of Def. 4.1, from the input pairs.
          val ds = ll(0).indices.filter(i => ll(0)(i).leftId == data.lIds(l)).map { i =>
            var acc = 0.0
            w.indices.foreach(c => if (w(c) != 0.0) acc += w(c) * ll(c)(i).d(fids(s)))
            acc.toFloat
          }
          thetas.indices.forall(k => counts(l, k) == 1 + ds.count(_ <= (2.0 * thetas(k)).toFloat))
        }
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
