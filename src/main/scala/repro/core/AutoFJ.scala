package repro.core

import repro.core.ConfigSpace.JoinConfig

/** Algorithm 1: greedy recall-maximizing search over join configurations,
  * with label-free precision estimation via the 2d-ball rule (Eq. 8–13).
  *
  * The search runs on the driver over the candidate-pair distance tables
  * ([[SearchData]]). Upstream, blocking ([[Blocking]]) and the per-pair
  * distances ([[DistanceTable]]) run on driver threads too;
  * [[FuzzyJoinProgram.apply]] reuses both to apply the learned program.
  */
object AutoFJ {

  /** One greedy iteration, for the PEPCC/RERCC traces of Table 2. Actual
    * precision/recall are -1 when no ground truth was supplied.
    */
  final case class IterStat(
      iter: Int,
      config: JoinConfig,
      estPrecision: Double,
      estTP: Double,
      actPrecision: Double,
      actRecall: Double,
      newJoins: Int,
  )

  /** The learned fuzzy-join program and its induced assignment.
    *
    * @param program    selected configurations (a disjunction, Def. 2.3)
    * @param assignment rId → lId for every joined right record
    * @param scores     rId → estimated precision of its final join
    * @param trace      per-iteration estimated/actual quality
    */
  final case class Result(
      program: Vector[JoinConfig],
      assignment: Map[Long, Long],
      scores: Map[Long, Double],
      trace: Vector[IterStat],
      estPrecision: Double,
      estTP: Double,
  )

  private val Eps = 1e-9

  /** Function slots per [[Par]] task of [[Prep]]. */
  private val SlotChunk = 8

  /** Shared pre-computation (§3.2's "pre-compute precision estimation"):
    * per-function nearest-l for each r, the joined-order of right records,
    * and the candidate configurations with the estimated precision of each
    * of their joins.
    *
    * Per function slot: the nearest l of each r is a pass over r's row of
    * the L–R layout, blended into a buffer ([[SearchData.lrDist]]); then
    * only the balls around the nearest l of some r that the largest θ joins
    * are blended ([[SearchData.llDist]]) and counted ([[BallCounts]]), since
    * no other ball is read. No slot reads another's results, so the slots
    * run in chunks through [[Par]], each chunk with its own ball counts and
    * row buffer, and the candidates are concatenated in slot order.
    */
  private final class Prep(val data: SearchData, thetas: Array[Double]) {
    val nF: Int = data.nF
    val nR: Int = data.nRight
    val nK: Int = thetas.length

    val bestL: Array[Array[Int]] = Array.fill(nF)(new Array[Int](nR))
    val bestD: Array[Array[Float]] = Array.fill(nF)(new Array[Float](nR))

    /** The longest r's row: the length of [[nearest]]'s buffer. */
    private val maxRow = (0 until nR).foldLeft(0)((m, r) => math.max(m, data.lrOff(r + 1) - data.lrOff(r)))

    /** Per f, the r's with a candidate, ascending by bestD (as
      * `Float.compare`), ties by ascending r — the set joined by ⟨f, θ⟩ is a
      * prefix of this order.
      */
    val rOrder: Array[Array[Int]] = new Array(nF)

    /** Candidate configurations: per f, only threshold steps where the
      * joined prefix grows — among thresholds with identical joined sets
      * the smallest dominates (smaller 2θ-balls ⇒ higher estimated
      * precision), so the rest are noise.
      */
    val candidates: Array[Cand] = Par.chunks(nF, SlotChunk) { (from, until) =>
      val out = scala.collection.mutable.ArrayBuffer.empty[Cand]
      val balls = new BallCounts(data, thetas)
      val row = new Array[Double](maxRow)
      var f = from
      while (f < until) {
        nearest(f, row)
        val order = joinOrder(f)
        rOrder(f) = order
        val bl = bestL(f); val bd = bestD(f)
        var reach = 0
        if (nK > 0) {
          val last = thetas(nK - 1).toFloat
          while (reach < order.length && bd(order(reach)) <= last) reach += 1
        }
        balls.count(f, Array.tabulate(reach)(i => bl(order(i))))
        var prev = 0
        var k = 0
        while (k < nK) {
          val th = thetas(k).toFloat
          var len = prev
          while (len < order.length && bd(order(len)) <= th) len += 1
          if (len > prev) {
            val p = new Array[Double](len)
            var i = 0
            while (i < len) { p(i) = 1.0 / balls(bl(order(i)), k); i += 1 }
            out += Cand(f, k, p)
          }
          prev = len
          k += 1
        }
        f += 1
      }
      out
    }.flatten.toArray

    /** Fills `bestL(f)`/`bestD(f)`: per r, the l of least distance under f,
      * ties to the smaller dense index; -1 for an r without a candidate.
      * `row` holds one r's blended row.
      */
    private def nearest(f: Int, row: Array[Double]): Unit = {
      val off = data.lrOff; val left = data.lrLeft
      val bl = bestL(f); val bd = bestD(f)
      var r = 0
      while (r < nR) {
        val from = off(r); val until = off(r + 1)
        data.lrDist(f, from, until, row)
        var l = -1
        var d = Float.MaxValue
        var j = from
        while (j < until) {
          val dj = row(j - from).toFloat; val lj = left(j)
          if (dj < d || (dj == d && (l < 0 || lj < l))) { d = dj; l = lj }
          j += 1
        }
        bl(r) = l; bd(r) = d
        r += 1
      }
    }

    /** `rOrder(f)`, sorted as primitive longs: bestD's sortable bits above r. */
    private def joinOrder(f: Int): Array[Int] = {
      val bl = bestL(f); val bd = bestD(f)
      val keys = new Array[Long](nR)
      var n = 0
      var r = 0
      while (r < nR) {
        if (bl(r) >= 0) {
          val bits = java.lang.Float.floatToIntBits(bd(r))
          // Flip the magnitude of negatives so signed int order is Float.compare's.
          keys(n) = (bits ^ ((bits >> 31) & 0x7fffffff)).toLong << 32 | r
          n += 1
        }
        r += 1
      }
      java.util.Arrays.sort(keys, 0, n)
      val order = new Array[Int](n)
      var i = 0
      while (i < n) { order(i) = keys(i).toInt; i += 1 }
      order
    }

    def config(c: Cand): JoinConfig = JoinConfig(data.fids(c.f), thetas(c.k))
  }

  /** |ball(l, 2θ_k)| of Eq. 8/9: #L records within radius 2θ_k of l under
    * one function slot, counting l itself. Distances are floats, and the
    * radius is `(2θ_k).toFloat`, so a neighbor at exactly 2θ is counted
    * (0.1f > 0.1d otherwise).
    *
    * [[count]] puts each member of a ball into the first θ-grid step whose
    * radius covers it — a guess from the grid's spacing, then exact
    * compares, so any non-decreasing grid is counted right — and
    * prefix-sums the steps, so [[apply]] is one read. The scratch arrays
    * are sized by min(|L|, |R|)·|θ| once and reused for every slot it counts.
    */
  private[core] final class BallCounts(data: SearchData, thetas: Array[Double]) {
    private val nK = thetas.length
    require((1 until nK).forall(k => thetas(k - 1) <= thetas(k)), "thresholds must be non-decreasing")
    private val radius = thetas.map(t => (2.0 * t).toFloat)
    private val lo = if (nK > 0) radius(0) else 0f
    private val hi = if (nK > 0) radius(nK - 1) else Float.NegativeInfinity
    private val perStep = if (hi > lo) (nK - 1) / (hi.toDouble - lo) else 0.0
    /** Ball l's cumulative counts at `row(l) * nK`, or -1 if not counted. */
    private val row = Array.fill(data.nLeft)(-1)
    private val cum = new Array[Int](math.min(data.nLeft, data.nRight) * nK)
    private val counted = new Array[Int](math.min(data.nLeft, data.nRight))
    private var nCounted = 0
    private val hist = new Array[Int](nK)
    private var acc = new Array[Double](16)

    /** Counts the balls `ls` (repeats allowed, at most min(|L|, |R|)
      * distinct) under slot `s`, replacing the previous slot's counts.
      */
    def count(s: Int, ls: Array[Int]): Unit = {
      var i = 0
      while (i < nCounted) { row(counted(i)) = -1; i += 1 }
      nCounted = 0
      i = 0
      while (i < ls.length) {
        val l = ls(i)
        if (row(l) < 0) {
          row(l) = nCounted; counted(nCounted) = l
          val from = data.llOff(l); val size = data.llOff(l + 1) - from
          if (acc.length < size) acc = new Array[Double](math.max(size, 2 * acc.length))
          data.llDist(s, from, from + size, acc)
          var j = 0
          while (j < size) {
            val d = acc(j).toFloat
            if (d <= hi) {
              var k = if (d <= lo) 0 else math.min(nK - 1, ((d - lo) * perStep).toInt + 1)
              while (d > radius(k)) k += 1
              while (k > 0 && d <= radius(k - 1)) k -= 1
              hist(k) += 1
            }
            j += 1
          }
          val base = nCounted * nK
          var sum = 0
          var k = 0
          while (k < nK) { sum += hist(k); hist(k) = 0; cum(base + k) = sum; k += 1 }
          nCounted += 1
        }
        i += 1
      }
    }

    /** |ball(l, 2θ_k)| for an l of the last [[count]]. */
    def apply(l: Int, k: Int): Int = 1 + cum(row(l) * nK + k)
  }

  /** Configuration ⟨f, θ_k⟩: it joins the first `p.length` right records of
    * `rOrder(f)`, the i-th with estimated precision `p(i)` = 1/|ball(l, 2θ)|.
    * That estimate does not depend on the union, so it is computed once.
    */
  private final case class Cand(f: Int, k: Int, p: Array[Double])

  /** The union U of committed configurations and its induced assignment.
    * A right record joined by several configurations keeps the most
    * confident join (the conflict rule of §3.1).
    */
  private final class Union(prep: Prep) {
    val assignedL: Array[Int] = Array.fill(prep.nR)(-1)
    val assignedP = new Array[Double](prep.nR)
    var tp = 0.0
    var fp = 0.0
    var nAssigned = 0

    def precision: Double = tp / math.max(tp + fp, Eps)

    /** ΔTP and ΔFP of the last [[delta]]. */
    var dTP = 0.0
    var dFP = 0.0

    /** Sets [[dTP]]/[[dFP]] to the change of adding c to the union and
      * returns the number of right records c newly joins.
      */
    def delta(c: Cand): Int = {
      val order = prep.rOrder(c.f)
      var addTP = 0.0; var addFP = 0.0; var nNew = 0
      var i = 0
      while (i < c.p.length) {
        val r = order(i); val p = c.p(i)
        if (assignedL(r) < 0) { addTP += p; addFP += 1.0 - p; nNew += 1 }
        else if (p > assignedP(r)) { addTP += p - assignedP(r); addFP -= p - assignedP(r) }
        i += 1
      }
      dTP = addTP; dFP = addFP
      nNew
    }

    def commit(c: Cand): Unit = {
      val order = prep.rOrder(c.f)
      val bl = prep.bestL(c.f)
      var i = 0
      while (i < c.p.length) {
        val r = order(i); val p = c.p(i)
        if (assignedL(r) < 0) {
          assignedL(r) = bl(r); assignedP(r) = p
          tp += p; fp += 1.0 - p; nAssigned += 1
        } else if (p > assignedP(r)) {
          tp += p - assignedP(r); fp -= p - assignedP(r)
          assignedL(r) = bl(r); assignedP(r) = p
        }
        i += 1
      }
    }

    def result(program: Vector[JoinConfig], trace: Vector[IterStat]): Result = {
      val assignment = Map.newBuilder[Long, Long]
      val scores = Map.newBuilder[Long, Double]
      var r = 0
      while (r < prep.nR) {
        if (assignedL(r) >= 0) {
          assignment += prep.data.rIds(r) -> prep.data.lIds(assignedL(r))
          scores += prep.data.rIds(r) -> assignedP(r)
        }
        r += 1
      }
      Result(program, assignment.result(), scores.result(), trace, precision, tp)
    }
  }

  /** Run the greedy search (Algorithm 1).
    *
    * @param data    candidate pairs + distances for the function slots
    * @param thetas  ascending threshold grid (s = 50 steps by default)
    * @param tau     precision target; pass tau <= 0 for an unbounded run
    *                (used to build PR curves), which only stops when no
    *                remaining configuration joins a new right record
    * @param gt      optional ground truth (rId → lId) for trace actuals
    * @param gtTotal |{r : J_G(r) ≠ ∅}| — denominator of normalized recall
    */
  def search(
      data: SearchData,
      thetas: Array[Double],
      tau: Double,
      gt: Map[Long, Long] = Map.empty,
      gtTotal: Int = 0,
  ): Result = {
    val prep = new Prep(data, thetas)
    val u = new Union(prep)
    val used = new Array[Boolean](prep.candidates.length)

    // Ground truth by dense index, read by the actual-P/R trace only.
    val gtDense: Array[Int] =
      if (gt.isEmpty) Array.emptyIntArray
      else {
        val lIdxOf: Map[Long, Int] = data.lIds.zipWithIndex.toMap
        Array.tabulate(prep.nR)(r => gt.get(data.rIds(r)).flatMap(lIdxOf.get).getOrElse(-1))
      }

    val program = Vector.newBuilder[JoinConfig]
    val trace = Vector.newBuilder[IterStat]
    var iter = 0
    var continue = true
    while (continue && iter < prep.candidates.length) {
      var best = -1
      var bestProfit = 0.0
      var dTP = 0.0
      var dFP = 0.0
      var bestNew = 0
      var ci = 0
      while (ci < prep.candidates.length) {
        if (!used(ci)) {
          val nNew = u.delta(prep.candidates(ci))
          // Only configs joining a new right record can increase profit
          // (the paper's |R|-iterations termination argument).
          if (nNew > 0) {
            val profit = (u.tp + u.dTP) / math.max(u.fp + u.dFP, Eps)
            if (profit > bestProfit || (profit == bestProfit && nNew > bestNew)) {
              best = ci; bestProfit = profit; dTP = u.dTP; dFP = u.dFP; bestNew = nNew
            }
          }
        }
        ci += 1
      }
      if (best < 0) continue = false
      else {
        val newPrec = (u.tp + dTP) / math.max(u.tp + dTP + u.fp + dFP, Eps)
        if (tau > 0 && newPrec <= tau) continue = false
        else {
          u.commit(prep.candidates(best))
          used(best) = true
          iter += 1
          val (actP, actR) =
            if (gt.isEmpty) (-1.0, -1.0)
            else {
              var correct = 0
              var r = 0
              while (r < prep.nR) {
                if (u.assignedL(r) >= 0 && u.assignedL(r) == gtDense(r)) correct += 1
                r += 1
              }
              (correct.toDouble / math.max(u.nAssigned, 1),
               if (gtTotal > 0) correct.toDouble / gtTotal else -1.0)
            }
          val cfg = prep.config(prep.candidates(best))
          program += cfg
          trace += IterStat(iter, cfg, u.precision, u.tp, actP, actR, bestNew)
        }
      }
    }
    u.result(program.result(), trace.result())
  }

  /** The AutoFJ-UC ablation: exhaustively pick the *single* configuration
    * with the highest estimated TP among those whose estimated precision
    * exceeds `tau`; ties go to the first candidate (smaller function slot,
    * then smaller θ). When no configuration qualifies, the result is empty
    * (no program, no assignment, estTP 0), as from [[search]].
    */
  def searchOneConfig(data: SearchData, thetas: Array[Double], tau: Double): Result = {
    val prep = new Prep(data, thetas)
    val u = new Union(prep)
    var best: Cand = null
    var bestTP = 0.0
    prep.candidates.foreach { c =>
      u.delta(c)
      if (u.dTP / math.max(u.dTP + u.dFP, Eps) > tau && u.dTP > bestTP) { best = c; bestTP = u.dTP }
    }
    if (best == null) u.result(Vector.empty, Vector.empty)
    else {
      u.commit(best)
      u.result(Vector(prep.config(best)), Vector.empty)
    }
  }
}
