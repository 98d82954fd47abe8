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

  /** Shared pre-computation (§3.2's "pre-compute precision estimation"):
    * per-function nearest-l for each r, the joined-order of right records,
    * and the candidate configurations with the estimated precision of each
    * of their joins.
    */
  private final class Prep(val data: SearchData, thetas: Array[Double]) {
    val nF: Int = data.nF
    val nR: Int = data.nRight
    val nL: Int = data.nLeft
    val nK: Int = thetas.length

    val bestL: Array[Array[Int]] = Array.fill(nF)(Array.fill(nR)(-1))
    val bestD: Array[Array[Float]] = Array.fill(nF)(Array.fill(nR)(Float.MaxValue))
    locally {
      var s = 0
      while (s < nF) {
        val dists = data.lrDist(s); val bl = bestL(s); val bd = bestD(s)
        var i = 0
        while (i < data.nLr) {
          val r = data.lrRight(i); val d = dists(i)
          if (d < bd(r) || (d == bd(r) && (bl(r) < 0 || data.lrLeft(i) < bl(r)))) {
            bd(r) = d; bl(r) = data.lrLeft(i)
          }
          i += 1
        }
        s += 1
      }
    }

    /** r's with a candidate, ascending by bestD (as `Float.compare`), ties
      * by ascending r — the set joined by ⟨f, θ⟩ is a prefix of this order.
      * Sorted as primitive longs: bestD's sortable bits above r.
      */
    val rOrder: Array[Array[Int]] = Array.tabulate(nF) { f =>
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

    val ballOff: Array[Int] = {
      val off = new Array[Int](nL + 1)
      var i = 0
      while (i < data.nLl) { off(data.llLeft(i) + 1) += 1; i += 1 }
      i = 1
      while (i <= nL) { off(i) += off(i - 1); i += 1 }
      off
    }

    /** Per f, the L–L distances of each ball around an l that is some r's
      * nearest under f, sorted, at `ballOff(l)`. [[ballCount]] is asked about
      * no other ball, so the others are neither filled nor sorted.
      */
    val ballDist: Array[Array[Float]] = Array.tabulate(nF) { f =>
      val needed = new Array[Boolean](nL)
      bestL(f).foreach(l => if (l >= 0) needed(l) = true)
      val out = new Array[Float](data.nLl)
      val pos = java.util.Arrays.copyOf(ballOff, nL)
      val dists = data.llDist(f)
      var i = 0
      while (i < data.nLl) {
        val l = data.llLeft(i)
        if (needed(l)) { out(pos(l)) = dists(i); pos(l) += 1 }
        i += 1
      }
      var l = 0
      while (l < nL) {
        if (needed(l)) java.util.Arrays.sort(out, ballOff(l), ballOff(l + 1))
        l += 1
      }
      out
    }

    /** #L records within radius x of l, counting l itself (Eq. 8/9), for an
      * l that is some r's nearest under f. Distances are stored as floats;
      * the radius is rounded to float so a neighbor at exactly 2θ is counted
      * (0.1f > 0.1d otherwise).
      */
    def ballCount(f: Int, l: Int, x: Double): Int = {
      val xf = x.toFloat
      val arr = ballDist(f)
      var lo = ballOff(l); var hi = ballOff(l + 1)
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (arr(mid) <= xf) lo = mid + 1 else hi = mid
      }
      1 + (lo - ballOff(l))
    }

    /** Candidate configurations: per f, only threshold steps where the
      * joined prefix grows — among thresholds with identical joined sets
      * the smallest dominates (smaller 2θ-balls ⇒ higher estimated
      * precision), so the rest are noise.
      */
    val candidates: Array[Cand] = {
      val out = scala.collection.mutable.ArrayBuffer.empty[Cand]
      var f = 0
      while (f < nF) {
        val order = rOrder(f)
        var prev = 0
        var k = 0
        while (k < nK) {
          val th = thetas(k).toFloat
          var len = prev
          while (len < order.length && bestD(f)(order(len)) <= th) len += 1
          if (len > prev) {
            val twoTheta = 2.0 * thetas(k)
            val p = new Array[Double](len)
            var i = 0
            while (i < len) { p(i) = 1.0 / ballCount(f, bestL(f)(order(i)), twoTheta); i += 1 }
            out += Cand(f, k, p)
          }
          prev = len
          k += 1
        }
        f += 1
      }
      out.toArray
    }

    def config(c: Cand): JoinConfig = JoinConfig(data.fids(c.f), thetas(c.k))
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

    /** (ΔTP, ΔFP, newJoins) of adding c to the union. */
    def delta(c: Cand): (Double, Double, Int) = {
      val order = prep.rOrder(c.f)
      var dTP = 0.0; var dFP = 0.0; var nNew = 0
      var i = 0
      while (i < c.p.length) {
        val r = order(i); val p = c.p(i)
        if (assignedL(r) < 0) { dTP += p; dFP += 1.0 - p; nNew += 1 }
        else if (p > assignedP(r)) { dTP += p - assignedP(r); dFP -= p - assignedP(r) }
        i += 1
      }
      (dTP, dFP, nNew)
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
      var bestDelta = (0.0, 0.0, 0)
      var ci = 0
      while (ci < prep.candidates.length) {
        if (!used(ci)) {
          val d @ (dTP, dFP, nNew) = u.delta(prep.candidates(ci))
          // Only configs joining a new right record can increase profit
          // (the paper's |R|-iterations termination argument).
          if (nNew > 0) {
            val profit = (u.tp + dTP) / math.max(u.fp + dFP, Eps)
            if (profit > bestProfit || (profit == bestProfit && nNew > bestDelta._3)) {
              best = ci; bestProfit = profit; bestDelta = d
            }
          }
        }
        ci += 1
      }
      val (dTP, dFP, bestNew) = bestDelta
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
      val (dTP, dFP, _) = u.delta(c)
      if (dTP / math.max(dTP + dFP, Eps) > tau && dTP > bestTP) { best = c; bestTP = dTP }
    }
    if (best == null) u.result(Vector.empty, Vector.empty)
    else {
      u.commit(best)
      u.result(Vector(prep.config(best)), Vector.empty)
    }
  }
}
