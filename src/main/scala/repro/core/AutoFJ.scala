package repro.core

import repro.core.ConfigSpace.JoinConfig

/** Algorithm 1: greedy recall-maximizing search over join configurations,
  * with label-free precision estimation via the 2d-ball rule (Eq. 8–13).
  *
  * The search runs on the driver over the candidate-pair distance tables
  * ([[SearchData]]). Upstream, blocking runs as one Spark job and the
  * per-pair distances are computed on driver threads
  * ([[DistanceTable]]); [[FuzzyJoinProgram.apply]] reuses both to apply the
  * learned program.
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
    * and sorted 2θ-ball distance arrays per left record.
    */
  private final class Prep(data: SearchData, thetas: Array[Double]) {
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

    /** r's with a candidate, ascending by bestD — the set joined by
      * ⟨f, θ⟩ is a prefix of this order.
      */
    val rOrder: Array[Array[Int]] = Array.tabulate(nF) { f =>
      val rs = (0 until nR).filter(bestL(f)(_) >= 0).toArray
      rs.sortBy(bestD(f)(_))
    }

    val ballOff: Array[Int] = {
      val off = new Array[Int](nL + 1)
      var i = 0
      while (i < data.nLl) { off(data.llLeft(i) + 1) += 1; i += 1 }
      i = 1
      while (i <= nL) { off(i) += off(i - 1); i += 1 }
      off
    }

    val ballDist: Array[Array[Float]] = Array.tabulate(nF) { f =>
      val out = new Array[Float](data.nLl)
      val pos = java.util.Arrays.copyOf(ballOff, nL)
      val dists = data.llDist(f)
      var i = 0
      while (i < data.nLl) {
        val l = data.llLeft(i)
        out(pos(l)) = dists(i); pos(l) += 1
        i += 1
      }
      var l = 0
      while (l < nL) { java.util.Arrays.sort(out, ballOff(l), ballOff(l + 1)); l += 1 }
      out
    }

    /** #L records within radius x of l, counting l itself (Eq. 8/9).
      * Distances are stored as floats; the radius is rounded to float so a
      * neighbor at exactly 2θ is counted (0.1f > 0.1d otherwise).
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
    val candidates: Array[(Int, Int, Int)] = { // (f, k, prefixLen)
      val out = scala.collection.mutable.ArrayBuffer.empty[(Int, Int, Int)]
      var f = 0
      while (f < nF) {
        val order = rOrder(f)
        var prev = 0
        var k = 0
        while (k < nK) {
          val th = thetas(k).toFloat
          var len = prev
          while (len < order.length && bestD(f)(order(len)) <= th) len += 1
          if (len > prev) out += ((f, k, len))
          prev = len
          k += 1
        }
        f += 1
      }
      out.toArray
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
    val nR = prep.nR

    val assignedL = Array.fill(nR)(-1)
    val assignedP = new Array[Double](nR)
    var tp = 0.0
    var fp = 0.0
    var nAssigned = 0
    val used = new Array[Boolean](prep.candidates.length)

    val lIdxOf: Map[Long, Int] = data.lIds.zipWithIndex.toMap
    val gtDense: Array[Int] =
      Array.tabulate(nR)(r => gt.get(data.rIds(r)).flatMap(lIdxOf.get).getOrElse(-1))

    /** (ΔTP, ΔFP, newJoins) of adding candidate ci, honoring the conflict
      * rule of §3.1 (replace an assignment only with a more confident one).
      */
    def delta(ci: Int): (Double, Double, Int) = {
      val (f, k, plen) = prep.candidates(ci)
      var dTP = 0.0; var dFP = 0.0; var nNew = 0
      val twoTheta = 2.0 * thetas(k)
      val order = prep.rOrder(f)
      var i = 0
      while (i < plen) {
        val r = order(i)
        val l = prep.bestL(f)(r)
        val p = 1.0 / prep.ballCount(f, l, twoTheta)
        if (assignedL(r) < 0) { dTP += p; dFP += 1.0 - p; nNew += 1 }
        else if (p > assignedP(r)) { dTP += p - assignedP(r); dFP -= p - assignedP(r) }
        i += 1
      }
      (dTP, dFP, nNew)
    }

    def commit(ci: Int): Unit = {
      val (f, k, plen) = prep.candidates(ci)
      val twoTheta = 2.0 * thetas(k)
      val order = prep.rOrder(f)
      var i = 0
      while (i < plen) {
        val r = order(i)
        val l = prep.bestL(f)(r)
        val p = 1.0 / prep.ballCount(f, l, twoTheta)
        if (assignedL(r) < 0) {
          assignedL(r) = l; assignedP(r) = p
          tp += p; fp += 1.0 - p; nAssigned += 1
        } else if (p > assignedP(r)) {
          tp += p - assignedP(r); fp -= p - assignedP(r)
          assignedL(r) = l; assignedP(r) = p
        }
        i += 1
      }
    }

    val program = Vector.newBuilder[JoinConfig]
    val trace = Vector.newBuilder[IterStat]
    var iter = 0
    var continue = true
    while (continue && iter < prep.candidates.length) {
      var best = -1
      var bestProfit = 0.0
      var bestNew = 0
      var ci = 0
      while (ci < prep.candidates.length) {
        if (!used(ci)) {
          val (dTP, dFP, nNew) = delta(ci)
          // Only configs joining a new right record can increase profit
          // (the paper's |R|-iterations termination argument).
          if (nNew > 0) {
            val profit = (tp + dTP) / math.max(fp + dFP, Eps)
            if (profit > bestProfit || (profit == bestProfit && nNew > bestNew)) {
              best = ci; bestProfit = profit; bestNew = nNew
            }
          }
        }
        ci += 1
      }
      if (best < 0 || bestNew == 0) continue = false
      else {
        val (dTP, dFP, _) = delta(best)
        val newPrec = (tp + dTP) / math.max(tp + dTP + fp + dFP, Eps)
        if (tau > 0 && newPrec <= tau) continue = false
        else {
          commit(best)
          used(best) = true
          iter += 1
          val (actP, actR) =
            if (gt.isEmpty) (-1.0, -1.0)
            else {
              var correct = 0
              var r = 0
              while (r < nR) {
                if (assignedL(r) >= 0 && assignedL(r) == gtDense(r)) correct += 1
                r += 1
              }
              (correct.toDouble / math.max(nAssigned, 1),
               if (gtTotal > 0) correct.toDouble / gtTotal else -1.0)
            }
          val (f, k, _) = prep.candidates(best)
          val cfg = JoinConfig(data.fids(f), thetas(k))
          program += cfg
          trace += IterStat(iter, cfg, tp / math.max(tp + fp, Eps), tp, actP, actR, bestNew)
        }
      }
    }

    val assignment = Map.newBuilder[Long, Long]
    val scores = Map.newBuilder[Long, Double]
    var r = 0
    while (r < nR) {
      if (assignedL(r) >= 0) {
        assignment += data.rIds(r) -> data.lIds(assignedL(r))
        scores += data.rIds(r) -> assignedP(r)
      }
      r += 1
    }
    Result(program.result(), assignment.result(), scores.result(), trace.result(),
           tp / math.max(tp + fp, Eps), tp)
  }

  /** The AutoFJ-UC ablation: exhaustively pick the *single* configuration
    * with the highest estimated TP among those whose estimated precision
    * exceeds `tau`. Returns null when no configuration qualifies.
    */
  def searchOneConfig(data: SearchData, thetas: Array[Double], tau: Double): Result = {
    val prep = new Prep(data, thetas)
    var bestIdx = -1
    var bestTP = 0.0
    var bestFP = 0.0
    var ci = 0
    while (ci < prep.candidates.length) {
      val (f, k, plen) = prep.candidates(ci)
      val twoTheta = 2.0 * thetas(k)
      val order = prep.rOrder(f)
      var tp = 0.0; var fpAcc = 0.0
      var i = 0
      while (i < plen) {
        val r = order(i)
        val p = 1.0 / prep.ballCount(f, prep.bestL(f)(r), twoTheta)
        tp += p; fpAcc += 1.0 - p
        i += 1
      }
      val prec = tp / math.max(tp + fpAcc, Eps)
      if (prec > tau && tp > bestTP) { bestIdx = ci; bestTP = tp; bestFP = fpAcc }
      ci += 1
    }
    if (bestIdx < 0) return null
    val (f, k, plen) = prep.candidates(bestIdx)
    val twoTheta = 2.0 * thetas(k)
    val order = prep.rOrder(f)
    val assignment = Map.newBuilder[Long, Long]
    val scores = Map.newBuilder[Long, Double]
    var i = 0
    while (i < plen) {
      val r = order(i)
      val l = prep.bestL(f)(r)
      assignment += data.rIds(r) -> data.lIds(l)
      scores += data.rIds(r) -> 1.0 / prep.ballCount(f, l, twoTheta)
      i += 1
    }
    val cfg = JoinConfig(data.fids(f), thetas(k))
    Result(Vector(cfg), assignment.result(), scores.result(), Vector.empty,
           bestTP / math.max(bestTP + bestFP, Eps), bestTP)
  }
}
