package repro.baselines

import repro.eval.Metrics.Scored
import scala.util.Random

/** Active Learning (modAL-style): uncertainty sampling around a logistic
  * regression. Starting from a small random seed set, the learner
  * repeatedly queries the pairs it is least certain about (the simulated
  * oracle answers from the ground truth) until 50% of the positive pairs
  * in the data are labeled, then scores every candidate pair.
  */
object ActiveLearning {

  final case class Logistic(w: Array[Double], b: Double) {
    def p(x: Array[Double]): Double = {
      var z = b
      var j = 0
      while (j < x.length) { z += w(j) * x(j); j += 1 }
      1.0 / (1.0 + math.exp(-z))
    }
  }

  /** Batch-gradient logistic regression with L2 regularization and
    * class re-weighting (candidate pools are ~1:√|L| imbalanced; without
    * re-weighting the model collapses to a constant low score and every
    * ranking tie-breaks arbitrarily).
    */
  def fitLogistic(
      x: Array[Array[Double]], y: Array[Double],
      epochs: Int = 400, lr: Double = 0.5, l2: Double = 1e-4,
  ): Logistic = {
    val n = x.length; val d = x(0).length
    val nPos = y.count(_ == 1.0)
    val nNeg = n - nPos
    val wPos = if (nPos == 0) 1.0 else n.toDouble / (2.0 * nPos)
    val wNeg = if (nNeg == 0) 1.0 else n.toDouble / (2.0 * nNeg)
    val w = new Array[Double](d)
    var b = 0.0
    var e = 0
    while (e < epochs) {
      val gw = new Array[Double](d)
      var gb = 0.0
      var wSum = 0.0
      var i = 0
      while (i < n) {
        var z = b
        var j = 0
        while (j < d) { z += w(j) * x(i)(j); j += 1 }
        val cw = if (y(i) == 1.0) wPos else wNeg
        val err = cw * (1.0 / (1.0 + math.exp(-z)) - y(i))
        j = 0
        while (j < d) { gw(j) += err * x(i)(j); j += 1 }
        gb += err
        wSum += cw
        i += 1
      }
      var j = 0
      while (j < d) { w(j) -= lr * (gw(j) / wSum + l2 * w(j)); j += 1 }
      b -= lr * gb / wSum
      e += 1
    }
    Logistic(w, b)
  }

  /** `pool` ordered by |p(i) − 0.5|, least certain first, ties in pool
    * order. Each key is computed once, not once per comparison.
    */
  private[baselines] def uncertainFirst(pool: IndexedSeq[Int], p: Int => Double): IndexedSeq[Int] = {
    val key = pool.map(i => math.abs(p(i) - 0.5)).toArray
    pool.indices.sortBy(key(_))(Ordering.Double.TotalOrdering).map(pool)
  }

  def run(
      pairs: Seq[CandPair],
      feats: Seq[Array[Double]],
      gt: Map[Long, Long],
      seed: Long = 17,
      batch: Int = 50,
  ): Vector[Scored] = {
    if (pairs.isEmpty) return Vector.empty
    val n = pairs.length
    // Standardize per feature over the whole pool — scale-free gradients.
    val x: Array[Array[Double]] = {
      val raw = feats.toArray
      val d = raw(0).length
      val mean = new Array[Double](d); val sd = new Array[Double](d)
      raw.foreach { row => var j = 0; while (j < d) { mean(j) += row(j); j += 1 } }
      (0 until d).foreach(j => mean(j) /= n)
      raw.foreach { row =>
        var j = 0
        while (j < d) { val dd = row(j) - mean(j); sd(j) += dd * dd; j += 1 }
      }
      (0 until d).foreach(j => sd(j) = math.max(math.sqrt(sd(j) / n), 1e-9))
      raw.map(row => Array.tabulate(d)(j => (row(j) - mean(j)) / sd(j)))
    }
    val labels = pairs.map(p => if (gt.get(p.rId).contains(p.lId)) 1.0 else 0.0).toArray
    val totalPos = labels.count(_ == 1.0).toInt
    val posBudget = math.max(1, totalPos / 2)

    val rng = new Random(seed)
    val labeled = scala.collection.mutable.LinkedHashSet.empty[Int]
    rng.shuffle((0 until n).toVector).take(math.min(10, n)).foreach(labeled += _)

    var model: Logistic = null
    var continue = true
    while (continue) {
      val idx = labeled.toArray
      val ys = idx.map(labels)
      // Bound per-round work: fewer epochs as the labeled set grows keeps
      // the whole uncertainty loop O(#rounds · 60k) regardless of pool size.
      val epochs = math.max(60, math.min(400, 60000 / math.max(idx.length, 1)))
      model =
        if (ys.distinct.length < 2) null
        else fitLogistic(idx.map(x), ys, epochs = epochs)
      val posLabeled = idx.count(labels(_) == 1.0)
      if (posLabeled >= posBudget || labeled.size >= n) continue = false
      else {
        val unlabeled = (0 until n).filterNot(labeled.contains)
        val pick =
          if (model == null) rng.shuffle(unlabeled.toVector).take(batch)
          else uncertainFirst(unlabeled, i => model.p(x(i))).take(batch)
        pick.foreach(labeled += _)
      }
    }

    val score: Int => Double =
      if (model == null) i => x(i).sum / x(i).length else i => model.p(x(i))
    ScoredBaselines.bestPerRight(pairs.indices.map(i => pairs(i) -> score(i)))
  }
}
