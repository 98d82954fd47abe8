package repro.baselines

import repro.eval.Metrics.Scored

/** ECM [23, 24]: the Fellegi–Sunter record-linkage model with *binary*
  * features (each similarity binarized at its mean, as in §5.1.3) fit by
  * Expectation-Conditional-Maximization. Each binary feature k has match/
  * non-match Bernoulli rates (m_k, u_k); a pair's score is the posterior
  * match probability under conditional independence.
  */
object ECM {

  final case class Model(p: Double, m: Array[Double], u: Array[Double])

  /** Binarize features at their column means. */
  def binarize(feats: Array[Array[Double]]): Array[Array[Int]] = {
    val n = feats.length; val d = feats(0).length
    val mean = new Array[Double](d)
    feats.foreach { row => var j = 0; while (j < d) { mean(j) += row(j); j += 1 } }
    var j = 0
    while (j < d) { mean(j) /= n; j += 1 }
    feats.map { row => Array.tabulate(d)(k => if (row(k) > mean(k)) 1 else 0) }
  }

  def fit(g: Array[Array[Int]], iters: Int = 100): Model = {
    val n = g.length; val d = g(0).length
    var p = 0.1
    val m = Array.fill(d)(0.9)
    val u = Array.fill(d)(0.1)
    var it = 0
    while (it < iters) {
      // E-step: it reads m and u before the CM-steps below write them.
      val model = Model(p, m, u)
      val w = g.map(posterior(_, model))
      // CM-steps.
      val sw = w.sum
      p = clamp(sw / n)
      val nm = new Array[Double](d); val nu = new Array[Double](d)
      var i = 0
      while (i < n) {
        var k = 0
        while (k < d) {
          if (g(i)(k) == 1) { nm(k) += w(i); nu(k) += 1 - w(i) }
          k += 1
        }
        i += 1
      }
      var k = 0
      while (k < d) {
        m(k) = clamp(nm(k) / math.max(sw, 1e-9))
        u(k) = clamp(nu(k) / math.max(n - sw, 1e-9))
        k += 1
      }
      it += 1
    }
    Model(p, m, u)
  }

  private def clamp(x: Double): Double = math.min(1 - 1e-6, math.max(1e-6, x))

  def posterior(row: Array[Int], model: Model): Double = {
    var lm = math.log(model.p); var lu = math.log(1 - model.p)
    var k = 0
    while (k < row.length) {
      lm += (if (row(k) == 1) math.log(clamp(model.m(k))) else math.log(clamp(1 - model.m(k))))
      lu += (if (row(k) == 1) math.log(clamp(model.u(k))) else math.log(clamp(1 - model.u(k))))
      k += 1
    }
    val mx = math.max(lm, lu)
    val em = math.exp(lm - mx); val eu = math.exp(lu - mx)
    em / (em + eu)
  }

  def run(pairs: Seq[CandPair], feats: Seq[Array[Double]]): Vector[Scored] = {
    if (pairs.isEmpty) return Vector.empty
    val g = binarize(feats.toArray)
    val model = fit(g)
    ScoredBaselines.bestPerRight(pairs.zip(g).map { case (p, row) => p -> posterior(row, model) })
  }
}
