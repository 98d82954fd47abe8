package repro.baselines

import repro.eval.Metrics.Scored

/** ZeroER [47]: unsupervised entity resolution with a two-component
  * Gaussian mixture (diagonal covariance) over Magellan-style similarity
  * features, fit with EM; a pair's score is the posterior of the match
  * component. The match component is identified as the one with the
  * larger mean feature vector (features are similarities).
  */
object ZeroER {

  final case class Model(
      priorMatch: Double,
      muM: Array[Double], varM: Array[Double],
      muU: Array[Double], varU: Array[Double],
  )

  private val VarFloor = 1e-4

  def fit(x: Array[Array[Double]], iters: Int = 60): Model = {
    val n = x.length
    val d = x(0).length
    // Init: seed the match component with the top decile by mean feature.
    val rowMean = x.map(row => row.sum / d)
    val sortedIdx = rowMean.zipWithIndex.sortBy(-_._1).map(_._2)
    val nSeed = math.max(2, n / 10)
    val resp = new Array[Double](n)
    sortedIdx.take(nSeed).foreach(i => resp(i) = 1.0)

    var model = mStep(x, resp)
    var it = 0
    while (it < iters) {
      val r = eStep(x, model)
      model = mStep(x, r)
      it += 1
    }
    // Ensure the "match" component is the high-similarity one.
    if (model.muM.sum < model.muU.sum)
      model = Model(1.0 - model.priorMatch, model.muU, model.varU, model.muM, model.varM)
    model
  }

  private def logGauss(x: Array[Double], mu: Array[Double], vr: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < x.length) {
      val v = math.max(vr(j), VarFloor)
      val diff = x(j) - mu(j)
      s += -0.5 * (math.log(2 * math.Pi * v) + diff * diff / v)
      j += 1
    }
    s
  }

  def posterior(x: Array[Double], m: Model): Double = {
    val lm = math.log(math.max(m.priorMatch, 1e-12)) + logGauss(x, m.muM, m.varM)
    val lu = math.log(math.max(1 - m.priorMatch, 1e-12)) + logGauss(x, m.muU, m.varU)
    val mx = math.max(lm, lu)
    val em = math.exp(lm - mx); val eu = math.exp(lu - mx)
    em / (em + eu)
  }

  private def eStep(x: Array[Array[Double]], m: Model): Array[Double] =
    x.map(posterior(_, m))

  private def mStep(x: Array[Array[Double]], resp: Array[Double]): Model = {
    val n = x.length; val d = x(0).length
    val wM = resp.sum
    val wU = n - wM
    val muM = new Array[Double](d); val muU = new Array[Double](d)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < d) { muM(j) += resp(i) * x(i)(j); muU(j) += (1 - resp(i)) * x(i)(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < d) { muM(j) /= math.max(wM, 1e-9); muU(j) /= math.max(wU, 1e-9); j += 1 }
    val varM = new Array[Double](d); val varU = new Array[Double](d)
    i = 0
    while (i < n) {
      j = 0
      while (j < d) {
        val dm = x(i)(j) - muM(j); val du = x(i)(j) - muU(j)
        varM(j) += resp(i) * dm * dm; varU(j) += (1 - resp(i)) * du * du
        j += 1
      }
      i += 1
    }
    j = 0
    while (j < d) {
      varM(j) = math.max(varM(j) / math.max(wM, 1e-9), VarFloor)
      varU(j) = math.max(varU(j) / math.max(wU, 1e-9), VarFloor)
      j += 1
    }
    Model(wM / n, muM, varM, muU, varU)
  }

  /** Score candidate pairs with feature vectors already computed. */
  def run(pairs: Seq[CandPair], feats: Seq[Array[Double]]): Vector[Scored] = {
    if (pairs.isEmpty) return Vector.empty
    val model = fit(feats.toArray)
    ScoredBaselines.bestPerRight(pairs.zip(feats).map { case (p, f) => p -> posterior(f, model) })
  }
}
