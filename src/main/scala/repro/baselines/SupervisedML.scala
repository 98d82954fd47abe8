package repro.baselines

import org.apache.spark.ml.classification.{MultilayerPerceptronClassifier, RandomForestClassifier}
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.SparkSession
import repro.eval.Metrics.Scored
import scala.util.chaining._

/** The supervised baselines of §5.1.3, fed with Magellan-style features
  * over the blocked candidate pairs and 50% of the ground truth:
  *
  *   - Magellan [31]: random forest (Spark ML) — scores = P(match).
  *   - DeepMatcher [39]: substituted by a Spark ML multilayer perceptron
  *     over the same features (see DESIGN.md §3 — the deep model's
  *     label-starved behaviour is what the comparison exercises).
  *
  * The 50/50 split is over right records; training pairs are the
  * candidates of training records labeled by the ground truth, and AR is
  * evaluated on the test half only.
  */
object SupervisedML {

  final case class SplitRun(
      scored: Vector[Scored],   // test-half predictions
      testGt: Map[Long, Long],  // ground truth restricted to the test half
      testGtTotal: Int,
  )

  /** Split right ids 50/50, train, and score the test half. */
  def runSplit(
      spark: SparkSession,
      pairs: Seq[CandPair],
      feats: Seq[Array[Double]],
      gt: Map[Long, Long],
      model: String, // "rf" | "mlp"
      seed: Long,
  ): SplitRun = {
    val rIds = pairs.map(_.rId).distinct.sorted
    val rng = new scala.util.Random(seed)
    val shuffled = rng.shuffle(rIds)
    val trainSet = shuffled.take(rIds.length / 2).toSet
    val testGt = gt.filter { case (r, _) => !trainSet.contains(r) }

    val data = pairs.zip(feats)
    val train = data.filter { case (p, _) => trainSet.contains(p.rId) }
    val test = data.filterNot { case (p, _) => trainSet.contains(p.rId) }
    if (test.isEmpty) return SplitRun(Vector.empty, testGt, testGt.size)

    val labelOf: CandPair => Double =
      p => if (gt.get(p.rId).contains(p.lId)) 1.0 else 0.0
    val nPos = train.count { case (p, _) => labelOf(p) == 1.0 }

    val scores: Seq[Double] =
      if (nPos == 0 || nPos == train.size) {
        // Degenerate training labels: fall back to mean feature similarity.
        test.map { case (_, f) => f.sum / f.length }
      } else {
        import spark.implicits._
        // Training sets are a few thousand rows; one partition keeps each
        // LBFGS/impurity pass a single task instead of 16 tiny ones (the
        // MLP otherwise spends its time on job-scheduling overhead).
        val trainDf = train.map { case (p, f) => (Vectors.dense(f), labelOf(p)) }
          .toDF("features", "label").coalesce(1).cache()
        val testDf = test.map { case (p, f) => (Vectors.dense(f), p.rId, p.lId) }
          .toDF("features", "rId", "lId").coalesce(1)
        val clf = model match {
          case "rf" =>
            new RandomForestClassifier().setNumTrees(50).setMaxDepth(10).setSeed(seed)
          case "mlp" =>
            val d = feats.head.length
            new MultilayerPerceptronClassifier()
              .setLayers(Array(d, 32, 16, 2)).setMaxIter(40).setSeed(seed)
          case other => throw new IllegalArgumentException(s"unknown model $other")
        }
        val fitted = clf.fit(trainDf)
        trainDf.unpersist()
        fitted.transform(testDf)
          .select("rId", "lId", "probability")
          .collect()
          .map(r => ((r.getLong(0), r.getLong(1)),
                     r.getAs[org.apache.spark.ml.linalg.Vector]("probability")(1)))
          .toMap
          .pipe { m => test.map { case (p, _) => m((p.rId, p.lId)) } }
      }

    val scored = ScoredBaselines.bestPerRight(test.map(_._1).zip(scores))
    SplitRun(scored, testGt, testGt.size)
  }
}
