package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** The explainable artifact AutoFJ produces: a disjunction of join
  * configurations plus the learned negative rules, applicable to fresh
  * (L, R) DataFrames.
  *
  * Application re-runs blocking, drops rule-violating pairs, computes the
  * surviving pairs' distance vectors on driver threads ([[DistanceTable]]),
  * and joins each right record through the first configuration (in greedy
  * selection order) that accepts it — matching the search's assign-once
  * semantics.
  */
final case class FuzzyJoinProgram(
    configs: Vector[ConfigSpace.JoinConfig],
    rules: Set[NegativeRules.Rule],
) {

  def describe: String =
    configs.map(_.label).mkString(" ∨ ") +
      (if (rules.isEmpty) "" else s"  [${rules.size} negative rules]")

  /** Execute the program: returns (rightId, leftId, distance, configIndex)
    * with one row per joined right record.
    */
  def apply(spark: SparkSession, left: DataFrame, right: DataFrame, beta: Double = 1.0): DataFrame = {
    import spark.implicits._
    val (lrCand, _) = Blocking.block(spark, left, right, beta)
    val lRecs = left.select("id", "text").as[(Long, String)].collect().toMap
    val rRecs = right.select("id", "text").as[(Long, String)].collect().toMap
    val lPrepped = lRecs.map { case (id, t) => id -> Prepped(t) }
    val rPrepped = rRecs.map { case (id, t) => id -> Prepped(t) }
    val ctx = FeatureContext.build(lPrepped.values ++ rPrepped.values)
    val keep = lrCand
      .select("leftId", "rightId").as[(Long, Long)].collect()
      .filterNot { case (l, r) => NegativeRules.violates(rules, lRecs(l), rRecs(r)) }
    val dists = DistanceTable.compute(
      spark, SingleColumnPipeline.toPairDF(spark, keep.toSeq), lPrepped, rPrepped, ctx)

    // First config (greedy order) that joins each r wins; within a config
    // each r joins its closest l (Eq. 1).
    val byR = dists.groupBy(_.rightId)
    val out = byR.iterator.flatMap { case (rid, pairs) =>
      configs.zipWithIndex.iterator.flatMap { case (c, ci) =>
        val inRange = pairs.filter(_.d(c.fId) <= c.theta)
        if (inRange.isEmpty) None
        else {
          val best = inRange.minBy(p => (p.d(c.fId), p.leftId))
          Some((rid, best.leftId, best.d(c.fId).toDouble, ci))
        }
      }.take(1)
    }.toSeq

    spark.createDataFrame(
      spark.sparkContext.parallelize(out.map(t => Row(t._1, t._2, t._3, t._4)), 8),
      StructType(Seq(
        StructField("rightId", LongType, nullable = false),
        StructField("leftId", LongType, nullable = false),
        StructField("distance", DoubleType, nullable = false),
        StructField("configIndex", IntegerType, nullable = false),
      )))
  }
}
