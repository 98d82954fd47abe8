package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** The explainable artifact AutoFJ produces: a disjunction of join
  * configurations plus the learned negative rules, applicable to fresh
  * (L, R) DataFrames.
  *
  * Application reads L's and R's rows ([[Blocking.records]]: no Spark job
  * for frames built on the driver, one job for the others), then works on
  * the driver:
  * it probes R against L's blocking index ([[Blocking.leftRight]], the L–R
  * half of [[Blocking.block]]), drops rule-violating pairs, computes the
  * surviving pairs' distance vectors ([[DistanceTable]]), and joins each
  * right record through the first configuration (in greedy selection order)
  * that accepts it — matching the search's assign-once semantics.
  */
final case class FuzzyJoinProgram(
    configs: Vector[ConfigSpace.JoinConfig],
    rules: Set[NegativeRules.Rule],
) {

  def describe: String =
    configs.map(_.label).mkString(" ∨ ") +
      (if (rules.isEmpty) "" else s"  [${rules.size} negative rules]")

  /** Execute the program: returns (rightId, leftId, distance, configIndex)
    * with one row per joined right record, as a local frame (collecting it
    * runs no job).
    */
  def apply(spark: SparkSession, left: DataFrame, right: DataFrame): DataFrame = {
    val (lRecs, rRecs) = Blocking.records(left, right)
    val survives = NegativeRules.survives(rules, NegativeRules.wordSets(lRecs), rRecs)
    val keep = Blocking.leftRight(lRecs, rRecs).collect { case (l, r, _) if survives(l, r) => (l, r) }
    val dists = DistanceTable.columns(1, lRecs.map(r => r._1 -> Seq(r._2)), rRecs.map(r => r._1 -> Seq(r._2)),
      keep, Array.empty).lr(0)

    // First config (greedy order) that joins each r wins; within a config
    // each r joins its closest l (Eq. 1).
    val byR = dists.groupBy(_.rightId)
    val out = byR.iterator.flatMap { case (rid, pairs) =>
      configs.zipWithIndex.iterator.flatMap { case (c, ci) =>
        val inRange = pairs.filter(_.d(c.fId) <= c.theta)
        if (inRange.isEmpty) None
        else {
          val best = inRange.minBy(p => (p.d(c.fId), p.leftId))
          Some(Row(rid, best.leftId, best.d(c.fId).toDouble, ci))
        }
      }.take(1)
    }.toSeq

    spark.createDataFrame(out.asJava, FuzzyJoinProgram.OutSchema)
  }
}

object FuzzyJoinProgram {
  private val OutSchema = StructType(Seq(
    StructField("rightId", LongType, nullable = false),
    StructField("leftId", LongType, nullable = false),
    StructField("distance", DoubleType, nullable = false),
    StructField("configIndex", IntegerType, nullable = false),
  ))
}
