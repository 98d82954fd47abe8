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
  * right record to its closest l ([[SearchData.nearest]], ties to the
  * smaller leftId) under the first configuration, in greedy selection
  * order, whose θ that l is within. This is not the search's rule: the
  * search keeps each right record's most confident join (§3.1), so the two
  * can disagree on a right record that several configurations join
  * (ROADMAP item 3).
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

    val fids = configs.map(_.fId).distinct.toArray
    val data = SearchData.fromSingle(dists, Array.empty, fids)
    val slots = configs.map(c => fids.indexOf(c.fId))
    val bestL = Array.fill(fids.length)(new Array[Int](data.nRight))
    val bestD = Array.fill(fids.length)(new Array[Float](data.nRight))
    fids.indices.foreach(s => data.nearest(s, bestL(s), bestD(s)))
    val out = (0 until data.nRight).flatMap { r =>
      configs.indices.find(ci => bestD(slots(ci))(r).toDouble <= configs(ci).theta).map { ci =>
        Row(data.rIds(r), data.lIds(bestL(slots(ci))(r)), bestD(slots(ci))(r).toDouble, ci)
      }
    }

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
