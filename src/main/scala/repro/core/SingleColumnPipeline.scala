package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

/** End-to-end single-column AutoFJ pipeline (§3): blocking, negative
  * rules, distance tables and the greedy search, all on the driver over the
  * Scala records; learning runs no Spark job.
  */
object SingleColumnPipeline {

  /** Everything the search and the baselines consume, computed once per
    * (L, R) task: prepped records, candidate pairs with full distance
    * vectors (both pre- and post-negative-rule filtering), and the learned
    * rules.
    */
  final case class Prepared(
      lText: Map[Long, String],
      rText: Map[Long, String],
      lPrepped: Map[Long, Prepped],
      rPrepped: Map[Long, Prepped],
      ctx: FeatureContext,
      lrAll: Array[PairDist],
      lrFiltered: Array[PairDist],
      llPairs: Array[PairDist],
      rules: Set[NegativeRules.Rule],
      blockSim: Map[(Long, Long), Double],
  )

  private val recSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("text", StringType, nullable = true),
  ))

  /** (id, text) pairs as a local DataFrame with the blocking-ready schema:
    * [[Blocking.block]] and [[FuzzyJoinProgram.apply]] read its rows, and
    * collecting it runs no Spark job.
    */
  def toDF(spark: SparkSession, recs: Seq[(Long, String)]): DataFrame =
    spark.createDataFrame(recs.map { case (id, t) => Row(id, t) }.asJava, recSchema)

  /** Block (L, R), learn the negative rules and compute both distance
    * tables, in blocking's pair order. Runs no Spark job; `spark` is not
    * read.
    */
  def prepare(
      spark: SparkSession,
      left: Seq[(Long, String)],
      right: Seq[(Long, String)],
  ): Prepared = {
    val (lrRows, llCand) = Blocking.block(left, right)
    val llRows = llCand.map(t => (t._1, t._2))

    // Negative rules: learned from L–L survivors, applied to L–R survivors.
    val lWords = NegativeRules.wordSets(left)
    val rules = NegativeRules.learnWords(llRows.iterator.map { case (a, b) => (lWords(a), lWords(b)) })
    val survives = NegativeRules.survives(rules, lWords, right)

    val cols = DistanceTable.columns(1, left.map(r => r._1 -> Seq(r._2)), right.map(r => r._1 -> Seq(r._2)),
      lrRows.map(t => (t._1, t._2)), llRows)
    val (lPrepped, rPrepped) = cols.prepped(0)
    val lrAll = cols.lr(0)
    val lrFiltered = lrAll.filter(p => survives(p.leftId, p.rightId))

    Prepared(left.toMap, right.toMap, lPrepped, rPrepped, cols.ctxs(0), lrAll, lrFiltered, cols.ll(0), rules,
             lrRows.map(t => (t._1, t._2) -> t._3).toMap)
  }

  private val pairSchema = StructType(Seq(
    StructField("leftId", LongType, nullable = false),
    StructField("rightId", LongType, nullable = false),
  ))

  /** (leftId, rightId) pairs as a local DataFrame: collecting it runs no
    * Spark job.
    */
  def toPairDF(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    spark.createDataFrame(pairs.map { case (a, b) => Row(a, b) }.asJava, pairSchema)

  /** Run AutoFJ (Algorithm 1) over a prepared task.
    *
    * @param fids          function ids searched (full 140 or reduced 24)
    * @param negativeRules false reproduces the AutoFJ-NR ablation
    * @param gt / gtTotal  evaluation-only: enables the actual-P/R trace
    */
  def autoFJ(
      prepared: Prepared,
      tau: Double,
      fids: Array[Int] = ConfigSpace.full.map(_.id).toArray,
      negativeRules: Boolean = true,
      gt: Map[Long, Long] = Map.empty,
      gtTotal: Int = 0,
  ): AutoFJ.Result = {
    val lr = if (negativeRules) prepared.lrFiltered else prepared.lrAll
    val data = SearchData.fromSingle(lr, prepared.llPairs, fids)
    AutoFJ.search(data, ConfigSpace.thresholds(), tau, gt, gtTotal)
  }
}
