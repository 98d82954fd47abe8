package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.{BenchmarkGen, Benchmarks}

class BlockingSpec extends SparkSpec {

  private val L = Seq(
    1L -> "2008 LSU Tigers baseball team",
    2L -> "2008 LSU Tigers football team",
    3L -> "2007 Wisconsin Badgers football team",
    4L -> "Saint Mary Hospital of Salem",
  )
  private val R = Seq(
    100L -> "2008 LSU baseball team",
    101L -> "Saint Mary Hospital Salem",
  )

  private def dfL = SingleColumnPipeline.toDF(spark, L)
  private def dfR = SingleColumnPipeline.toDF(spark, R)

  test("topK is ceil(beta * sqrt(|L|))") {
    assert(Blocking.topK(100) == 10)
    assert(Blocking.topK(100, 1.5) == 15)
    assert(Blocking.topK(2) == 2)
    assert(Blocking.topK(1) == 1)
  }

  test("candidates keeps at most k lefts per right record") {
    val idf = Blocking.idfOverLeft(dfL)
    val cand = Blocking.candidates(dfL, dfR, k = 2, idf)
    val counts = cand.groupBy("rightId").count().collect().map(_.getLong(1))
    assert(counts.forall(_ <= 2))
  }

  test("the true counterpart survives blocking") {
    val (lr, _) = Blocking.block(spark, dfL, dfR)
    val pairs = lr.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs.contains((1L, 100L)), "r=100 should keep l=1 as candidate")
    assert(pairs.contains((4L, 101L)), "r=101 should keep l=4 as candidate")
  }

  test("self candidates exclude the identity pair") {
    val (_, ll) = Blocking.block(spark, dfL, dfR)
    val pairs = ll.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(pairs.forall { case (a, b) => a != b })
    assert(pairs.nonEmpty)
  }

  test("near-duplicate reference records block together") {
    val (_, ll) = Blocking.block(spark, dfL, dfR)
    val pairs = ll.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(pairs.contains((1L, 2L)) && pairs.contains((2L, 1L)))
  }

  test("blockSim is the IDF-weighted common-token weight (DuckDB oracle)") {
    // Reproduce the inverted-index aggregation externally and let DuckDB
    // arbitrate the join+groupBy+sum semantics.
    val idfMap = Blocking.idfOverLeft(dfL).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    def posting(recs: Seq[(Long, String)], idCol: String) = {
      val rows = recs.flatMap { case (id, t) =>
        Tokenize.ngrams(Preprocess.lower(t), 3).flatMap(tok =>
          idfMap.get(tok).map(w => Row(id, tok, w)))
      }
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), StructType(Seq(
        StructField(idCol, LongType), StructField("token", StringType),
        StructField("weight", DoubleType))))
    }
    val postL = posting(L, "leftId")
    val postR = posting(R, "rightId").drop("weight")
    val sparkSims = postL.join(postR, Seq("token"))
      .groupBy("leftId", "rightId")
      .agg(round(sum("weight"), 4).as("blockSim"))
      .select(col("leftId").cast("string").as("leftId"),
              col("rightId").cast("string").as("rightId"), col("blockSim"))
    Oracle.assertEquivalent(sparkSims,
      """SELECT l.leftId AS leftId, r.rightId AS rightId,
        |       ROUND(SUM(CAST(l.weight AS DOUBLE)), 4) AS blockSim
        |FROM postl l JOIN postr r ON l.token = r.token
        |GROUP BY l.leftId, r.rightId""".stripMargin,
      "postl" -> postL, "postr" -> postR)
  }

  test("top-k ranking matches a SQL window (DuckDB oracle)") {
    val idf = Blocking.idfOverLeft(dfL)
    val cand = Blocking.candidates(dfL, dfR, k = 2, idf)
      .select(col("leftId").cast("string").as("leftId"),
              col("rightId").cast("string").as("rightId"))
    val simsDf = {
      val idfMap = idf.collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
      val rows = for {
        (lid, lt) <- L
        (rid, rt) <- R
        common = Tokenize.ngrams(Preprocess.lower(lt), 3)
          .intersect(Tokenize.ngrams(Preprocess.lower(rt), 3))
        sim = common.flatMap(idfMap.get).sum if sim > 0
      } yield Row(lid, rid, sim)
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), StructType(Seq(
        StructField("leftId", LongType), StructField("rightId", LongType),
        StructField("sim", DoubleType))))
    }
    Oracle.assertEquivalent(cand,
      """SELECT leftId, rightId FROM (
        |  SELECT leftId, rightId,
        |         ROW_NUMBER() OVER (PARTITION BY rightId
        |                            ORDER BY CAST(sim AS DOUBLE) DESC, CAST(leftId AS BIGINT) ASC) AS rk
        |  FROM sims) WHERE rk <= 2""".stripMargin,
      "sims" -> simsDf)
  }

  private def rows(df: DataFrame): Seq[(Long, Long, Double)] =
    df.collect().toSeq.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))

  test("an exact tie at rank k keeps the smaller leftId") {
    // 4 and 6 share the same common tokens with r=100, so their sums tie
    // bit-for-bit at ranks 2 and 3; k = 2.
    val l = SingleColumnPipeline.toDF(spark, Seq(
      1L -> "alpha beta qqq", 6L -> "alpha beta yyy", 4L -> "alpha beta zzz", 9L -> "gamma delta"))
    val r = SingleColumnPipeline.toDF(spark, Seq(100L -> "alpha beta qqq"))
    val top3 = rows(Blocking.candidates(l, r, k = 3, Blocking.idfOverLeft(l)))
    assert(top3.map(_._1) == Seq(1L, 4L, 6L))
    assert(top3(1)._3 == top3(2)._3, "4 and 6 should tie exactly")
    val (lr, _) = Blocking.block(spark, l, r)
    assert(rows(lr).map(t => (t._1, t._2)) == Seq(1L -> 100L, 4L -> 100L))
  }

  test("self candidates keep k+1, then drop the identity wherever it ranks") {
    // k = 2. 1 and 5 are duplicates: l=5's identity ties l=1 and ranks
    // second. 3 and 7 tie at rank k+1 = 3 for both probes.
    val l = SingleColumnPipeline.toDF(spark, Seq(
      1L -> "alpha beta", 5L -> "alpha beta", 3L -> "alpha beta qqq", 7L -> "alpha beta zzz"))
    val (_, ll) = Blocking.block(spark, l, SingleColumnPipeline.toDF(spark, Seq(100L -> "x")))
    val byR = rows(ll).groupBy(_._2).map { case (rid, ps) => rid -> ps.map(_._1) }
    assert(byR(1L) == Seq(5L, 3L))
    assert(byR(5L) == Seq(1L, 3L))
  }

  test("block's output does not depend on input partitioning or order") {
    val task = Benchmarks.tiny()
    def run(lRecs: Seq[(Long, String)], rRecs: Seq[(Long, String)], parts: Int) = {
      val (lr, ll) = Blocking.block(spark,
        SingleColumnPipeline.toDF(spark, lRecs).coalesce(parts),
        SingleColumnPipeline.toDF(spark, rRecs).coalesce(parts))
      (rows(lr), rows(ll))
    }
    val eight = run(task.left, task.right, 8)
    val one = run(task.left.reverse, task.right.reverse, 1)
    assert(eight._1.nonEmpty && eight._2.nonEmpty)
    assert(one == eight)
  }

  test("block's L-R and L-L candidates match a SQL top-k (DuckDB oracle)") {
    val task = Benchmarks.tiny()
    def grams(t: String) = Tokenize.ngrams(Preprocess.lower(t), 3)
    val n = task.left.size
    val idf: Map[String, Double] = task.left.flatMap(t => grams(t._2)).groupBy(identity)
      .map { case (tok, occ) => tok -> (math.log(n.toDouble / occ.size) + 1.0) }
    val fromBlocking = Blocking.idfOverLeft(SingleColumnPipeline.toDF(spark, task.left)).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(fromBlocking.keySet == idf.keySet)
    assert(fromBlocking.forall { case (tok, w) => math.abs(w - idf(tok)) < 1e-12 })
    // Every pair sharing a token, with its sim summed in sorted-token order.
    def sims(probes: Seq[(Long, String)]) = {
      val rows = for {
        (lid, lt) <- task.left
        (pid, pt) <- probes
        common = grams(lt).intersect(grams(pt)) if common.nonEmpty
      } yield Row(lid, pid, common.map(idf).sum)
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), StructType(Seq(
        StructField("leftId", LongType), StructField("rightId", LongType),
        StructField("sim", DoubleType))))
    }
    def topK(k: Int) =
      s"""SELECT leftId, rightId, CAST(sim AS DOUBLE) AS blockSim FROM (
         |  SELECT leftId, rightId, sim,
         |         ROW_NUMBER() OVER (PARTITION BY rightId
         |                            ORDER BY CAST(sim AS DOUBLE) DESC, CAST(leftId AS BIGINT) ASC) AS rk
         |  FROM sims) WHERE rk <= $k""".stripMargin
    def asStrings(df: DataFrame) =
      df.select(col("leftId").cast("string").as("leftId"),
                col("rightId").cast("string").as("rightId"), col("blockSim"))
    val (lr, ll) = Blocking.block(spark,
      SingleColumnPipeline.toDF(spark, task.left), SingleColumnPipeline.toDF(spark, task.right))
    val k = Blocking.topK(n)
    Oracle.assertEquivalent(asStrings(lr), topK(k), "sims" -> sims(task.right))
    Oracle.assertEquivalent(asStrings(ll),
      s"SELECT * FROM (${topK(k + 1)}) WHERE leftId <> rightId", "sims" -> sims(task.left))
  }

  private def bits(rows: Array[Blocking.Candidate]): Seq[(Long, Long, Long)] =
    rows.toSeq.map { case (l, r, sim) => (l, r, java.lang.Double.doubleToRawLongBits(sim)) }

  private def suiteTask(name: String) = BenchmarkGen.generate(Benchmarks.singleColumn.find(_.name == name).get)

  test("the local block equals the frame wrapper's rows, blockSim bits included") {
    for (task <- Seq(Benchmarks.tiny(), suiteTask("Stadium"))) {
      val (lr, ll) = Blocking.block(task.left, task.right, 1.0)
      val (lrDf, llDf) = Blocking.block(spark,
        SingleColumnPipeline.toDF(spark, task.left), SingleColumnPipeline.toDF(spark, task.right))
      def collected(df: DataFrame) = bits(df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))
      assert(lr.nonEmpty && ll.nonEmpty, task.name)
      assert(bits(lr) == collected(lrDf), s"${task.name}: L-R")
      assert(bits(ll) == collected(llDf), s"${task.name}: L-L")
    }
  }

  test("the local block is ordered by (probe id, rank) whatever the input order, across probe chunks") {
    val task = suiteTask("Hospital")
    assert(task.right.size > 2 * Blocking.Chunk && task.left.size > 4 * Blocking.Chunk)
    val (lr, ll) = Blocking.block(task.left, task.right, 1.0)
    val (lrRev, llRev) = Blocking.block(task.left.reverse, task.right.reverse, 1.0)
    assert(bits(lr) == bits(lrRev))
    assert(bits(ll) == bits(llRev))
    for (rows <- Seq(lr, ll)) {
      val probeIds = rows.map(_._2)
      assert(probeIds.toSeq == probeIds.sorted.toSeq, "rows are grouped by ascending probe id")
      rows.groupBy(_._2).values.foreach { ps =>
        assert(ps.toSeq.sliding(2).forall {
          case Seq(a, b) => a._3 > b._3 || (a._3 == b._3 && a._1 < b._1)
          case _ => true
        }, "a probe's rows are in rank order")
      }
    }
    assert(bits(Blocking.leftRight(task.left.reverse, task.right, 1.0)) == bits(lr))
  }

  test("block leaves no persisted RDD behind") {
    val before = spark.sparkContext.getPersistentRDDs.size
    val (lr, ll) = Blocking.block(spark, dfL, dfR)
    lr.collect(); ll.collect()
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }
}
