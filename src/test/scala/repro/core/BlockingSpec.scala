package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.{BenchmarkGen, Benchmarks, SingleTask}
import scala.jdk.CollectionConverters._

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

  private val recSchema = StructType(Seq(StructField("id", LongType, nullable = false),
    StructField("text", StringType)))

  /** (id, text) records as a frame over `parts` RDD partitions: read by a Spark job. */
  private def distributed(recs: Seq[(Long, String)], parts: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(recs.map { case (id, t) => Row(id, t) }, parts), recSchema)

  test("topK is ceil(sqrt(|L|))") {
    assert(Blocking.topK(100) == 10)
    assert(Blocking.topK(5) == 3)
    assert(Blocking.topK(2) == 2)
    assert(Blocking.topK(1) == 1)
  }

  private def grams(t: String) = Tokenize.ngrams(Preprocess.lower(t))

  /** ln(|L|/df) + 1 over `left`'s 3-grams, as the index weighs them. */
  private def idfOf(left: Seq[(Long, String)]): Map[String, Double] =
    left.flatMap(t => grams(t._2)).groupBy(identity)
      .map { case (tok, occ) => tok -> (StrictMath.log(left.size.toDouble / occ.size) + 1.0) }

  /** Every (l, probe) pair sharing a token, with its sim summed in
    * sorted-token order, as a probe sums it.
    */
  private def simsOf(left: Seq[(Long, String)], probes: Seq[(Long, String)]): Seq[(Long, Long, Double)] = {
    val idf = idfOf(left)
    val probeGrams = probes.map { case (pid, pt) => (pid, grams(pt)) }
    for {
      (lid, lt) <- left
      lg = grams(lt)
      (pid, pg) <- probeGrams
      common = lg.intersect(pg) if common.nonEmpty
    } yield (lid, pid, common.map(idf).sum)
  }

  /** (leftId, rightId, `simCol`) rows as a frame for the oracle. */
  private def triples(rows: Seq[(Long, Long, Double)], simCol: String): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map { case (l, p, s) => Row(l, p, s) }, 4),
      StructType(Seq(StructField("leftId", LongType), StructField("rightId", LongType),
        StructField(simCol, DoubleType))))

  test("block keeps at most k lefts per probe record") {
    val task = Benchmarks.tiny()
    val k = Blocking.topK(task.left.size)
    val (lr, ll) = Blocking.block(task.left, task.right)
    for (rows <- Seq(lr, ll)) {
      val counts = rows.groupBy(_._2).values.map(_.length)
      assert(counts.forall(_ <= k))
      assert(counts.exists(_ == k), "some probe should fill its k slots")
    }
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
    // Re-aggregate each returned pair's common-token weights externally and
    // let DuckDB arbitrate the join+groupBy+sum semantics.
    val idf = idfOf(L)
    def posting(recs: Seq[(Long, String)], idCol: String) = {
      val rows = recs.flatMap { case (id, t) => grams(t).map(tok => Row(id, tok, idf.getOrElse(tok, 0.0))) }
      spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), StructType(Seq(
        StructField(idCol, LongType), StructField("token", StringType),
        StructField("weight", DoubleType))))
    }
    val cand = triples(Blocking.block(L, R)._1.toSeq, "blockSim")
    Oracle.assertEquivalent(cand,
      """SELECT c.leftId AS leftId, c.rightId AS rightId,
        |       SUM(CAST(l.weight AS DOUBLE)) AS blockSim
        |FROM cand c
        |JOIN postl l ON l.leftId = c.leftId
        |JOIN postr r ON r.rightId = c.rightId AND r.token = l.token
        |GROUP BY c.leftId, c.rightId""".stripMargin,
      "cand" -> cand, "postl" -> posting(L, "leftId"), "postr" -> posting(R, "rightId").drop("weight"))
  }

  private def topKSql(k: Int) =
    s"""SELECT leftId, rightId, CAST(sim AS DOUBLE) AS blockSim FROM (
       |  SELECT leftId, rightId, sim,
       |         ROW_NUMBER() OVER (PARTITION BY rightId
       |                            ORDER BY CAST(sim AS DOUBLE) DESC, CAST(leftId AS BIGINT) ASC) AS rk
       |  FROM sims) WHERE rk <= $k""".stripMargin

  test("top-k ranking matches a SQL window (DuckDB oracle)") {
    val cand = triples(Blocking.block(L, R)._1.toSeq, "blockSim").select("leftId", "rightId")
    Oracle.assertEquivalent(cand, s"SELECT leftId, rightId FROM (${topKSql(Blocking.topK(L.size))})",
      "sims" -> triples(simsOf(L, R), "sim"))
  }

  test("an exact tie at rank k keeps the smaller leftId") {
    // |L| = 5, so k = 3. 4 and 6 share the same common tokens with r=100,
    // so their sums tie bit-for-bit at ranks 3 and 4.
    val l = Seq(1L -> "alpha beta qqq", 2L -> "alpha beta qqx", 6L -> "alpha beta yyy",
      4L -> "alpha beta zzz", 9L -> "gamma delta")
    val r = Seq(100L -> "alpha beta qqq")
    assert(Blocking.topK(l.size) == 3)
    val sim = simsOf(l, r).map(t => t._1 -> t._3).toMap
    assert(sim(4L) == sim(6L), "4 and 6 should tie exactly")
    assert(sim(2L) > sim(4L) && sim(1L) > sim(2L))
    val (lr, _) = Blocking.block(l, r)
    assert(lr.toSeq.map(t => (t._1, t._2)) == Seq(1L -> 100L, 2L -> 100L, 4L -> 100L))
    assert(bits(lr).last._3 == java.lang.Double.doubleToRawLongBits(sim(6L)))
  }

  private def rows(df: DataFrame): Seq[(Long, Long, Double)] =
    df.collect().toSeq.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))

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
    def run(frame: Seq[(Long, String)] => DataFrame, lRecs: Seq[(Long, String)], rRecs: Seq[(Long, String)]) = {
      val (lr, ll) = Blocking.block(spark, frame(lRecs), frame(rRecs))
      (rows(lr), rows(ll))
    }
    val eight = run(distributed(_, 8), task.left, task.right)
    val one = run(distributed(_, 1), task.left.reverse, task.right.reverse)
    val local = run(SingleColumnPipeline.toDF(spark, _), task.left.reverse, task.right)
    assert(eight._1.nonEmpty && eight._2.nonEmpty)
    assert(one == eight)
    assert(local == eight)
  }

  test("block's L-R and L-L candidates match a SQL top-k (DuckDB oracle)") {
    val task = Benchmarks.tiny()
    val k = Blocking.topK(task.left.size)
    // The same top-k over the test's own IDF sums: blockSim bits included,
    // which pins the IDF formula and the summation order.
    def topK(sims: Seq[(Long, Long, Double)], kk: Int) =
      sims.groupBy(_._2).toSeq.sortBy(_._1).flatMap { case (_, ps) => ps.sortBy(t => (-t._3, t._1)).take(kk) }
    val lrSims = simsOf(task.left, task.right)
    val llSims = simsOf(task.left, task.left)
    val (lr, ll) = Blocking.block(task.left, task.right)
    assert(bits(lr) == bits(topK(lrSims, k).toArray))
    assert(bits(ll) == bits(topK(llSims, k + 1).filter(t => t._1 != t._2).toArray))
    def asStrings(df: DataFrame) =
      df.select(col("leftId").cast("string").as("leftId"),
                col("rightId").cast("string").as("rightId"), col("blockSim"))
    Oracle.assertEquivalent(asStrings(triples(lr.toSeq, "blockSim")), topKSql(k), "sims" -> triples(lrSims, "sim"))
    Oracle.assertEquivalent(asStrings(triples(ll.toSeq, "blockSim")),
      s"SELECT * FROM (${topKSql(k + 1)}) WHERE leftId <> rightId", "sims" -> triples(llSims, "sim"))
  }

  private def bits(rows: Array[Blocking.Candidate]): Seq[(Long, Long, Long)] =
    rows.toSeq.map { case (l, r, sim) => (l, r, java.lang.Double.doubleToRawLongBits(sim)) }

  private def suiteTask(name: String) = BenchmarkGen.generate(Benchmarks.singleColumn.find(_.name == name).get)

  test("the local block equals the frame wrapper's rows, blockSim bits included") {
    for (task <- Seq(Benchmarks.tiny(), suiteTask("Stadium"))) {
      val (lr, ll) = Blocking.block(task.left, task.right)
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
    val (lr, ll) = Blocking.block(task.left, task.right)
    val (lrRev, llRev) = Blocking.block(task.left.reverse, task.right.reverse)
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
    assert(bits(Blocking.leftRight(task.left.reverse, task.right)) == bits(lr))
  }

  test("a repeated id in L or in R makes block and apply throw IllegalArgumentException") {
    val prog = FuzzyJoinProgram(Vector(ConfigSpace.JoinConfig(ConfigSpace.setId(0, 1, 0, 0), 0.5)), Set.empty)
    for ((l, r, msg) <- Seq((L :+ (3L -> "2008 LSU Tigers baseball team"), R, "L holds id 3 twice"),
                            (L, R :+ (100L -> "Saint Mary Hospital"), "R holds id 100 twice"))) {
      def df(recs: Seq[(Long, String)]) = SingleColumnPipeline.toDF(spark, recs)
      for ((name, run) <- Seq[(String, () => Any)](
             "block" -> (() => Blocking.block(l, r)),
             "block on frames" -> (() => Blocking.block(spark, df(l), df(r))),
             "apply" -> (() => prog(spark, df(l), df(r))))) {
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage.contains(msg), s"$name: ${e.getMessage}")
      }
    }
  }

  test("the frame read gives each frame's (id, text) rows in plain-collect order, in one job of one task") {
    val task = Benchmarks.tiny()
    // Both frames in 8 partitions.
    val (left, right) = readFrames(task, local = false)
    val ((l, r), jobs, tasks) = jobsAndTasksOf(Blocking.records(left, right))
    assert(l == plain(left) && r == plain(right))
    assert(l == task.left.updated(3, (task.left(3)._1, null)) && r == task.right)
    assert((jobs, tasks) == (1, 1))
  }

  /** The frames of the frame-read tests over tiny: L with an extra column
    * first and a null text at position 3, R with text before id.
    */
  private def readFrames(task: SingleTask, local: Boolean): (DataFrame, DataFrame) = {
    def frame(rows: Seq[Row], schema: StructType) =
      if (local) spark.createDataFrame(rows.asJava, schema)
      else spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
    (frame(task.left.zipWithIndex.map { case ((id, t), i) => Row(i * 0.5, id, if (i == 3) null else t) },
       StructType(Seq(StructField("extra", DoubleType), StructField("id", LongType, nullable = false),
         StructField("text", StringType)))),
     frame(task.right.map { case (id, t) => Row(t, id) },
       StructType(Seq(StructField("text", StringType), StructField("id", LongType, nullable = false)))))
  }

  private def plain(df: DataFrame) = df.collect().toSeq.map(r => (r.getAs[Long]("id"), r.getAs[String]("text")))

  test("the frame read gives a local frame's (id, text) rows in plain-collect order, with no job") {
    val task = Benchmarks.tiny()
    val (left, right) = readFrames(task, local = true)
    assert(Seq(left, right).forall(_.queryExecution.analyzed.isInstanceOf[LocalRelation]))
    val ((l, r), jobs) = jobsOf(Blocking.records(left, right))
    assert(jobs == 0)
    assert(l == plain(left) && r == plain(right))
    assert(l == task.left.updated(3, (task.left(3)._1, null)) && r == task.right)
  }

  test("the frame read gives a local and a distributed frame's rows in one job of one task") {
    val task = Benchmarks.tiny()
    val (localL, localR) = readFrames(task, local = true)
    val (distL, distR) = readFrames(task, local = false)
    for ((left, right) <- Seq((localL, distR), (distL, localR))) {
      val ((l, r), jobs, tasks) = jobsAndTasksOf(Blocking.records(left, right))
      assert((jobs, tasks) == (1, 1))
      assert(l == plain(left) && r == plain(right))
      assert(l == task.left.updated(3, (task.left(3)._1, null)) && r == task.right)
    }
  }

  test("the frame read rejects an id that is not a LongType column") {
    val ints = spark.createDataFrame(spark.sparkContext.parallelize(Seq(Row(1, "a")), 1),
      StructType(Seq(StructField("id", IntegerType), StructField("text", StringType))))
    intercept[IllegalArgumentException](Blocking.records(ints, dfR))
    intercept[IllegalArgumentException](Blocking.records(dfL, ints))
  }

  test("the frame read rejects a local frame whose id is not LongType or whose text is not StringType") {
    val ints = spark.createDataFrame(Seq(Row(1, "a")).asJava,
      StructType(Seq(StructField("id", IntegerType), StructField("text", StringType))))
    val numbers = spark.createDataFrame(Seq(Row(1L, 2.0)).asJava,
      StructType(Seq(StructField("id", LongType), StructField("text", DoubleType))))
    for (bad <- Seq(ints, numbers)) {
      assert(bad.queryExecution.analyzed.isInstanceOf[LocalRelation])
      val (_, jobs) = jobsOf {
        intercept[IllegalArgumentException](Blocking.records(bad, dfR))
        intercept[IllegalArgumentException](Blocking.records(dfL, bad))
      }
      assert(jobs == 0)
    }
  }

  test("block leaves no persisted RDD behind") {
    val before = spark.sparkContext.getPersistentRDDs.size
    val (lr, ll) = Blocking.block(spark, dfL, dfR)
    lr.collect(); ll.collect()
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }
}
