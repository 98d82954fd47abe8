package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec}
import repro.data.Benchmarks

class FuzzyJoinProgramSpec extends SparkSpec {

  test("describe prints a disjunction of configurations") {
    val prog = FuzzyJoinProgram(Vector(
      ConfigSpace.JoinConfig(ConfigSpace.setId(0, 1, 0, 0), 0.2),
      ConfigSpace.JoinConfig(ConfigSpace.charId(0, 1), 0.1)), Set.empty)
    assert(prog.describe.contains("∨"))
    assert(prog.describe.contains("JD"))
    assert(prog.describe.contains("ED"))
  }

  test("applying the learned program reproduces the search assignment") {
    val task = Benchmarks.tiny(seed = 21)
    val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
    val res = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    val prog = FuzzyJoinProgram(res.program, prepared.rules)
    val out = prog(spark, SingleColumnPipeline.toDF(spark, task.left),
      SingleColumnPipeline.toDF(spark, task.right))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    // First-config-wins application vs confidence-resolved search: the two
    // agree except where a later config re-claimed a conflicted r.
    val agree = res.assignment.count { case (r, l) => out.get(r).contains(l) }
    assert(out.size >= res.assignment.size,
      "the program joins at least the records the search joined")
    assert(agree >= (res.assignment.size * 0.9).toInt,
      s"only $agree/${res.assignment.size} assignments agree")
  }

  test("single-config program matches the SQL argmin-within-theta semantics (DuckDB oracle)") {
    val task = Benchmarks.tiny(seed = 22)
    val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
    // A fixed configuration: lowercase + space tokens + equal weights + JD <= 0.5.
    val cfg = ConfigSpace.JoinConfig(ConfigSpace.setId(0, 1, 0, 0), 0.5)
    val prog = FuzzyJoinProgram(Vector(cfg), rules = Set.empty)
    val out = prog(spark, SingleColumnPipeline.toDF(spark, task.left),
      SingleColumnPipeline.toDF(spark, task.right))
      .select(col("rightId").cast("string").as("rightId"),
              col("leftId").cast("string").as("leftId"))

    // The same distances as a plain table; DuckDB computes the join.
    // float→double widening is exact, so Spark and DuckDB compare the
    // same values bit-for-bit.
    val distRows = prepared.lrAll.map(p => Row(p.leftId, p.rightId, p.d(cfg.fId).toDouble))
    val distDf = spark.createDataFrame(spark.sparkContext.parallelize(distRows.toSeq, 4),
      StructType(Seq(StructField("leftId", LongType), StructField("rightId", LongType),
        StructField("dist", DoubleType))))
    Oracle.assertEquivalent(out,
      """SELECT rightId, leftId FROM (
        |  SELECT rightId, leftId,
        |         ROW_NUMBER() OVER (PARTITION BY rightId
        |                            ORDER BY CAST(dist AS DOUBLE) ASC, CAST(leftId AS BIGINT) ASC) AS rk
        |  FROM dists WHERE CAST(dist AS DOUBLE) <= 0.5) WHERE rk = 1""".stripMargin,
      "dists" -> distDf)
  }

  test("negative rules inside the program block rule-violating joins") {
    val L = Seq(1L -> "2008 LSU baseball team", 2L -> "2008 LSU football team")
    val R = Seq(100L -> "2008 LSU baseball squad")
    val rules = Set(NegativeRules.Rule.of("team", "squad"))
    // θ = 0.5 admits only the rule-violating (l1, r) pair (JD 0.4); the
    // football sibling sits at JD 0.667 and stays out either way.
    val cfg = ConfigSpace.JoinConfig(ConfigSpace.setId(0, 1, 0, 0), 0.5)
    val without = FuzzyJoinProgram(Vector(cfg), Set.empty)(
      spark, SingleColumnPipeline.toDF(spark, L), SingleColumnPipeline.toDF(spark, R)).count()
    val withRules = FuzzyJoinProgram(Vector(cfg), rules)(
      spark, SingleColumnPipeline.toDF(spark, L), SingleColumnPipeline.toDF(spark, R)).count()
    assert(without == 1L)
    assert(withRules == 0L)
  }

  test("apply returns on frames with a null text (a missing value)") {
    val task = Benchmarks.tiny(seed = 23)
    val cfg = ConfigSpace.JoinConfig(ConfigSpace.setId(0, 1, 0, 0), 0.5)
    val out = FuzzyJoinProgram(Vector(cfg), Set.empty)(spark,
      SingleColumnPipeline.toDF(spark, task.left :+ (-1L -> null)),
      SingleColumnPipeline.toDF(spark, task.right :+ (-2L -> null)))
      .collect().map(r => r.getLong(0) -> r.getLong(1))
    assert(out.nonEmpty)
    assert(out.map(_._1).distinct.length == out.length, "each right record joins at most once")
    assert(!out.exists { case (r, l) => r == -2L || l == -1L }, "an empty text is at JD 1 from everything")
  }

  /** Tiny's learned program, and the rows apply computed before it probed R
    * alone: full blocking, records and rules by string, then the first
    * config in program order wins.
    */
  private lazy val tinyCase = {
    val task = Benchmarks.tiny()
    val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
    val res = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    assert(res.program.nonEmpty)
    val prog = FuzzyJoinProgram(res.program, prepared.rules)
    val (lrCand, _) = Blocking.block(task.left, task.right)
    val lText = task.left.toMap; val rText = task.right.toMap
    val keep = lrCand.map(c => (c._1, c._2))
      .filterNot { case (l, r) => NegativeRules.violates(prog.rules, lText(l), rText(r)) }
    val lp = lText.map { case (id, t) => id -> Prepped(t) }
    val rp = rText.map { case (id, t) => id -> Prepped(t) }
    val dists = DistanceTable.compute(spark, SingleColumnPipeline.toPairDF(spark, keep.toSeq), lp, rp,
      FeatureContext.build(lp.values ++ rp.values))
    val want = dists.groupBy(_.rightId).iterator.flatMap { case (rid, pairs) =>
      prog.configs.zipWithIndex.iterator.flatMap { case (c, ci) =>
        val inRange = pairs.filter(_.d(c.fId) <= c.theta)
        if (inRange.isEmpty) None
        else {
          val best = inRange.minBy(p => (p.d(c.fId), p.leftId))
          Some((rid, best.leftId, best.d(c.fId).toDouble, ci))
        }
      }.take(1)
    }.toSeq.sorted
    assert(want.nonEmpty)
    (task, prog, want)
  }

  /** `prog`'s rows on (left, right), sorted, with the Spark jobs and tasks it ran. */
  private def appliedRows(prog: FuzzyJoinProgram, left: DataFrame, right: DataFrame) =
    jobsAndTasksOf(prog(spark, left, right).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getInt(3))).sorted.toSeq)

  test("apply runs 1 Spark job and returns the rows of the block-then-assign steps on tiny") {
    val (task, prog, want) = tinyCase
    def frame(recs: Seq[(Long, String)]) = spark.createDataFrame(
      spark.sparkContext.parallelize(recs.map { case (id, t) => Row(id, t) }, 8),
      StructType(Seq(StructField("id", LongType, nullable = false), StructField("text", StringType))))
    val (rows, jobs, tasks) = appliedRows(prog, frame(task.left), frame(task.right))
    assert(jobs == 1, "one collect of L and R; probe, distances and the result frame are local")
    assert(tasks == 1, "L and R are read by one task, with no shuffle")
    assert(rows == want)
  }

  test("apply on local frames runs no Spark job and returns the rows of the block-then-assign steps on tiny") {
    val (task, prog, want) = tinyCase
    val (rows, jobs, _) = appliedRows(prog,
      SingleColumnPipeline.toDF(spark, task.left), SingleColumnPipeline.toDF(spark, task.right))
    assert(jobs == 0, "L and R are read from their local plans; probe, distances and the result frame are local")
    assert(rows == want)
  }
}
