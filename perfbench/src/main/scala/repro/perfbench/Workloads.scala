package repro.perfbench

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.core.ConfigSpace.JoinConfig
import repro.core.SingleColumnPipeline.{toDF, toPairDF}
import repro.data._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** What one task of one pass produced. Two passes measured the same program
  * only if their outputs are equal: candidate pairs, rules, program, weights,
  * the search's assignment and the rows the learned program's `apply`
  * returned. `held` keeps the pass's prepared data reachable until the
  * retained-heap measurement; it takes no part in equality.
  */
final case class TaskOut(
    lrPairs: Vector[(Long, Long)],
    llPairs: Vector[(Long, Long)],
    rules: Set[NegativeRules.Rule],
    program: Vector[JoinConfig],
    weights: Vector[Double],
    assignment: Map[Long, Long],
    applied: Vector[Workload.Applied],
)(val held: AnyRef)

/** Quality of one task's output against the generator's ground truth.
  * `checked`/`mismatched` count search-joined right records and those the
  * applied program joins elsewhere or not at all (`single` only).
  */
final case class Quality(precision: Double, recall: Double, checked: Int, mismatched: Int)

/** A benchmark workload: inputs generated from a seed, a set-up that turns
  * them into the state a pass needs, and one pass per task. A traced pass
  * calls the layers one by one from here, in the order the program's own
  * composition calls them, and records a span around each call.
  */
sealed trait Workload {
  type State
  def name: String
  /** Set-up rounds per run, each one untimed pass; the first is cold.
    * Warm-up left after them shows as `drift.frac` in traced runs.
    */
  def setupRounds: Int
  /** Generate the inputs from `seed` and do the workload's set-up work. */
  def setup(spark: SparkSession, seed: Long): State
  def tasks(s: State): Vector[String]
  def run(spark: SparkSession, s: State, i: Int, tr: Option[Tracer]): TaskOut
  /** Output checks that hold for any correct program; each miss is a line. */
  def check(s: State, i: Int, out: TaskOut): Seq[String]
  def quality(s: State, i: Int, out: TaskOut): Quality
}

object Workload {
  val Tau = 0.9
  val Steps = 50
  val G = 10
  val AllFids: Array[Int] = ConfigSpace.full.map(_.id).toArray

  val all: Vector[Workload] = Vector(SingleWorkload, MultiWorkload)

  /** One row of [[FuzzyJoinProgram.apply]]'s output: (rightId, leftId,
    * distance, configIndex).
    */
  type Applied = (Long, Long, Double, Int)

  /** Seed 0 gives the checked-in specs; any other seed re-seeds each spec. */
  def reseed(specSeed: Long, seed: Long): Long = specSeed ^ (seed * 0x9E3779B97F4A7C15L)

  def qualityOf(assignment: Map[Long, Long], gt: Map[Long, Long], gtTotal: Int): Quality = {
    val (p, r) = repro.eval.Metrics.precisionRecall(assignment, gt, gtTotal)
    Quality(p, r, 0, 0)
  }

  /** Checks shared by the learn workloads: every join is a candidate pair
    * that survived the negative rules, and a non-empty program met τ by its
    * own estimate, as Algorithm 1 requires before it commits a config.
    */
  def checkLearned(task: String, out: TaskOut, kept: Set[(Long, Long)], estP: Double): Seq[String] = {
    val bad = out.assignment.count { case (r, l) => !kept((l, r)) }
    val thetas = ConfigSpace.thresholds(Steps).toSet
    Seq(
      if (bad > 0) Some(s"$task: $bad joins are not surviving candidate pairs") else None,
      if (out.program.nonEmpty && !(estP > Tau)) Some(f"$task: estimated precision $estP%.4f <= tau") else None,
      if (out.program.exists(c => !thetas(c.theta) || c.fId < 0 || c.fId >= ConfigSpace.Size))
        Some(s"$task: program config outside the search space") else None,
      if (out.program.distinct.size != out.program.size) Some(s"$task: repeated program config") else None,
    ).flatten
  }

  def countDistances(tr: Tracer, pairs: Long, columns: Int): Unit = {
    tr.count("distance.pairs", pairs)
    tr.count("distance.values", pairs.toDouble * columns * ConfigSpace.Size)
  }

  def tracedSearch(tr: Tracer, parent: Int)(search: => AutoFJ.Result): AutoFJ.Result = {
    val res = tr.span("search", parent)(search)
    tr.count("search.calls", 1)
    tr.count("search.iterations", res.trace.size)
    res
  }
}

import Workload._

/** A single-column task learned and then served: AutoFJ learn at τ = 0.9
  * over all 140 functions, then [[FuzzyJoinProgram.apply]] of the learned
  * program on the same (L, R).
  */
object SingleWorkload extends Workload {
  val name = "single"
  /** Spark job overhead keeps getting faster under the JIT for more passes
    * than multi's compute does, so this workload warms two rounds longer.
    */
  val setupRounds = 4
  val Tasks: Vector[String] = Vector("Stadium")

  final case class State(tasks: Vector[SingleTask])

  def setup(spark: SparkSession, seed: Long): State = State(Tasks.map(singleTask(_, seed)))
  def tasks(s: State): Vector[String] = s.tasks.map(_.name)

  private def singleTask(name: String, seed: Long): SingleTask = {
    val spec = Benchmarks.singleColumn.find(_.name == name).get
    BenchmarkGen.generate(spec.copy(seed = reseed(spec.seed, seed)))
  }

  private def sortedPairs(rows: Iterable[(Long, Long)]): Vector[(Long, Long)] = rows.toVector.sorted

  /** The program's [[SingleColumnPipeline.prepare]] + [[SingleColumnPipeline.autoFJ]]
    * at τ over all 140 functions, called layer by layer under `tr`.
    */
  private def tracedLearn(
      spark: SparkSession, left: Seq[(Long, String)], right: Seq[(Long, String)], tr: Tracer,
  ): (SingleColumnPipeline.Prepared, AutoFJ.Result) = {
    val (lrRows, llRows) = tr.span("blocking") {
      val (lrCand, llCand) = Blocking.block(spark, toDF(spark, left), toDF(spark, right))
      (lrCand.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))),
       llCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))))
    }
    tr.count("blocking.lr_pairs", lrRows.length)
    tr.count("blocking.ll_pairs", llRows.length)
    val lText = left.toMap
    val rText = right.toMap
    val rules = tr.span("negrules.learn")(
      NegativeRules.learn(llRows.iterator.map { case (a, b) => (lText(a), lText(b)) }.toSeq))
    tr.count("negrules.rules", rules.size)
    val (lPrepped, rPrepped, ctx) = tr.span("prep") {
      val lp = left.map { case (id, t) => id -> Prepped(t) }.toMap
      val rp = right.map { case (id, t) => id -> Prepped(t) }.toMap
      (lp, rp, FeatureContext.build(lp.values ++ rp.values))
    }
    tr.count("prep.records", left.size + right.size)
    val (lrAll, llPairs) = tr.span("distance") {
      val lrPairDf = toPairDF(spark, lrRows.map(t => (t._1, t._2)))
      val llPairDf = toPairDF(spark, llRows)
      (DistanceTable.compute(spark, lrPairDf, lPrepped, rPrepped, ctx),
       DistanceTable.compute(spark, llPairDf, lPrepped, lPrepped, ctx))
    }
    val lrFiltered = tr.span("negrules.filter")(
      lrAll.filterNot(p => NegativeRules.violates(rules, lText(p.leftId), rText(p.rightId))))
    tr.count("negrules.checked", lrAll.length)
    tr.count("negrules.kept", lrFiltered.length)
    countDistances(tr, lrAll.length + llPairs.length, 1)
    tr.count("distance.read", (lrFiltered.length + llPairs.length).toDouble * AllFids.length)
    val prepared = SingleColumnPipeline.Prepared(lText, rText, lPrepped, rPrepped, ctx, lrAll, lrFiltered,
      llPairs, rules, lrRows.map(t => (t._1, t._2) -> t._3).toMap)
    val data = tr.span("searchdata")(SearchData.fromSingle(lrFiltered, llPairs, AllFids))
    val res = tracedSearch(tr, tr.currentSpan)(AutoFJ.search(data, ConfigSpace.thresholds(Steps), Tau))
    (prepared, res)
  }

  def run(spark: SparkSession, s: State, i: Int, tr: Option[Tracer]): TaskOut = {
    val task = s.tasks(i)
    val (p, res, applied) = tr match {
      case None =>
        val p = SingleColumnPipeline.prepare(spark, task.left, task.right)
        val res = SingleColumnPipeline.autoFJ(p, Tau)
        val rows = FuzzyJoinProgram(res.program, p.rules)
          .apply(spark, toDF(spark, task.left), toDF(spark, task.right)).collect()
          .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getInt(3)))
        (p, res, rows)
      case Some(t) =>
        val (p, res) = t.span("learn")(tracedLearn(spark, task.left, task.right, t))
        val (rows, cand) = t.span("apply")(tracedApply(spark, task, FuzzyJoinProgram(res.program, p.rules), t))
        // apply re-blocks the same (L, R): anything else serves another program.
        require(sortedPairs(cand) == sortedPairs(p.lrAll.map(d => (d.leftId, d.rightId))),
          "apply's candidate pairs differ from learn's")
        (p, res, rows)
    }
    TaskOut(sortedPairs(p.lrAll.map(d => (d.leftId, d.rightId))),
      sortedPairs(p.llPairs.map(d => (d.leftId, d.rightId))),
      p.rules, res.program, Vector.empty, res.assignment, applied.sorted.toVector)((p, res))
  }

  private val OutSchema = StructType(Seq(
    StructField("rightId", LongType, nullable = false),
    StructField("leftId", LongType, nullable = false),
    StructField("distance", DoubleType, nullable = false),
    StructField("configIndex", IntegerType, nullable = false),
  ))

  /** The public steps inside [[FuzzyJoinProgram.apply]], with the candidate
    * collect moved into the blocking span. The final assignment (first
    * config in program order wins, closest l within it) is repeated here;
    * the equivalence check against the untraced pass guards the repetition.
    */
  private def tracedApply(spark: SparkSession, task: SingleTask, program: FuzzyJoinProgram, tr: Tracer)
      : (Array[Applied], Array[(Long, Long)]) = {
    import spark.implicits._
    val left = toDF(spark, task.left)
    val right = toDF(spark, task.right)
    val cand = tr.span("blocking") {
      val (lrCand, _) = Blocking.block(spark, left, right)
      lrCand.select("leftId", "rightId").as[(Long, Long)].collect()
    }
    tr.count("blocking.lr_pairs", cand.length)
    val (lRecs, rRecs, lPrepped, rPrepped, ctx) = tr.span("prep") {
      val lr = left.select("id", "text").as[(Long, String)].collect().toMap
      val rr = right.select("id", "text").as[(Long, String)].collect().toMap
      val lp = lr.map { case (id, t) => id -> Prepped(t) }
      val rp = rr.map { case (id, t) => id -> Prepped(t) }
      (lr, rr, lp, rp, FeatureContext.build(lp.values ++ rp.values))
    }
    tr.count("prep.records", lRecs.size + rRecs.size)
    val keep = tr.span("negrules.filter")(
      cand.filterNot { case (a, b) => NegativeRules.violates(program.rules, lRecs(a), rRecs(b)) })
    tr.count("negrules.checked", cand.length)
    tr.count("negrules.kept", keep.length)
    val dists = tr.span("distance")(
      DistanceTable.compute(spark, toPairDF(spark, keep.toSeq), lPrepped, rPrepped, ctx))
    countDistances(tr, dists.length, 1)
    tr.count("distance.read", dists.length.toDouble * program.configs.map(_.fId).distinct.size)
    val out = dists.groupBy(_.rightId).iterator.flatMap { case (rid, pairs) =>
      program.configs.zipWithIndex.iterator.flatMap { case (c, ci) =>
        val inRange = pairs.filter(_.d(c.fId) <= c.theta)
        if (inRange.isEmpty) None
        else {
          val best = inRange.minBy(p => (p.d(c.fId), p.leftId))
          Some((rid, best.leftId, best.d(c.fId).toDouble, ci))
        }
      }.take(1)
    }.toSeq
    val rows = spark.createDataFrame(
        spark.sparkContext.parallelize(out.map(t => Row(t._1, t._2, t._3, t._4)), 8), OutSchema)
      .collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getInt(3)))
    tr.count("apply.rows", rows.length)
    (rows, cand)
  }

  def check(s: State, i: Int, out: TaskOut): Seq[String] = {
    val (p, res) = out.held.asInstanceOf[(SingleColumnPipeline.Prepared, AutoFJ.Result)]
    val name = s.tasks(i).name
    val kept = p.lrFiltered.iterator.map(d => (d.leftId, d.rightId)).toSet
    val configs = out.program
    checkLearned(name, out, kept, res.estPrecision) ++ Seq(
      if (out.applied.map(_._1).distinct.size != out.applied.size) Some(s"$name: a right record applied twice")
      else None,
      if (out.applied.exists(r => !kept((r._2, r._1)))) Some(s"$name: applied join outside the surviving candidates")
      else None,
      if (out.applied.exists(r => r._4 < 0 || r._4 >= configs.size || r._3 > configs(r._4).theta))
        Some(s"$name: applied join beyond its config's threshold") else None,
    ).flatten
  }

  def quality(s: State, i: Int, out: TaskOut): Quality = {
    val task = s.tasks(i)
    val applied = out.applied.iterator.map(r => r._1 -> r._2).toMap
    qualityOf(out.assignment, task.gt, task.gtTotal).copy(
      checked = out.assignment.size,
      mismatched = out.assignment.count { case (r, l) => !applied.get(r).contains(l) })
  }
}

/** Multi-column AutoFJ (Algorithm 3) as the Table 4 harness runs it:
  * `MultiColumnAutoFJ.prepare`, then `run` selecting columns on the
  * 24-function space and searching the final program over all 140.
  */
object MultiWorkload extends Workload {
  val name = "multi"
  val setupRounds = 2
  /** BB keeps its 16 columns; its rows are scaled to fit a run's budget. */
  val Specs: Vector[(String, Double)] = Vector("BB" -> 0.2)

  final case class State(tasks: Vector[MultiTask])

  def setup(spark: SparkSession, seed: Long): State = State(Specs.map { case (n, f) =>
    val s = MultiColGen.specs.find(_.name == n).get
    def sc(x: Int) = math.max(1, math.round(x * f).toInt)
    MultiColGen.generate(s.copy(seed = reseed(s.seed, seed), nL = sc(s.nL), nExtra = sc(s.nExtra),
      nMatches = sc(s.nMatches), nNonMatches = sc(s.nNonMatches)))
  })
  def tasks(s: State): Vector[String] = s.tasks.map(_.name)

  def run(spark: SparkSession, s: State, i: Int, tr: Option[Tracer]): TaskOut = {
    val task = s.tasks(i)
    val selFids = Some(ConfigSpace.reduced24.toArray)
    val (p, res) = tr match {
      case None =>
        val p = MultiColumnAutoFJ.prepare(spark, task)
        (p, MultiColumnAutoFJ.run(p, Tau, g = G, selectionFids = selFids))
      case Some(t) => t.span("learn")(tracedMulti(spark, task, t))
    }
    TaskOut(p.lrCols(0).iterator.map(d => (d.leftId, d.rightId)).toVector,
      p.llCols(0).iterator.map(d => (d.leftId, d.rightId)).toVector,
      Set.empty, res.result.program, res.weights.toVector, res.result.assignment, Vector.empty)((p, res))
  }

  /** [[MultiColumnAutoFJ.prepare]] and [[MultiColumnAutoFJ.run]], layer by
    * layer. The forward selection is replayed so that each weight vector's
    * `SearchData` and search get their own spans; the replay runs the
    * candidates concurrently on the same execution context as the program.
    */
  private def tracedMulti(spark: SparkSession, task: MultiTask, tr: Tracer)
      : (MultiColumnAutoFJ.PreparedMulti, MultiColumnAutoFJ.MultiResult) = {
    val m = task.nCols
    val (lrPairs, llPairs) = tr.span("blocking") {
      val dfL = toDF(spark, task.left.map { case (id, v) => (id, v.mkString(" ")) })
      val dfR = toDF(spark, task.right.map { case (id, v) => (id, v.mkString(" ")) })
      val (lrCand, llCand) = Blocking.block(spark, dfL, dfR)
      (lrCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq,
       llCand.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq)
    }
    tr.count("blocking.lr_pairs", lrPairs.length)
    tr.count("blocking.ll_pairs", llPairs.length)
    val (lPrepped, rPrepped, ctxs) = tr.span("prep") {
      val lp = task.left.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap
      val rp = task.right.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap
      (lp, rp, Array.tabulate(m)(c => FeatureContext.build(lp.values.map(_(c)) ++ rp.values.map(_(c)))))
    }
    tr.count("prep.records", (task.left.size + task.right.size).toDouble * m)
    val (lrCols, llCols) = tr.span("distance") {
      val lrDf = toPairDF(spark, lrPairs)
      val llDf = toPairDF(spark, llPairs)
      (DistanceTable.computeMulti(spark, lrDf, lPrepped, rPrepped, ctxs).map(_.sortBy(p => (p.leftId, p.rightId))),
       DistanceTable.computeMulti(spark, llDf, lPrepped, lPrepped, ctxs).map(_.sortBy(p => (p.leftId, p.rightId))))
    }
    countDistances(tr, lrPairs.length + llPairs.length, m)
    val prepared = MultiColumnAutoFJ.PreparedMulti(task.columns, lrCols, llCols)
    val result = tr.span("selection")(select(prepared, tr))
    (prepared, result)
  }

  /** Algorithm 3 as [[MultiColumnAutoFJ.run]] performs it with
    * `selectionFids = reduced24`, with spans around each search.
    */
  private def select(p: MultiColumnAutoFJ.PreparedMulti, tr: Tracer): MultiColumnAutoFJ.MultiResult = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val m = p.columns.length
    val thetas = ConfigSpace.thresholds(Steps)
    val selFids = ConfigSpace.reduced24.toArray
    val parent = tr.currentSpan
    val read = scala.collection.mutable.Set.empty[(Int, Int)]
    def searchOn(fids: Array[Int], w: Array[Double]): AutoFJ.Result = {
      read.synchronized(for (c <- 0 until m if w(c) != 0.0; f <- fids) read += ((c, f)))
      val data = tr.span("searchdata", parent)(SearchData.fromColumns(p.lrCols, p.llCols, fids, w))
      tracedSearch(tr, parent)(AutoFJ.search(data, thetas, Tau))
    }
    var w = Array.fill(m)(0.0)
    var remaining = (0 until m).toSet
    var bestResult: AutoFJ.Result = null
    var bestRecall = Double.NegativeInfinity
    var selected = Vector.empty[Int]
    var continue = true
    while (continue && remaining.nonEmpty) {
      val isFirst = w.forall(_ == 0.0)
      val candidates: Seq[(Int, Array[Double])] =
        if (isFirst) remaining.toSeq.sorted.map { j =>
          val w2 = Array.fill(m)(0.0); w2(j) = 1.0; (j, w2)
        }
        else for {
          j <- remaining.toSeq.sorted
          a <- 1 until G
        } yield {
          val alpha = a.toDouble / G
          (j, Array.tabulate(m)(i => (1 - alpha) * w(i) + (if (i == j) alpha else 0.0)))
        }
      tr.count("selection.rounds", 1)
      tr.count("selection.searches", candidates.size)
      val evaluated = Await.result(
        Future.sequence(candidates.map { case (j, w2) => Future((j, w2, searchOn(selFids, w2))) }), Duration.Inf)
      val (bj, bw, br) = evaluated.maxBy { case (j, _, r) => (r.estTP, -j) }
      if (br.estTP > bestRecall) {
        bestRecall = br.estTP; bestResult = br; w = bw
        selected = selected :+ bj; remaining -= bj
      } else continue = false
    }
    val finalResult = searchOn(AllFids, w)
    val pairs = p.lrCols(0).length + p.llCols(0).length
    tr.count("distance.read", pairs.toDouble * read.size)
    MultiColumnAutoFJ.MultiResult(finalResult, w, selected)
  }

  def check(s: State, i: Int, out: TaskOut): Seq[String] = {
    val (_, res) = out.held.asInstanceOf[(MultiColumnAutoFJ.PreparedMulti, MultiColumnAutoFJ.MultiResult)]
    val task = s.tasks(i)
    val wsum = out.weights.sum
    checkLearned(task.name, out, out.lrPairs.toSet, res.result.estPrecision) ++ Seq(
      if (math.abs(wsum - 1.0) > 1e-9) Some(f"${task.name}: column weights sum to $wsum%.6f") else None,
      if (res.selected.isEmpty || res.selected.exists(c => out.weights(c) <= 0.0))
        Some(s"${task.name}: selected columns without weight") else None,
    ).flatten
  }

  def quality(s: State, i: Int, out: TaskOut): Quality =
    qualityOf(out.assignment, s.tasks(i).gt, s.tasks(i).gtTotal)
}
