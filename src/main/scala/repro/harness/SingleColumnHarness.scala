package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{BenchmarkGen, SingleTask, TaskSpec}
import repro.eval.Metrics
import repro.eval.Metrics.Scored

/** Shared evaluation harness for the single-column tables (2, 5, 6):
  * runs AutoFJ (full + ablations + 24-config space) and every baseline on
  * each task, producing the per-dataset rows the paper reports.
  */
object SingleColumnHarness {

  /** Per-baseline quality on one dataset. */
  final case class MethodEval(ar: Double, prAuc: Double)

  /** Everything Table 2 / 5 / 6 needs for one dataset. */
  final case class TaskEval(
      dataset: String,
      nL: Int,
      nR: Int,
      ubr: Double,
      pepcc: Double,
      rercc: Double,
      autoP: Double,
      autoR: Double,
      autoPrAuc: Double,
      autoUcR: Double,
      autoNrR: Double,
      auto24P: Double,
      auto24R: Double,
      auto24PrAuc: Double,
      bsjArPerF: Array[Double],
      bsjPrAucPerF: Array[Double],
      methods: Map[String, MethodEval],
  )

  val BaselineNames: Vector[String] =
    Vector("Excel", "FW", "ZeroER", "ECM", "PP", "Magellan", "DM", "AL")

  val Tau = 0.9
  val Steps = 50
  val SupervisedSeeds: Seq[Long] = Seq(41, 42, 43)

  def evaluate(spark: SparkSession, spec: TaskSpec, verbose: Boolean = true): TaskEval = {
    val task = BenchmarkGen.generate(spec)
    evaluateTask(spark, task, verbose)
  }

  def evaluateTask(spark: SparkSession, task: SingleTask, verbose: Boolean = true): TaskEval = {
    val t0 = System.nanoTime()
    val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
    val gt = task.gt
    val gtTotal = task.gtTotal
    val fullFids = ConfigSpace.full.map(_.id).toArray

    // ---- AutoFJ main run (τ = 0.9) + PEPCC/RERCC over iterations -------
    val main = SingleColumnPipeline.autoFJ(prepared, Tau, gt = gt, gtTotal = gtTotal)
    val (autoP, autoR) = Metrics.precisionRecall(main.assignment, gt, gtTotal)
    // Correlation over iterations is NA (the paper's footnote) when the
    // greedy terminates too quickly or the actual series is flat — a
    // correlation over a constant is noise, not signal.
    def corrOrNa(xs: Seq[Double], ys: Seq[Double]): Double = {
      def sd(v: Seq[Double]): Double = {
        val m = v.sum / v.size
        math.sqrt(v.map(x => (x - m) * (x - m)).sum / v.size)
      }
      if (xs.size < 5 || sd(xs) < 5e-3 || sd(ys) < 5e-3) Double.NaN
      else Metrics.pearson(xs, ys)
    }
    val pepcc = corrOrNa(main.trace.map(_.estPrecision), main.trace.map(_.actPrecision))
    val rercc = corrOrNa(main.trace.map(_.estTP), main.trace.map(_.actRecall))

    // ---- Unbounded run: per-pair confidence scores → AutoFJ PR curve ---
    val unbounded = SingleColumnPipeline.autoFJ(prepared, tau = 0.0, gt = gt, gtTotal = gtTotal)
    val autoScored = unbounded.scores.toVector.map { case (r, s) =>
      Scored(r, unbounded.assignment(r), s)
    }
    val autoPrAuc = Metrics.prAuc(autoScored, gt, gtTotal)

    // ---- Ablations ------------------------------------------------------
    // AutoFJ-UC: the best single configuration (max estimated TP subject to
    // the precision target).
    val ucR = {
      val data = SearchData.fromSingle(prepared.lrFiltered, prepared.llPairs, fullFids)
      val res = AutoFJ.searchOneConfig(data, ConfigSpace.thresholds(Steps), Tau)
      Metrics.precisionRecall(res.assignment, gt, gtTotal)._2
    }
    // AutoFJ-NR: full greedy without negative rules.
    val nrRes = SingleColumnPipeline.autoFJ(prepared, Tau, negativeRules = false, gt = gt, gtTotal = gtTotal)
    val nrR = Metrics.precisionRecall(nrRes.assignment, gt, gtTotal)._2

    // ---- Reduced 24-configuration space (Table 6 / Table 5 last col) ---
    val r24 = SingleColumnPipeline.autoFJ(prepared, Tau, fids = ConfigSpace.reduced24.toArray,
      gt = gt, gtTotal = gtTotal)
    val (p24, rec24) = Metrics.precisionRecall(r24.assignment, gt, gtTotal)
    val r24u = SingleColumnPipeline.autoFJ(prepared, tau = 0.0, fids = ConfigSpace.reduced24.toArray)
    val auto24PrAuc = Metrics.prAuc(
      r24u.scores.toVector.map { case (r, s) => Scored(r, r24u.assignment(r), s) }, gt, gtTotal)

    // ---- UBR ------------------------------------------------------------
    val ubr = StaticBaselines.upperBoundRecall(prepared.lrAll, gt, gtTotal)

    // ---- BSJ: AR / PR-AUC of every static function ----------------------
    val bsjAr = new Array[Double](ConfigSpace.Size)
    val bsjAuc = new Array[Double](ConfigSpace.Size)
    var f = 0
    while (f < ConfigSpace.Size) {
      val sc = StaticBaselines.scoredForFunction(prepared.lrAll, f)
      bsjAr(f) = Metrics.adjustedRecall(sc, gt, gtTotal, autoP)
      bsjAuc(f) = Metrics.prAuc(sc, gt, gtTotal)
      f += 1
    }

    // ---- Baselines -------------------------------------------------------
    val pairs = prepared.lrAll.map(p =>
      CandPair(p.leftId, p.rightId, prepared.lText(p.leftId), prepared.rText(p.rightId))).toVector
    val feats = pairs.map(p => Features.vector(p.l, p.r))

    def evalScored(s: Seq[Scored]): MethodEval =
      MethodEval(Metrics.adjustedRecall(s, gt, gtTotal, autoP), Metrics.prAuc(s, gt, gtTotal))

    val excel = evalScored(ExcelFuzzy.run(pairs))
    val fw = evalScored(FuzzyWuzzy.run(pairs))
    val zeroer = evalScored(ZeroER.run(pairs, feats))
    val ecm = evalScored(ECM.run(pairs, feats))
    val pp = evalScored(PPJoin.run(spark, task.left, task.right))

    def supervised(model: String): MethodEval = {
      val runs = SupervisedSeeds.map { seed =>
        val sr = SupervisedML.runSplit(spark, pairs, feats, gt, model, seed)
        (Metrics.adjustedRecall(sr.scored, sr.testGt, sr.testGtTotal, autoP),
         Metrics.prAuc(sr.scored, sr.testGt, sr.testGtTotal))
      }
      MethodEval(runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size)
    }
    val magellan = supervised("rf")
    val dm = supervised("mlp")
    val al = evalScored(ActiveLearning.run(pairs, feats, gt))

    val methods = Map(
      "Excel" -> excel, "FW" -> fw, "ZeroER" -> zeroer, "ECM" -> ecm, "PP" -> pp,
      "Magellan" -> magellan, "DM" -> dm, "AL" -> al)

    if (verbose) {
      val dt = (System.nanoTime() - t0) / 1e9
      Console.err.println(
        f"[harness] ${task.name}%-22s |L|=${task.left.size}%5d |R|=${task.right.size}%4d " +
        f"P=$autoP%.3f R=$autoR%.3f UBR=$ubr%.3f (${dt}%.0fs)")
    }

    TaskEval(task.name, task.left.size, task.right.size, ubr, pepcc, rercc,
      autoP, autoR, autoPrAuc, ucR, nrR, p24, rec24, auto24PrAuc, bsjAr, bsjAuc, methods)
  }

  /** BSJ selection across datasets: the function with the best mean AR. */
  def bestStaticFunction(evals: Seq[TaskEval]): Int = {
    val n = ConfigSpace.Size
    val mean = (0 until n).map(f => evals.map(_.bsjArPerF(f)).sum / evals.size)
    mean.zipWithIndex.maxBy(_._1)._2
  }
}
