package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{BenchmarkGen, SingleTask, TaskSpec}
import repro.eval.Metrics
import repro.eval.Metrics.Scored

/** Shared evaluation harness for the single-column tables (2, 5, 6):
  * runs AutoFJ (full + ablations + 24-config space) and every baseline on
  * each task, producing the per-dataset rows the paper reports. It also
  * holds what the multi-column harness shares: τ, s, the baselines and the
  * AutoFJ PR-AUC.
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

  val Tau = 0.9
  val SupervisedSeeds: Seq[Long] = Seq(41, 42, 43)

  /** What every baseline reads on one task: the blocked candidate pairs
    * with their texts and feature vectors, PPJoin's own (L, R) records, the
    * ground truth, and AutoFJ's precision `autoP`, at which adjusted recall
    * is read.
    */
  final case class BaselineInput(
      task: String,
      pairs: Vector[CandPair],
      feats: Vector[Array[Double]],
      ppLeft: Seq[(Long, String)],
      ppRight: Seq[(Long, String)],
      gt: Map[Long, Long],
      gtTotal: Int,
      autoP: Double,
  ) {
    def eval(s: Seq[Scored]): MethodEval =
      MethodEval(Metrics.adjustedRecall(s, gt, gtTotal, autoP), Metrics.prAuc(s, gt, gtTotal))

    /** Mean AR and PR-AUC over the supervised seeds, each on its test half. */
    def supervised(spark: SparkSession, model: String): MethodEval = {
      val runs = SupervisedSeeds.map { seed =>
        val sr = SupervisedML.runSplit(spark, pairs, feats, gt, model, seed)
        (Metrics.adjustedRecall(sr.scored, sr.testGt, sr.testGtTotal, autoP),
         Metrics.prAuc(sr.scored, sr.testGt, sr.testGtTotal))
      }
      MethodEval(runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size)
    }
  }

  /** The baselines of Tables 2 and 4, in column order. */
  private val Baselines: Vector[(String, (SparkSession, BaselineInput) => MethodEval)] = Vector(
    ("Excel", (_, in) => in.eval(ExcelFuzzy.run(in.pairs))),
    ("FW", (_, in) => in.eval(FuzzyWuzzy.run(in.pairs))),
    ("ZeroER", (_, in) => in.eval(ZeroER.run(in.pairs, in.feats))),
    ("ECM", (_, in) => in.eval(ECM.run(in.pairs, in.feats))),
    ("PP", (_, in) => in.eval(PPJoin.run(in.ppLeft, in.ppRight))),
    ("Magellan", (spark, in) => in.supervised(spark, "rf")),
    ("DM", (spark, in) => in.supervised(spark, "mlp")),
    ("AL", (_, in) => in.eval(ActiveLearning.run(in.pairs, in.feats, in.gt))),
  )

  val BaselineNames: Vector[String] = Baselines.map(_._1)

  /** Runs the baselines in `names` (all by default) in [[BaselineNames]]
    * order, logging each one's wall time.
    */
  def evaluateBaselines(spark: SparkSession, in: BaselineInput, names: Set[String] = BaselineNames.toSet)
      : Map[String, MethodEval] =
    Baselines.filter(b => names(b._1)).map { case (name, run) =>
      name -> timed(name, in.task)(run(spark, in))
    }.toMap

  /** AutoFJ's PR-AUC: the unbounded search (τ = 0) over `data`, its joins
    * ranked by their estimated precision.
    */
  def autoFJPrAuc(data: SearchData, gt: Map[Long, Long], gtTotal: Int): Double = {
    val res = AutoFJ.search(data, ConfigSpace.thresholds(), tau = 0.0)
    Metrics.prAuc(res.scores.toVector.map { case (r, s) => Scored(r, res.assignment(r), s) }, gt, gtTotal)
  }

  /** `f`, with its wall time logged to stderr as `[timing] task label`. */
  private[harness] def timed[A](label: String, task: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val out = f
    Console.err.println(f"[timing] $task $label ${(System.nanoTime() - t0) / 1e9}%.1fs")
    out
  }

  def evaluate(spark: SparkSession, spec: TaskSpec, verbose: Boolean = true): TaskEval = {
    val task = BenchmarkGen.generate(spec)
    evaluateTask(spark, task, verbose)
  }

  def evaluateTask(spark: SparkSession, task: SingleTask, verbose: Boolean = true): TaskEval = {
    val t0 = System.nanoTime()
    val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)
    val gt = task.gt
    val gtTotal = task.gtTotal
    // One layout per function space and pair set, shared by the runs over
    // it: the rule-filtered pairs under 140 and 24 functions, and every
    // blocked pair under 140 (the NR ablation, UBR and BSJ).
    val fullIds = ConfigSpace.full.map(_.id).toArray
    val fullData = SearchData.fromSingle(prepared.lrFiltered, prepared.llPairs, fullIds)
    val data24 = SearchData.fromSingle(prepared.lrFiltered, prepared.llPairs, ConfigSpace.reduced24.toArray)
    val allData = SearchData.fromSingle(prepared.lrAll, prepared.llPairs, fullIds)

    // ---- AutoFJ main run (τ = 0.9) + PEPCC/RERCC over iterations -------
    val main = AutoFJ.search(fullData, ConfigSpace.thresholds(), Tau, gt, gtTotal)
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
    val autoPrAuc = autoFJPrAuc(fullData, gt, gtTotal)

    // ---- Ablations ------------------------------------------------------
    // AutoFJ-UC: the best single configuration (max estimated TP subject to
    // the precision target).
    val ucR = Metrics.precisionRecall(
      AutoFJ.searchOneConfig(fullData, ConfigSpace.thresholds(), Tau).assignment, gt, gtTotal)._2
    // AutoFJ-NR: full greedy without negative rules.
    val nrRes = AutoFJ.search(allData, ConfigSpace.thresholds(), Tau, gt, gtTotal)
    val nrR = Metrics.precisionRecall(nrRes.assignment, gt, gtTotal)._2

    // ---- Reduced 24-configuration space (Table 6 / Table 5 last col) ---
    val r24 = AutoFJ.search(data24, ConfigSpace.thresholds(), Tau, gt, gtTotal)
    val (p24, rec24) = Metrics.precisionRecall(r24.assignment, gt, gtTotal)
    val auto24PrAuc = autoFJPrAuc(data24, gt, gtTotal)

    // ---- UBR ------------------------------------------------------------
    val ubr = StaticBaselines.upperBoundRecall(allData, gt, gtTotal)

    // ---- BSJ: AR / PR-AUC of every static function (slot f is function f)
    val bsjAr = new Array[Double](ConfigSpace.Size)
    val bsjAuc = new Array[Double](ConfigSpace.Size)
    var f = 0
    while (f < ConfigSpace.Size) {
      val sc = StaticBaselines.scoredForFunction(allData, f)
      bsjAr(f) = Metrics.adjustedRecall(sc, gt, gtTotal, autoP)
      bsjAuc(f) = Metrics.prAuc(sc, gt, gtTotal)
      f += 1
    }

    // ---- Baselines -------------------------------------------------------
    val pairs = prepared.lrAll.map(p =>
      CandPair(p.leftId, p.rightId, prepared.lText(p.leftId), prepared.rText(p.rightId))).toVector
    val methods = evaluateBaselines(spark, BaselineInput(task.name, pairs, pairs.map(p => Features.vector(p.l, p.r)),
      task.left, task.right, gt, gtTotal, autoP))

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
