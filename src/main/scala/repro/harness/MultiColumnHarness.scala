package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{MultiColGen, MultiTask}
import repro.eval.Metrics
import SingleColumnHarness._

/** Shared evaluation harness for the multi-column tables (3, 4, 7). */
object MultiColumnHarness {

  val G = 10

  final case class MultiEval(
      dataset: String,
      domain: String,
      nAttr: Int,
      nL: Int,
      nR: Int,
      nMatches: Int,
      selected: Vector[String],
      weights: Vector[Double],
      autoP: Double,
      autoR: Double,
      autoPrAuc: Double,
      methods: Map[String, MethodEval],
      deltaAutoR: Double,
      deltaExcelAr: Double,
      deltaAlAr: Double,
  )

  /** Algorithm 3 on one task, selecting on the 24-function space. */
  private def runAutoFJ(spark: SparkSession, task: MultiTask)
      : (MultiColumnAutoFJ.PreparedMulti, MultiColumnAutoFJ.MultiResult) = {
    val prep = timed("prepare", task.name)(MultiColumnAutoFJ.prepare(spark, task))
    val res = timed("selection", task.name)(
      MultiColumnAutoFJ.run(prep, Tau, g = G, gt = task.gt, gtTotal = task.gtTotal,
        selectionFids = Some(ConfigSpace.reduced24.toArray)))
    (prep, res)
  }

  private def concat(vals: Seq[String]): String = vals.filter(_.nonEmpty).mkString(" ")

  /** The baselines' input on `task`: its concat-blocked candidate pairs
    * with concatenated texts and per-column features, read at AutoFJ's
    * precision `autoP`.
    */
  private def baselineInput(task: MultiTask, prep: MultiColumnAutoFJ.PreparedMulti, autoP: Double)
      : BaselineInput = {
    val lVals = task.left.toMap
    val rVals = task.right.toMap
    val ids = prep.lrCols(0).toVector.map(pd => (pd.leftId, pd.rightId))
    val pairs = ids.map { case (l, r) => CandPair(l, r, concat(lVals(l)), concat(rVals(r))) }
    val feats = timed("features", task.name)(ids.map { case (l, r) => Features.vectorMulti(lVals(l), rVals(r)) })
    BaselineInput(task.name, pairs, feats,
      task.left.map { case (id, v) => (id, concat(v)) }, task.right.map { case (id, v) => (id, concat(v)) },
      task.gt, task.gtTotal, autoP)
  }

  def evaluate(spark: SparkSession, task: MultiTask, verbose: Boolean = true): MultiEval = {
    val t0 = System.nanoTime()
    val gt = task.gt; val gtTotal = task.gtTotal
    val (prep, res) = runAutoFJ(spark, task)
    val selected = res.selected
    val (p, r) = Metrics.precisionRecall(res.result.assignment, gt, gtTotal)
    // PR curve: unbounded run under the selected weights.
    val auc = timed("prcurve", task.name)(autoFJPrAuc(
      SearchData.fromColumns(prep.lrCols, prep.llCols, ConfigSpace.full.map(_.id).toArray, res.weights), gt, gtTotal))
    val methods = evaluateBaselines(spark, baselineInput(task, prep, p))

    // ---- Table 4(b): robustness to random columns (same ground truth) ---
    val randTask = MultiColGen.addRandomColumns(task, 2, seed = task.name.hashCode.toLong)
    val (randPrep, randRes) = runAutoFJ(spark, randTask)
    val rr = Metrics.precisionRecall(randRes.result.assignment, gt, gtTotal)._2
    val rand = evaluateBaselines(spark, baselineInput(randTask, randPrep, p), Set("Excel", "AL"))

    if (verbose) {
      val dt = (System.nanoTime() - t0) / 1e9
      Console.err.println(
        f"[harness] ${task.name}%-6s cols=${selected.map(task.columns)}%-30s " +
        f"P=$p%.3f R=$r%.3f dR=${rr - r}%+.3f (${dt}%.0fs)")
    }

    MultiEval(task.name, task.domain, task.nCols, task.left.size, task.right.size, gtTotal,
      selected.map(task.columns), selected.map(res.weights(_)), p, r, auc, methods,
      rr - r, rand("Excel").ar - methods("Excel").ar, rand("AL").ar - methods("AL").ar)
  }
}

/** One pass over the 8 multi-column tasks powers Tables 3, 4 and 7. */
object MultiColumnSuite {
  @volatile private var cached: Vector[MultiColumnHarness.MultiEval] = null

  def evals(spark: SparkSession): Vector[MultiColumnHarness.MultiEval] = synchronized {
    if (cached == null)
      cached = MultiColGen.specs.map(s =>
        MultiColumnHarness.evaluate(spark, MultiColGen.generate(s))).toVector
    cached
  }
}
