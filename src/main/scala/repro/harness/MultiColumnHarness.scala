package repro.harness

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.{MultiColGen, MultiTask}
import repro.eval.Metrics
import repro.eval.Metrics.Scored
import SingleColumnHarness.{BaselineNames, MethodEval, Steps, Tau}

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

  /** AutoFJ multi-column quality on one task: (P, R, PR-AUC, selected,
    * weights).
    */
  private def timed[A](label: String, taskName: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val out = f
    Console.err.println(f"[timing] $taskName $label ${(System.nanoTime() - t0) / 1e9}%.1fs")
    out
  }

  private def runAutoFJ(
      spark: SparkSession, task: MultiTask,
  ): (Double, Double, Double, Vector[Int], Array[Double], MultiColumnAutoFJ.PreparedMulti) = {
    val prep = timed("prepare", task.name)(MultiColumnAutoFJ.prepare(spark, task))
    val res = timed("selection", task.name)(
      MultiColumnAutoFJ.run(prep, Tau, g = G, gt = task.gt, gtTotal = task.gtTotal,
        selectionFids = Some(ConfigSpace.reduced24.toArray)))
    val (p, r) = Metrics.precisionRecall(res.result.assignment, task.gt, task.gtTotal)
    // PR curve: unbounded run under the selected weights.
    val auc = timed("prcurve", task.name) {
      val data = SearchData.fromColumns(prep.lrCols, prep.llCols,
        ConfigSpace.full.map(_.id).toArray, res.weights)
      val unbounded = AutoFJ.search(data, ConfigSpace.thresholds(Steps), tau = 0.0)
      Metrics.prAuc(
        unbounded.scores.toVector.map { case (rid, s) => Scored(rid, unbounded.assignment(rid), s) },
        task.gt, task.gtTotal)
    }
    (p, r, auc, res.selected, res.weights, prep)
  }

  private def concat(vals: Seq[String]): String = vals.filter(_.nonEmpty).mkString(" ")

  def evaluate(spark: SparkSession, task: MultiTask, verbose: Boolean = true): MultiEval = {
    val t0 = System.nanoTime()
    val (p, r, auc, selected, weights, prep) = runAutoFJ(spark, task)
    val gt = task.gt; val gtTotal = task.gtTotal

    // Shared candidate pairs (from concat-blocking) for every baseline.
    val lVals = task.left.toMap
    val rVals = task.right.toMap
    val pairs = prep.lrCols(0).map(pd =>
      CandPair(pd.leftId, pd.rightId, concat(lVals(pd.leftId)), concat(rVals(pd.rightId)))).toVector
    val featsMulti = timed("features", task.name)(prep.lrCols(0).map(pd =>
      Features.vectorMulti(lVals(pd.leftId), rVals(pd.rightId))).toVector)

    def evalScored(s: Seq[Scored]): MethodEval =
      MethodEval(Metrics.adjustedRecall(s, gt, gtTotal, p), Metrics.prAuc(s, gt, gtTotal))

    val excel = timed("excel", task.name)(evalScored(ExcelFuzzy.run(pairs)))
    val fw = timed("fw", task.name)(evalScored(FuzzyWuzzy.run(pairs)))
    val zeroer = timed("zeroer", task.name)(evalScored(ZeroER.run(pairs, featsMulti)))
    val ecm = timed("ecm", task.name)(evalScored(ECM.run(pairs, featsMulti)))
    val pp = timed("ppjoin", task.name)(evalScored(PPJoin.run(spark,
      task.left.map { case (id, v) => (id, concat(v)) },
      task.right.map { case (id, v) => (id, concat(v)) })))

    def supervised(model: String): MethodEval = {
      val runs = SingleColumnHarness.SupervisedSeeds.map { seed =>
        val sr = SupervisedML.runSplit(spark, pairs, featsMulti, gt, model, seed)
        (Metrics.adjustedRecall(sr.scored, sr.testGt, sr.testGtTotal, p),
         Metrics.prAuc(sr.scored, sr.testGt, sr.testGtTotal))
      }
      MethodEval(runs.map(_._1).sum / runs.size, runs.map(_._2).sum / runs.size)
    }
    val magellan = timed("rf", task.name)(supervised("rf"))
    val dm = timed("mlp", task.name)(supervised("mlp"))
    val alScored = timed("al", task.name)(ActiveLearning.run(pairs, featsMulti, gt))
    val al = evalScored(alScored)

    // ---- Table 4(b): robustness to random columns ----------------------
    val randTask = MultiColGen.addRandomColumns(task, 2, seed = task.name.hashCode.toLong)
    val (rp, rr, _, _, _, randPrep) = runAutoFJ(spark, randTask)
    val rPairs = randPrep.lrCols(0).map { pd =>
      val lv = randTask.left.toMap; val rv = randTask.right.toMap
      CandPair(pd.leftId, pd.rightId, concat(lv(pd.leftId)), concat(rv(pd.rightId)))
    }.toVector
    val rFeats = {
      val lv = randTask.left.toMap; val rv = randTask.right.toMap
      randPrep.lrCols(0).map(pd => Features.vectorMulti(lv(pd.leftId), rv(pd.rightId))).toVector
    }
    val randExcelAr = Metrics.adjustedRecall(ExcelFuzzy.run(rPairs), gt, gtTotal, p)
    val randAlAr = Metrics.adjustedRecall(ActiveLearning.run(rPairs, rFeats, gt), gt, gtTotal, p)

    if (verbose) {
      val dt = (System.nanoTime() - t0) / 1e9
      Console.err.println(
        f"[harness] ${task.name}%-6s cols=${selected.map(task.columns)}%-30s " +
        f"P=$p%.3f R=$r%.3f dR=${rr - r}%+.3f (${dt}%.0fs)")
    }

    MultiEval(task.name, task.domain, task.nCols, task.left.size, task.right.size, gtTotal,
      selected.map(task.columns),
      selected.map(weights(_)).toVector,
      p, r, auc,
      Map("Excel" -> excel, "FW" -> fw, "ZeroER" -> zeroer, "ECM" -> ecm, "PP" -> pp,
          "Magellan" -> magellan, "DM" -> dm, "AL" -> al),
      rr - r, randExcelAr - excel.ar, randAlAr - al.ar)
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
