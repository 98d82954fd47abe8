package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core.ConfigSpace
import repro.data.Benchmarks
import repro.eval.Metrics
import SingleColumnHarness._

/** Builders that turn per-task evaluations into the paper's tables. */
object Reports {

  def fmt(x: Double): String = if (x.isNaN) "  NA " else f"$x%.3f"

  /** Table 2: overall single-column quality comparison. */
  def table2(evals: Seq[TaskEval]): String = {
    val sb = new StringBuilder
    val fStar = bestStaticFunction(evals)
    val fStarLabel = ConfigSpace.decode(fStar).label
    sb.append("Table 2 — single-column fuzzy join quality ")
      .append(s"(tau=$Tau, |S|=140 join functions, BSJ*=$fStarLabel)\n")
    sb.append(f"${"Dataset"}%-22s ${"Size(L-R)"}%-11s  UBR   PEPCC RERCC   P     R   | BSJ   ")
    BaselineNames.foreach(m => sb.append(f"$m%-8s "))
    sb.append(" UC    NR\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-22s ${s"${e.nL}-${e.nR}"}%-11s ${fmt(e.ubr)} ${fmt(e.pepcc)} ${fmt(e.rercc)} " +
        f"${fmt(e.autoP)} ${fmt(e.autoR)} | ${fmt(e.bsjArPerF(fStar))} ")
      BaselineNames.foreach(m => sb.append(f"${fmt(e.methods(m).ar)}%-8s "))
      sb.append(f"${fmt(e.autoUcR)} ${fmt(e.autoNrR)}\n")
    }
    def avg(f: TaskEval => Double): Double = {
      val vs = evals.map(f).filterNot(_.isNaN) // NA rows excluded, as in the paper
      if (vs.isEmpty) Double.NaN else vs.sum / vs.size
    }
    sb.append(f"${"Average"}%-22s ${""}%-11s ${fmt(avg(_.ubr))} ${fmt(avg(_.pepcc))} ${fmt(avg(_.rercc))} " +
      f"${fmt(avg(_.autoP))} ${fmt(avg(_.autoR))} | ${fmt(avg(_.bsjArPerF(fStar)))} ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).ar))}%-8s "))
    sb.append(f"${fmt(avg(_.autoUcR))} ${fmt(avg(_.autoNrR))}\n")

    // Upper-tailed paired t-test: H0 — AutoFJ recall no better than the AR.
    sb.append(f"${"T-test p-value"}%-22s ${""}%-11s ${""}%-35s | ")
    val pBsj = Metrics.upperTailPairedTTest(evals.map(e => e.autoR - e.bsjArPerF(fStar)))
    sb.append(f"$pBsj%.0e ")
    BaselineNames.foreach { m =>
      val p = Metrics.upperTailPairedTTest(evals.map(e => e.autoR - e.methods(m).ar))
      sb.append(f"$p%-8.0e ")
    }
    val pUc = Metrics.upperTailPairedTTest(evals.map(e => e.autoR - e.autoUcR))
    val pNr = Metrics.upperTailPairedTTest(evals.map(e => e.autoR - e.autoNrR))
    sb.append(f"$pUc%.0e $pNr%.0e\n")

    // Average PR-AUC row.
    sb.append(f"${"Average PR-AUC"}%-22s ${""}%-11s ${""}%-23s ${fmt(avg(_.autoPrAuc))}       | " +
      f"${fmt(avg(_.bsjPrAucPerF(fStar)))} ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).prAuc))}%-8s "))
    sb.append("\n")
    sb.toString
  }

  /** Table 5: PR-AUC per dataset (+ the 24-configuration AutoFJ column). */
  def table5(evals: Seq[TaskEval]): String = {
    val sb = new StringBuilder
    val fStar = bestStaticFunction(evals)
    sb.append("Table 5 — PR-AUC per single-column dataset\n")
    sb.append(f"${"Dataset"}%-22s AutoFJ  BSJ   ")
    BaselineNames.foreach(m => sb.append(f"$m%-8s "))
    sb.append(" AutoFJ-24cfg\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-22s ${fmt(e.autoPrAuc)}  ${fmt(e.bsjPrAucPerF(fStar))} ")
      BaselineNames.foreach(m => sb.append(f"${fmt(e.methods(m).prAuc)}%-8s "))
      sb.append(f" ${fmt(e.auto24PrAuc)}\n")
    }
    val n = evals.size.toDouble
    def avg(f: TaskEval => Double): Double = evals.map(f).sum / n
    sb.append(f"${"Average"}%-22s ${fmt(avg(_.autoPrAuc))}  ${fmt(avg(_.bsjPrAucPerF(fStar)))} ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).prAuc))}%-8s "))
    sb.append(f" ${fmt(avg(_.auto24PrAuc))}\n")
    sb.toString
  }

  /** Table 6: AutoFJ precision/recall with the reduced 24-function space. */
  def table6(evals: Seq[TaskEval]): String = {
    val sb = new StringBuilder
    sb.append("Table 6 — AutoFJ with 24 configurations (vs 140)\n")
    sb.append(f"${"Dataset"}%-22s P(24)  R(24)   P(140) R(140)\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-22s ${fmt(e.auto24P)}  ${fmt(e.auto24R)}   ${fmt(e.autoP)}  ${fmt(e.autoR)}\n")
    }
    val n = evals.size.toDouble
    def avg(f: TaskEval => Double): Double = evals.map(f).sum / n
    sb.append(f"${"Average"}%-22s ${fmt(avg(_.auto24P))}  ${fmt(avg(_.auto24R))}   " +
      f"${fmt(avg(_.autoP))}  ${fmt(avg(_.autoR))}\n")
    sb.toString
  }

  def writeResult(name: String, content: String): Unit = {
    // Forked bench tests run with cwd = the bench subproject directory;
    // anchor the results at <repo-root>/bench/results either way.
    val cwd = new java.io.File(".").getCanonicalFile
    val dir =
      if (cwd.getName == "bench") new java.io.File(cwd, "results")
      else new java.io.File(cwd, "bench/results")
    if (!dir.exists()) dir.mkdirs()
    val w = new java.io.PrintWriter(new java.io.File(dir, name))
    try w.print(content) finally w.close()
    Console.out.println(content)
  }
}

/** One expensive pass over the 20-task suite powers Tables 2, 5 and 6;
  * cached per JVM so the three bench suites share it.
  */
object SingleColumnSuite {
  @volatile private var cached: Vector[TaskEval] = null

  def evals(spark: SparkSession): Vector[TaskEval] = synchronized {
    if (cached == null)
      cached = Benchmarks.singleColumn.map(SingleColumnHarness.evaluate(spark, _)).toVector
    cached
  }
}
