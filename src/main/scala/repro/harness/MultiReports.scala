package repro.harness

import repro.eval.Metrics
import MultiColumnHarness.MultiEval
import SingleColumnHarness.BaselineNames
import Reports.fmt

/** Builders for the multi-column tables (3, 4a, 4b, 7). */
object MultiReports {

  /** Table 3: dataset statistics. */
  def table3(evals: Seq[MultiEval]): String = {
    val sb = new StringBuilder
    sb.append("Table 3 — multi-column fuzzy join datasets (synthetic mirrors)\n")
    sb.append(f"${"Dataset"}%-8s ${"Domain"}%-14s #Attr  Size(L-R)      #Matches\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-8s ${e.domain}%-14s ${e.nAttr}%5d  ${s"${e.nL} - ${e.nR}"}%-13s ${e.nMatches}%6d\n")
    }
    sb.toString
  }

  /** Table 4(a): overall multi-column quality comparison. */
  def table4a(evals: Seq[MultiEval]): String = {
    val sb = new StringBuilder
    sb.append("Table 4(a) — multi-column join quality (tau=0.9, g=10)\n")
    sb.append(f"${"Dataset"}%-8s ${"Columns Selected"}%-34s ${"Weights"}%-14s P     R    | ")
    BaselineNames.foreach(m => sb.append(f"$m%-8s "))
    sb.append("\n")
    evals.foreach { e =>
      val cols = e.selected.mkString(", ")
      val ws = e.weights.map(w => f"$w%.1f").mkString(", ")
      sb.append(f"${e.dataset}%-8s $cols%-34s $ws%-14s ${fmt(e.autoP)} ${fmt(e.autoR)} | ")
      BaselineNames.foreach(m => sb.append(f"${fmt(e.methods(m).ar)}%-8s "))
      sb.append("\n")
    }
    val n = evals.size.toDouble
    def avg(f: MultiEval => Double): Double = evals.map(f).sum / n
    sb.append(f"${"Average"}%-8s ${""}%-34s ${""}%-14s ${fmt(avg(_.autoP))} ${fmt(avg(_.autoR))} | ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).ar))}%-8s "))
    sb.append("\n")
    sb.append(f"${"P-value"}%-8s ${""}%-34s ${""}%-14s ${""}%-11s | ")
    BaselineNames.foreach { m =>
      val p = Metrics.upperTailPairedTTest(evals.map(e => e.autoR - e.methods(m).ar))
      sb.append(f"$p%-8.0e ")
    }
    sb.append("\n")
    sb.append(f"${"Avg PR-AUC"}%-8s ${""}%-32s ${""}%-14s ${fmt(avg(_.autoPrAuc))}       | ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).prAuc))}%-8s "))
    sb.append("\n")
    sb.toString
  }

  /** Table 4(b): robustness to added random columns. */
  def table4b(evals: Seq[MultiEval]): String = {
    val sb = new StringBuilder
    sb.append("Table 4(b) — adding 2 random columns (length 10-50)\n")
    sb.append(f"${"Dataset"}%-8s AutoFJ-dR  Excel-dAR  AL-dAR\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-8s ${e.deltaAutoR}%+9.3f  ${e.deltaExcelAr}%+9.3f  ${e.deltaAlAr}%+7.3f\n")
    }
    val n = evals.size.toDouble
    sb.append(f"${"Average"}%-8s ${evals.map(_.deltaAutoR).sum / n}%+9.3f  " +
      f"${evals.map(_.deltaExcelAr).sum / n}%+9.3f  ${evals.map(_.deltaAlAr).sum / n}%+7.3f\n")
    sb.toString
  }

  /** Table 7: PR-AUC on the multi-column datasets. */
  def table7(evals: Seq[MultiEval]): String = {
    val sb = new StringBuilder
    sb.append("Table 7 — PR-AUC on multi-column datasets\n")
    sb.append(f"${"Dataset"}%-8s AutoFJ | ")
    BaselineNames.foreach(m => sb.append(f"$m%-8s "))
    sb.append("\n")
    evals.foreach { e =>
      sb.append(f"${e.dataset}%-8s ${fmt(e.autoPrAuc)}  | ")
      BaselineNames.foreach(m => sb.append(f"${fmt(e.methods(m).prAuc)}%-8s "))
      sb.append("\n")
    }
    val n = evals.size.toDouble
    def avg(f: MultiEval => Double): Double = evals.map(f).sum / n
    sb.append(f"${"Average"}%-8s ${fmt(avg(_.autoPrAuc))}  | ")
    BaselineNames.foreach(m => sb.append(f"${fmt(avg(_.methods(m).prAuc))}%-8s "))
    sb.append("\n")
    sb.toString
  }
}
