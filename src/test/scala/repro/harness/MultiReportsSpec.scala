package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import MultiColumnHarness.MultiEval
import SingleColumnHarness.MethodEval

class MultiReportsSpec extends AnyFunSuite {

  private def eval(name: String, r: Double): MultiEval =
    MultiEval(name, "Domain", nAttr = 5, nL = 100, nR = 60, nMatches = 30,
      selected = Vector("name"), weights = Vector(1.0),
      autoP = 0.9, autoR = r, autoPrAuc = r,
      methods = SingleColumnHarness.BaselineNames.map(m =>
        m -> MethodEval(r - 0.1, r - 0.05)).toMap,
      deltaAutoR = 0.0, deltaExcelAr = -0.1, deltaAlAr = -0.05)

  private val evals = Seq(eval("FZ", 0.8), eval("DA", 0.9))

  test("table3 lists sizes and match counts") {
    val t = MultiReports.table3(evals)
    assert(t.contains("FZ") && t.contains("100 - 60") && t.contains("30"))
  }

  test("table4a shows selected columns and weights") {
    val t = MultiReports.table4a(evals)
    assert(t.contains("name") && t.contains("1.0"))
    assert(t.contains("Average") && t.contains("P-value"))
  }

  test("table4b shows signed deltas") {
    val t = MultiReports.table4b(evals)
    assert(t.contains("+0.000") && t.contains("-0.100"))
  }

  test("table7 lists PR-AUC per dataset with average") {
    val t = MultiReports.table7(evals)
    assert(t.contains("FZ") && t.contains("Average"))
  }
}
