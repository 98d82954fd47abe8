package repro.harness

import repro.SparkSpec
import repro.data.{Benchmarks, MultiColGen}
import SingleColumnHarness.{BaselineNames, MethodEval}

/** Both harnesses end to end on small tasks: every baseline runs, and every
  * score is a ratio.
  */
class HarnessSmokeSpec extends SparkSpec {

  private def unit(x: Double): Boolean = x >= 0.0 && x <= 1.0

  private def assertMethods(methods: Map[String, MethodEval]): Unit = {
    assert(methods.keySet == BaselineNames.toSet)
    methods.foreach { case (m, e) =>
      assert(unit(e.ar) && unit(e.prAuc), s"$m: AR ${e.ar}, PR-AUC ${e.prAuc}")
    }
  }

  test("the single-column harness scores AutoFJ and every baseline on tiny") {
    val e = SingleColumnHarness.evaluateTask(spark, Benchmarks.tiny(), verbose = false)
    assertMethods(e.methods)
    assert(Seq(e.autoP, e.autoR, e.autoPrAuc, e.auto24PrAuc, e.autoUcR, e.autoNrR).forall(unit))
  }

  test("the multi-column harness scores AutoFJ, every baseline and Table 4(b) on a small FZ task") {
    val task = MultiColGen.generate(MultiColGen.specs.head.copy(
      name = "FZ-harness", nL = 60, nExtra = 15, nMatches = 15, nNonMatches = 20))
    val e = MultiColumnHarness.evaluate(spark, task, verbose = false)
    assertMethods(e.methods)
    assert(Seq(e.autoP, e.autoR, e.autoPrAuc).forall(unit))
    assert(Seq(e.deltaAutoR, e.deltaExcelAr, e.deltaAlAr).forall(d => !d.isNaN && !d.isInfinite))
  }
}
