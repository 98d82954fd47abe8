package repro.core

import repro.SparkSpec
import repro.data.MultiColGen
import repro.eval.Metrics

class MultiSmokeSpec extends SparkSpec {

  test("multi-column AutoFJ selects the informative column on a small task") {
    val spec = MultiColGen.specs.head.copy( // FZ-like, scaled down
      name = "FZ-small", nL = 150, nExtra = 40, nMatches = 40, nNonMatches = 60)
    val task = MultiColGen.generate(spec)
    val t0 = System.nanoTime()
    val prep = MultiColumnAutoFJ.prepare(spark, task)
    val tPrep = (System.nanoTime() - t0) / 1e9
    val t1 = System.nanoTime()
    val res = MultiColumnAutoFJ.run(prep, tau = 0.9, gt = task.gt, gtTotal = task.gtTotal)
    val tRun = (System.nanoTime() - t1) / 1e9
    val (p, r) = Metrics.precisionRecall(res.result.assignment, task.gt, task.gtTotal)
    val cols = res.selected.map(task.columns)
    info(f"prep=$tPrep%.1fs run=$tRun%.1fs cols=$cols weights=${res.weights.toVector} " +
         f"P=$p%.3f R=$r%.3f joined=${res.result.assignment.size}")
    assert(res.selected.nonEmpty)
    assert(p >= 0.6, s"precision $p too low")
    assert(r >= 0.3, s"recall $r too low")
  }

  test("multi-column learning (prepare + run) runs no Spark job") {
    val task = MultiColGen.generate(MultiColGen.specs.head.copy(
      name = "FZ-jobs", nL = 60, nExtra = 15, nMatches = 15, nNonMatches = 20))
    val (res, jobs) = jobsOf(MultiColumnAutoFJ.run(MultiColumnAutoFJ.prepare(spark, task), tau = 0.9,
      selectionFids = Some(ConfigSpace.reduced24.toArray)))
    assert(res.selected.nonEmpty)
    assert(jobs == 0)
  }

  test("prepare's tables are bit-equal to per-record Prepped and a context over every record") {
    val task = MultiColGen.generate(MultiColGen.specs.head.copy(
      name = "FZ-ref", nL = 60, nExtra = 15, nMatches = 15, nNonMatches = 20))
    val m = task.nCols
    val repeated = (0 until m).count(c => task.left.map(_._2(c)).distinct.size < task.left.size)
    assert(repeated >= 2, "the task has columns whose values repeat")
    val prep = MultiColumnAutoFJ.prepare(spark, task)
    // The reference: one unshared Prepped per record and column, and each
    // column's context built sequentially over every record of L and R.
    def recs(side: Seq[(Long, Vector[String])]) = side.map { case (id, v) => id -> v.map(Prepped(_)) }.toMap
    val lRecs = recs(task.left); val rRecs = recs(task.right)
    val ctxs = Array.tabulate(m)(c =>
      FeatureContext.build(task.left.map(t => lRecs(t._1)(c)) ++ task.right.map(t => rRecs(t._1)(c))))
    def concat(side: Seq[(Long, Vector[String])]) = side.map { case (id, v) => (id, v.mkString(" ")) }
    val (lrCand, llCand) = Blocking.block(concat(task.left), concat(task.right))
    for ((name, got, cand, right) <- Seq(("L-R", prep.lrCols, lrCand, rRecs), ("L-L", prep.llCols, llCand, lRecs))) {
      val pairs = cand.map(t => (t._1, t._2)).sorted
      assert(pairs.nonEmpty)
      assert(got.length == m)
      (0 until m).foreach { c =>
        assert(got(c).map(p => (p.leftId, p.rightId)).toSeq == pairs.toSeq, s"$name column $c pairs")
        got(c).foreach { p =>
          val want = DistanceTable.vector(lRecs(p.leftId)(c), right(p.rightId)(c), ctxs(c))
          assert(java.util.Arrays.equals(p.d, want), s"$name column $c pair (${p.leftId}, ${p.rightId})")
        }
      }
    }
  }

  test("a null value is missing: prepare gives the same pairs and rows as with the empty string") {
    val task = MultiColGen.generate(MultiColGen.specs.head.copy(
      name = "FZ-null", nL = 60, nExtra = 15, nMatches = 15, nNonMatches = 20))
    // Every third record of L and of R loses its first column's value.
    def blank(side: Vector[(Long, Vector[String])], v: String) = side.zipWithIndex.map {
      case ((id, vals), i) => (id, if (i % 3 == 0) vals.updated(0, v) else vals)
    }
    def prep(v: String) = MultiColumnAutoFJ.prepare(spark,
      task.copy(left = blank(task.left, v), right = blank(task.right, v)))
    def rows(cols: Array[Array[PairDist]]) =
      cols.map(_.map(p => (p.leftId, p.rightId, p.d.toSeq.map(java.lang.Float.floatToRawIntBits))).toSeq).toSeq
    val (withNull, withEmpty) = (prep(null), prep(""))
    assert(withNull.lrCols(0).nonEmpty && withNull.llCols(0).nonEmpty)
    assert(rows(withNull.lrCols) == rows(withEmpty.lrCols))
    assert(rows(withNull.llCols) == rows(withEmpty.llCols))
  }

  test("random columns are never selected (Table 4b mechanism)") {
    val spec = MultiColGen.specs.head.copy(
      name = "FZ-rand", nL = 120, nExtra = 30, nMatches = 30, nNonMatches = 40)
    val task = MultiColGen.addRandomColumns(MultiColGen.generate(spec), 2, seed = 99)
    val prep = MultiColumnAutoFJ.prepare(spark, task)
    val res = MultiColumnAutoFJ.run(prep, tau = 0.9)
    val selectedNames = res.selected.map(task.columns)
    assert(selectedNames.forall(!_.startsWith("rand")),
      s"random columns selected: $selectedNames")
  }
}
