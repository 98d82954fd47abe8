package repro.core

import repro.SparkSpec
import repro.data.{Benchmarks, Family}
import repro.eval.Metrics

class PipelineSpec extends SparkSpec {

  private lazy val task = Benchmarks.tiny(seed = 31)
  private lazy val prepared = SingleColumnPipeline.prepare(spark, task.left, task.right)

  test("learning (prepare + autoFJ) runs no Spark job") {
    val tiny = Benchmarks.tiny()
    val (res, jobs) =
      jobsOf(SingleColumnPipeline.autoFJ(SingleColumnPipeline.prepare(spark, tiny.left, tiny.right), tau = 0.9))
    assert(res.program.nonEmpty)
    assert(jobs == 0)
  }

  test("prepare computes distances for both pair tables") {
    assert(prepared.lrAll.nonEmpty && prepared.llPairs.nonEmpty)
    assert(prepared.lrAll.forall(_.d.length == ConfigSpace.Size))
    assert(prepared.llPairs.forall(_.d.length == ConfigSpace.Size))
  }

  test("prepare's tables and apply's distances are bit-equal to vector over per-record Prepped, in blocking order") {
    val tiny = Benchmarks.tiny()
    val p = SingleColumnPipeline.prepare(spark, tiny.left, tiny.right)
    // The reference: one unshared Prepped per record and one context built
    // sequentially over every record of L and R.
    val lp = tiny.left.map { case (id, t) => id -> Prepped(t) }.toMap
    val rp = tiny.right.map { case (id, t) => id -> Prepped(t) }.toMap
    val ctx = FeatureContext.build(tiny.left.map(t => lp(t._1)) ++ tiny.right.map(t => rp(t._1)))
    val (lrCand, llCand) = Blocking.block(tiny.left, tiny.right)
    val lr = lrCand.map(t => (t._1, t._2)).toSeq
    val ll = llCand.map(t => (t._1, t._2)).toSeq
    val lText = tiny.left.toMap; val rText = tiny.right.toMap
    val kept = lr.filterNot { case (l, r) => NegativeRules.violates(p.rules, lText(l), rText(r)) }
    assert(kept.nonEmpty && ll.nonEmpty)
    for ((name, got, pairs, right) <- Seq(("lrAll", p.lrAll, lr, rp), ("lrFiltered", p.lrFiltered, kept, rp),
                                          ("llPairs", p.llPairs, ll, lp))) {
      assert(got.map(d => (d.leftId, d.rightId)).toSeq == pairs, s"$name pairs")
      got.foreach { d =>
        assert(java.util.Arrays.equals(d.d, DistanceTable.vector(lp(d.leftId), right(d.rightId), ctx)),
          s"$name pair (${d.leftId}, ${d.rightId})")
      }
    }

    val res = SingleColumnPipeline.autoFJ(p, tau = 0.9)
    val rows = FuzzyJoinProgram(res.program, p.rules)(spark,
      SingleColumnPipeline.toDF(spark, tiny.left), SingleColumnPipeline.toDF(spark, tiny.right)).collect()
    assert(rows.nonEmpty)
    rows.foreach { row =>
      val (r, l, c) = (row.getLong(0), row.getLong(1), res.program(row.getInt(3)))
      assert(row.getDouble(2) == DistanceTable.vector(lp(l), rp(r), ctx)(c.fId).toDouble, s"applied ($l, $r)")
    }
  }

  test("negative-rule filtering removes a subset of the candidate pairs") {
    val all = prepared.lrAll.map(p => (p.leftId, p.rightId)).toSet
    val kept = prepared.lrFiltered.map(p => (p.leftId, p.rightId)).toSet
    assert(kept.subsetOf(all))
    assert(prepared.rules.nonEmpty, "the TeamSeason grid should yield rules")
    assert(kept.size < all.size, "some sibling pairs should be filtered")
  }

  test("filtered-out pairs all violate a learned rule") {
    val kept = prepared.lrFiltered.map(p => (p.leftId, p.rightId)).toSet
    prepared.lrAll.filterNot(p => kept((p.leftId, p.rightId))).foreach { p =>
      assert(NegativeRules.violates(prepared.rules,
        prepared.lText(p.leftId), prepared.rText(p.rightId)))
    }
  }

  test("autoFJ is deterministic") {
    val a = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    val b = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    assert(a.program == b.program && a.assignment == b.assignment)
  }

  test("negative rules improve precision on rule-violating data") {
    val withRules = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    val without = SingleColumnPipeline.autoFJ(prepared, tau = 0.9, negativeRules = false)
    val (pWith, _) = Metrics.precisionRecall(withRules.assignment, task.gt, task.gtTotal)
    val (pWithout, _) = Metrics.precisionRecall(without.assignment, task.gt, task.gtTotal)
    assert(pWith >= pWithout - 0.05,
      s"negative rules should not hurt precision ($pWith vs $pWithout)")
  }

  test("a lower precision target yields at least as much recall") {
    val strict = SingleColumnPipeline.autoFJ(prepared, tau = 0.95)
    val loose = SingleColumnPipeline.autoFJ(prepared, tau = 0.7)
    assert(loose.assignment.size >= strict.assignment.size)
  }

  test("the reduced 24-function space still produces a program") {
    val res = SingleColumnPipeline.autoFJ(prepared, tau = 0.9,
      fids = ConfigSpace.reduced24.toArray)
    assert(res.program.nonEmpty)
    assert(res.program.forall(c => ConfigSpace.reduced24.contains(c.fId)))
  }

  test("estimated precision tracks the target across tau values") {
    Seq(0.8, 0.9).foreach { tau =>
      val res = SingleColumnPipeline.autoFJ(prepared, tau = tau)
      assert(res.estPrecision > tau, f"est ${res.estPrecision}%.3f must stay above $tau")
    }
  }

  test("zero-fuzzy-join robustness: unrelated L and R produce few joins") {
    // L from TeamSeason, R from Code names — nothing should join (the
    // Figure 6(b) regime; false-positive rate below a few percent).
    val teams = Benchmarks.tiny(seed = 32, family = Family.TeamSeason)
    val drugs = Benchmarks.tiny(seed = 33, family = Family.Code)
    val prep = SingleColumnPipeline.prepare(spark, teams.left, drugs.right)
    val res = SingleColumnPipeline.autoFJ(prep, tau = 0.9)
    val fpRate = res.assignment.size.toDouble / drugs.right.size
    assert(fpRate <= 0.08, f"false-positive rate $fpRate%.3f too high on unrelated tables")
  }

  test("unbounded run joins at least as much as the tau-bounded run") {
    val bounded = SingleColumnPipeline.autoFJ(prepared, tau = 0.9)
    val unbounded = SingleColumnPipeline.autoFJ(prepared, tau = 0.0)
    assert(unbounded.assignment.size >= bounded.assignment.size)
  }
}
