package repro.perfbench

import Main.{Metric, median}

/** Per-layer metrics of the traced passes. Each traced pass gives one row
  * (sums over its tasks); a run reports the median row. Layers are named
  * after the `repro.core` modules; a layer that does not run on a workload
  * reports 0.
  */
object Layers {

  val Metrics: Vector[(String, String)] = Vector(
    "blocking.busy_s" -> "s", "blocking.lr_pairs" -> "count", "blocking.ll_pairs" -> "count",
    "blocking.spark_jobs" -> "count", "blocking.spark_tasks" -> "count", "blocking.shuffle_mb" -> "MB",
    "negrules.learn_s" -> "s", "negrules.rules" -> "count", "negrules.filter_s" -> "s",
    "negrules.kept_ratio" -> "ratio",
    "prep.busy_s" -> "s", "prep.records" -> "count",
    "distance.busy_s" -> "s", "distance.pairs" -> "count", "distance.values" -> "count",
    "distance.collected_mb" -> "MB", "distance.useful_ratio" -> "ratio", "distance.spark_jobs" -> "count",
    "searchdata.busy_s" -> "s", "search.busy_s" -> "s", "search.calls" -> "count",
    "search.iterations" -> "count",
    "selection.busy_s" -> "s", "selection.searches" -> "count", "selection.rounds" -> "count",
    "apply.busy_s" -> "s", "apply.spark_jobs" -> "count", "apply.rows" -> "count",
    "jvm.gc_s" -> "s", "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.result_mb" -> "MB",
    "trace.overhead_s" -> "s",
    "quality.tau_shortfall" -> "ratio", "quality.apply_checked" -> "count",
    "quality.apply_mismatched" -> "count", "drift.frac" -> "ratio",
    "leak.cached_rdds" -> "count", "leak.heap_growth_mb" -> "MB",
  )

  private val MB = 1048576.0

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  /** One traced pass: busy (self) seconds per layer, the pass's counters,
    * and the Spark work of the job groups its spans opened.
    */
  def row(tr: Tracer, tallies: Map[String, Tally], gcS: Double): Map[String, Double] = {
    val (spans, c) = tr.result
    val self = Tracer.selfSeconds(spans)
    val byId = spans.map(s => s.id -> s).toMap
    def cnt(k: String) = c.getOrElse(k, 0.0)
    def busy(name: String) = spans.filter(s => s.name == name || s.layer == name).map(s => self(s.id)).sum
    def within(s: Span, layer: String): Boolean =
      s.layer == layer || byId.get(s.parent).exists(within(_, layer))
    def spark(p: Span => Boolean)(f: Tally => Long): Double =
      spans.filter(p).flatMap(s => tallies.get(s"${tr.pass}:${s.id}")).map(f).sum.toDouble
    val all = tallies.collect { case (g, t) if g.startsWith(s"${tr.pass}:") => t }
    Map(
      "blocking.busy_s" -> busy("blocking"),
      "blocking.lr_pairs" -> cnt("blocking.lr_pairs"),
      "blocking.ll_pairs" -> cnt("blocking.ll_pairs"),
      "blocking.spark_jobs" -> spark(_.layer == "blocking")(_.jobs),
      "blocking.spark_tasks" -> spark(_.layer == "blocking")(_.tasks),
      "blocking.shuffle_mb" -> spark(_.layer == "blocking")(_.shuffleBytes) / MB,
      "negrules.learn_s" -> busy("negrules.learn"),
      "negrules.rules" -> cnt("negrules.rules"),
      "negrules.filter_s" -> busy("negrules.filter"),
      "negrules.kept_ratio" -> ratio(cnt("negrules.kept"), cnt("negrules.checked")),
      "prep.busy_s" -> busy("prep"),
      "prep.records" -> cnt("prep.records"),
      "distance.busy_s" -> busy("distance"),
      "distance.pairs" -> cnt("distance.pairs"),
      "distance.values" -> cnt("distance.values"),
      "distance.collected_mb" -> cnt("distance.values") * 4 / MB,
      "distance.useful_ratio" -> ratio(cnt("distance.read"), cnt("distance.values")),
      "distance.spark_jobs" -> spark(_.layer == "distance")(_.jobs),
      "searchdata.busy_s" -> busy("searchdata"),
      "search.busy_s" -> busy("search"),
      "search.calls" -> cnt("search.calls"),
      "search.iterations" -> cnt("search.iterations"),
      "selection.busy_s" -> busy("selection"),
      "selection.searches" -> cnt("selection.searches"),
      "selection.rounds" -> cnt("selection.rounds"),
      "apply.busy_s" -> busy("apply"),
      "apply.spark_jobs" -> spark(within(_, "apply"))(_.jobs),
      "apply.rows" -> cnt("apply.rows"),
      "jvm.gc_s" -> gcS,
      "spark.jobs" -> all.map(_.jobs).sum.toDouble,
      "spark.tasks" -> all.map(_.tasks).sum.toDouble,
      "spark.result_mb" -> all.map(_.resultBytes).sum / MB,
    )
  }

  /** The run's per-layer metrics: the median traced row, the tracing
    * overhead, quality of the reference outputs, what the run leaked
    * (persisted RDDs still registered, live heap grown over the timed
    * window), and the drift left in the
    * untraced passes: how far the median of their last third is from that
    * of their first third, as a share of the latter.
    */
  def summary(
      rows: Seq[Map[String, Double]], overheadS: Double, plain: Seq[Double], qs: Seq[Quality],
      cachedRdds: Int, heapGrowthMb: Double,
  ): Seq[Metric] = {
    val third = math.max(1, plain.size / 3)
    val extra = Map(
      "trace.overhead_s" -> overheadS,
      "quality.tau_shortfall" -> qs.map(q => math.max(0.0, Workload.Tau - q.precision)).sum / qs.size,
      "quality.apply_checked" -> qs.map(_.checked).sum.toDouble,
      "quality.apply_mismatched" -> qs.map(_.mismatched).sum.toDouble,
      "drift.frac" -> math.abs(median(plain.takeRight(third)) / median(plain.take(third)) - 1),
      "leak.cached_rdds" -> cachedRdds.toDouble,
      "leak.heap_growth_mb" -> heapGrowthMb,
    )
    Metrics.map { case (name, unit) =>
      Metric(name, extra.getOrElse(name, median(rows.map(_(name)))), unit)
    }
  }
}
