package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.logging.log4j.Level
import org.apache.logging.log4j.core.config.Configurator
import org.apache.spark.sql.SparkSession
import repro.jobs.JobSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark entry point:
  * `--workload single|multi --seed N --seconds S --trace 0|1`.
  *
  * One process is one closed-loop client: it learns or applies one task at a
  * time on a SparkSession built by the program's own [[JobSession]]. The
  * last line of standard output is the result object; the process exits
  * non-zero when an output check failed.
  */
object Main {

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(argv: Array[String]): Either[String, Opts] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      _ <- if (argv.length % 2 == 0 && kv.size * 2 == argv.length) Right(()) else Left("malformed arguments")
      wn <- get("workload")
      w <- Workload.all.find(_.name == wn).toRight(s"unknown workload $wn")
      seed <- get("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed $s"))
      secs <- get("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds $s"))
      tr <- get("trace").flatMap {
        case "0" => Right(false)
        case "1" => Right(true)
        case t => Left(s"bad --trace $t")
      }
    } yield Opts(w, seed, secs, tr)
  }

  def main(argv: Array[String]): Unit = {
    val opts = parse(argv) match {
      case Right(o) => o
      case Left(err) =>
        Console.err.println(s"$err\nusage: --workload ${Workload.all.map(_.name).mkString("|")} " +
          "--seed N --seconds S --trace 0|1")
        sys.exit(2)
    }
    // Spark's INFO output would otherwise be part of every timing.
    Configurator.setRootLevel(Level.WARN)
    val t0 = System.nanoTime()
    val spark = JobSession.build(s"autofj-perfbench-${opts.workload.name}")
    val sessionS = (System.nanoTime() - t0) / 1e9
    val result = try new Run(spark, opts.workload, opts, sessionS).execute() finally spark.stop()
    println(result.json)
    if (!result.correct) sys.exit(1)
  }

  final case class Metric(name: String, value: Double, unit: String)

  final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]) {
    def json: String = {
      def num(v: Double) = if (v.isNaN || v.isInfinite) "0" else v.toString
      val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** One benchmark process: set-up rounds, then the timed passes. */
final class Run(spark: SparkSession, w: Workload, opts: Main.Opts, sessionS: Double) {
  import Main._

  /** Fewest timed passes of each kind, whatever `--seconds` says. */
  private val MinPasses = 3

  private val sc = spark.sparkContext
  private val counters = new SparkCounters
  if (opts.trace) sc.addSparkListener(counters)

  private var attempted = 0
  private var failed = 0
  private def fail(msg: String): Unit = { failed += 1; Console.err.println(s"[perfbench] FAILED $msg") }

  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Runs every task once; a task fails on an exception, or when its output
    * differs from the reference pass (or, for the reference pass itself,
    * misses an output check).
    */
  private def pass(s: w.State, ref: Option[Vector[TaskOut]], tr: Option[Tracer], label: String)
      : (Vector[TaskOut], Double) = {
    val t0 = System.nanoTime()
    val outs = w.tasks(s).indices.map { i =>
      attempted += 1
      val name = w.tasks(s)(i)
      try {
        val out = w.run(spark, s, i, tr)
        ref match {
          case Some(r) => if (r(i) != out) fail(s"$label $name: output differs from the reference pass")
          case None => w.check(s, i, out).foreach(p => fail(s"$label $p"))
        }
        out
      } catch {
        case NonFatal(e) =>
          fail(s"$label $name: ${e.getClass.getSimpleName}: ${e.getMessage}")
          null
      }
    }.toVector
    (outs, since(t0))
  }

  /** Live heap after a full collection, in MB. */
  private def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Keeps the latest set-up round's or untraced pass's outputs reachable
    * across heap readings.
    */
  @volatile private var held: AnyRef = null

  /** The traced passes' spans as JSON lines: pass, id, name, parent, start
    * and end (ns since the run's first span) and self seconds.
    */
  private def writeSpans(file: String, spans: Seq[(Int, Span)]): Unit = {
    val t0 = if (spans.isEmpty) 0L else spans.map(_._2.startNs).min
    val lines = spans.groupBy(_._1).toSeq.sortBy(_._1).flatMap { case (pass, ps) =>
      val self = Tracer.selfSeconds(ps.map(_._2))
      ps.map(_._2).sortBy(_.startNs).map { s =>
        s"""{"pass": $pass, "id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, """ +
          s""""start_ns": ${s.startNs - t0}, "end_ns": ${s.endNs - t0}, "self_s": ${self(s.id)}}"""
      }
    }
    java.nio.file.Files.write(java.nio.file.Paths.get(file), (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }

  def execute(): Result = {
    // ---- Set-up: generate inputs, do the workload's set-up, warm up ----
    val rounds = mutable.ArrayBuffer.empty[Double]
    var state: w.State = null.asInstanceOf[w.State]
    var reference: Vector[TaskOut] = null
    while (rounds.size < w.setupRounds) {
      val t0 = System.nanoTime()
      val s = try w.setup(spark, opts.seed) catch {
        case NonFatal(e) =>
          fail(s"set-up: ${e.getClass.getSimpleName}: ${e.getMessage}")
          return Result(correct = false, attempted = attempted + 1, failed = failed, Nil)
      }
      val (outs, _) = pass(s, Option(reference), None, s"set-up ${rounds.size + 1}")
      rounds += since(t0)
      held = outs
      if (reference == null) { reference = outs; state = s }
    }
    val setupS = sessionS + median(rounds.toSeq)
    // A full collection lets Spark's ContextCleaner release what earlier
    // passes left, and that cleanup slows the next pass; so the heap is
    // read only outside the timed window.
    val baseMb = if (opts.trace) liveHeapMb() else Double.NaN

    // ---- Quality of the reference outputs --------------------------------
    val qs = reference.indices.collect { case i if reference(i) != null => w.quality(state, i, reference(i)) }

    // ---- Timed passes: untraced, or alternating untraced and traced ------
    val plain = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    val layerRows = mutable.ArrayBuffer.empty[Map[String, Double]]
    val spans = mutable.ArrayBuffer.empty[(Int, Span)]
    var measured = 0.0
    var k = 0
    while (plain.size < MinPasses || (opts.trace && traced.size < MinPasses) || measured < opts.seconds) {
      if (opts.trace && k % 2 == 1) {
        val tr = new Tracer(sc, k)
        val gc0 = gcSeconds()
        val (_, dt) = pass(state, Some(reference), Some(tr), s"traced pass $k")
        traced += dt
        layerRows += Layers.row(tr, counters.snapshot(sc), gcSeconds() - gc0)
        spans ++= tr.result._1.map(k -> _)
        measured += dt
      } else {
        val (outs, dt) = pass(state, Some(reference), None, s"pass $k")
        plain += dt
        measured += dt
        held = outs
      }
      k += 1
    }
    // Live heap while the last untraced pass's outputs are referenced; in a
    // traced run, its growth over the window is what the passes leaked.
    val retainedMb = liveHeapMb()
    val growthMb = if (opts.trace) retainedMb - baseMb else 0.0
    held = null

    sys.props.get("perfbench.spans").foreach(f => if (opts.trace) writeSpans(f, spans.toSeq))
    val correct = failed == 0 && qs.size == reference.size
    val metrics =
      if (!opts.trace) Seq(
        Metric("setup_s", setupS, "s"),
        Metric("pass_s", median(plain.toSeq), "s"),
        Metric("precision", qs.map(_.precision).sum / qs.size, "ratio"),
        Metric("recall", qs.map(_.recall).sum / qs.size, "ratio"),
        Metric("retained_mb", retainedMb, "MB"),
      )
      else Layers.summary(layerRows.toSeq, median(traced.toSeq) - median(plain.toSeq), plain.toSeq, qs,
        sc.getPersistentRDDs.size, growthMb)
    Console.err.println(f"[perfbench] ${w.name} seed=${opts.seed} session=$sessionS%.2fs rounds=" +
      rounds.map(r => f"$r%.2f").mkString(",") + " passes=" + plain.map(p => f"$p%.2f").mkString(",") +
      (if (opts.trace) " traced=" + traced.map(p => f"$p%.2f").mkString(",") else ""))
    Result(correct, attempted, failed, metrics)
  }
}
