package repro.jobs

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core._
import repro.data.{Benchmarks, BenchmarkGen, MultiColGen}
import repro.harness.{MultiColumnHarness, SingleColumnHarness}

/** SHA-256 digests of what AutoFJ computes on the 20 single-column and the
  * 8 multi-column tasks at full size, one line per table: `task table hex`,
  * then one line `ALL hex` over all of them. Two builds of the program
  * compute the same tables bit for bit exactly when their outputs agree.
  *
  *  - single-column: the `lrAll`, `lrFiltered` and `llPairs` distance tables,
  *    the learned rules, `search` at τ = 0.9 and τ = 0 over the 140 and the
  *    24 functions, `searchOneConfig` at τ = 0.9, and the rows of the τ = 0.9
  *    program's `FuzzyJoinProgram.apply` on local frames. `apply` also
  *    runs on 8-partition frames of the same records, and the job exits
  *    non-zero, after printing every line, if the two row sets differ;
  *  - multi-column: every column's L–R and L–L table and Algorithm 3's
  *    `run` as the Table 4 harness calls it.
  *
  * A table digest covers ids and the raw bits of every float; a result
  * digest covers the program, the sorted assignment, the raw bits of the
  * scores, estPrecision and estTP, and (multi) the weights and selected
  * columns. Arguments, when given, keep only the tasks they name.
  *
  * {{{ sbt "runMain repro.jobs.DigestJob [task ...]" }}}
  */
object DigestJob {

  private final class Digest {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)
    def long(x: Long): Unit = { buf.clear(); buf.putLong(x); md.update(buf.array(), 0, 8) }
    def double(x: Double): Unit = long(java.lang.Double.doubleToRawLongBits(x))
    def float(x: Float): Unit = long(java.lang.Float.floatToRawIntBits(x).toLong)
    def string(s: String): Unit = { val b = s.getBytes("UTF-8"); long(b.length.toLong); md.update(b) }
    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def table(pairs: Array[PairDist]): String = {
    val d = new Digest
    pairs.foreach { p => d.long(p.leftId); d.long(p.rightId); p.d.foreach(d.float) }
    d.hex
  }

  private def result(res: AutoFJ.Result, extra: Digest => Unit = _ => ()): String = {
    val d = new Digest
    res.program.foreach { c => d.long(c.fId.toLong); d.double(c.theta) }
    d.long(-1L)
    res.assignment.toSeq.sorted.foreach { case (r, l) => d.long(r); d.long(l); d.double(res.scores(r)) }
    d.double(res.estPrecision); d.double(res.estTP)
    extra(d)
    d.hex
  }

  def main(args: Array[String]): Unit = {
    val keep = args.toSet
    def wanted(name: String) = keep.isEmpty || keep(name)
    val lines = Vector.newBuilder[String]
    val mismatched = Vector.newBuilder[String]
    def emit(task: String, name: String, hex: String): Unit = {
      val line = s"$task $name $hex"
      println(line)
      lines += line
    }
    val spark = JobSession.build("autofj-digest")
    try {
      val tau = SingleColumnHarness.Tau
      val thetas = ConfigSpace.thresholds()
      val full = ConfigSpace.full.map(_.id).toArray
      val reduced = ConfigSpace.reduced24.toArray
      Benchmarks.singleColumn.filter(s => wanted(s.name)).foreach { spec =>
        val task = BenchmarkGen.generate(spec)
        val p = SingleColumnPipeline.prepare(spark, task.left, task.right)
        emit(spec.name, "lrAll", table(p.lrAll))
        emit(spec.name, "lrFiltered", table(p.lrFiltered))
        emit(spec.name, "llPairs", table(p.llPairs))
        val rules = new Digest
        p.rules.toSeq.map(r => (r.a, r.b)).sorted.foreach { case (a, b) => rules.string(a); rules.string(b) }
        emit(spec.name, "rules", rules.hex)
        val searches = for ((fname, fids) <- Seq("f140" -> full, "f24" -> reduced); t <- Seq(tau, 0.0)) yield {
          val res = SingleColumnPipeline.autoFJ(p, t, fids = fids)
          emit(spec.name, s"search-$fname-tau$t", result(res))
          res
        }
        val one = AutoFJ.searchOneConfig(SearchData.fromSingle(p.lrFiltered, p.llPairs, full), thetas, tau)
        emit(spec.name, "searchOneConfig", result(one))
        // `apply` replays the first search's program: f140 at τ = 0.9, on
        // local frames (read with no job) and on 8-partition frames (read by
        // one job), which must give the same rows.
        val program = FuzzyJoinProgram(searches.head.program, p.rules)
        def applied(frame: Seq[(Long, String)] => DataFrame) =
          program.apply(spark, frame(task.left), frame(task.right)).collect()
            .map(r => (r.getLong(0), r.getLong(1), java.lang.Double.doubleToRawLongBits(r.getDouble(2)), r.getInt(3)))
            .sorted.toSeq
        val rows = applied(SingleColumnPipeline.toDF(spark, _))
        if (applied(parted(spark, _)) != rows) {
          System.err.println(s"${spec.name}: apply's rows differ between local and 8-partition frames")
          mismatched += spec.name
        }
        val digest = new Digest
        rows.foreach { case (r, l, dist, ci) => digest.long(r); digest.long(l); digest.long(dist); digest.long(ci) }
        emit(spec.name, "apply", digest.hex)
      }
      MultiColGen.specs.filter(s => wanted(s.name)).foreach { spec =>
        val task = MultiColGen.generate(spec)
        val p = MultiColumnAutoFJ.prepare(spark, task)
        p.lrCols.indices.foreach { c =>
          emit(spec.name, s"lr-col$c", table(p.lrCols(c)))
          emit(spec.name, s"ll-col$c", table(p.llCols(c)))
        }
        val run = MultiColumnAutoFJ.run(p, tau, g = MultiColumnHarness.G, selectionFids = Some(reduced))
        emit(spec.name, "run", result(run.result, d => {
          run.weights.foreach(d.double); run.selected.foreach(c => d.long(c.toLong))
        }))
      }
    } finally spark.stop()
    val all = new Digest
    lines.result().foreach(all.string)
    println(s"ALL ${all.hex}")
    val bad = mismatched.result()
    if (bad.nonEmpty) {
      System.err.println(s"apply's rows depend on the frames' read path on ${bad.mkString(", ")}")
      sys.exit(1)
    }
  }

  private val RecSchema = StructType(Seq(
    StructField("id", LongType, nullable = false),
    StructField("text", StringType, nullable = true),
  ))

  /** (id, text) records as a frame over 8 RDD partitions: read by a Spark job. */
  private def parted(spark: SparkSession, recs: Seq[(Long, String)]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(recs.map { case (id, t) => Row(id, t) }, 8), RecSchema)
}
