package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import repro.SparkSpec
import repro.data.{BenchmarkGen, Benchmarks, MultiColGen, MultiTask}

/** Learning gives the same bits whether it is called on the main thread,
  * where [[Par]] spreads its loops over the pool, or from inside a pool
  * task, where every loop runs inline, and whatever the order of the
  * records of L and R.
  */
class ParallelDeterminismSpec extends SparkSpec {

  /** `body` on the calling thread, then as one task on the global pool. */
  private def bothWays[A](body: => A): (A, A) = {
    assert(!Par.onPool)
    val main = body
    val pooled = Await.result(Future { assert(Par.onPool); body }(ExecutionContext.global), Duration.Inf)
    (main, pooled)
  }

  private def tableBits(t: Array[PairDist]): Seq[(Long, Long, Seq[Int])] =
    t.toSeq.map(p => (p.leftId, p.rightId, p.d.toSeq.map(java.lang.Float.floatToRawIntBits)))

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def resultBits(r: AutoFJ.Result) = (
    r.program,
    r.assignment.toSeq.sorted,
    r.scores.toSeq.sorted.map { case (id, s) => (id, bits(s)) },
    r.trace.map(s => (s.iter, s.config, bits(s.estPrecision), bits(s.estTP), bits(s.actPrecision),
                      bits(s.actRecall), s.newJoins)),
    bits(r.estPrecision),
    bits(r.estTP),
  )

  private val singleTasks = Seq(Benchmarks.tiny(), BenchmarkGen.generate(Benchmarks.singleColumn.find(_.name == "Stadium").get))

  test("prepare's tables and autoFJ's result are bit-identical on the main thread and in a pool task") {
    for (task <- singleTasks) {
      val (main, pooled) = bothWays {
        val p = SingleColumnPipeline.prepare(spark, task.left, task.right)
        (p, SingleColumnPipeline.autoFJ(p, tau = 0.9, gt = task.gt, gtTotal = task.gtTotal))
      }
      assert(tableBits(main._1.lrAll) == tableBits(pooled._1.lrAll), s"${task.name}: lrAll")
      assert(tableBits(main._1.lrFiltered) == tableBits(pooled._1.lrFiltered), s"${task.name}: lrFiltered")
      assert(tableBits(main._1.llPairs) == tableBits(pooled._1.llPairs), s"${task.name}: llPairs")
      assert(main._2.program.nonEmpty, task.name)
      assert(resultBits(main._2) == resultBits(pooled._2), s"${task.name}: result")
    }
  }

  test("apply's rows are the same on a local frame, an 8-partition frame and reversed records") {
    val schema = StructType(Seq(StructField("id", LongType, nullable = false), StructField("text", StringType)))
    def parted(recs: Seq[(Long, String)]) =
      spark.createDataFrame(spark.sparkContext.parallelize(recs.map { case (id, t) => Row(id, t) }, 8), schema)
    for (task <- singleTasks) {
      val p = SingleColumnPipeline.prepare(spark, task.left, task.right)
      val prog = FuzzyJoinProgram(SingleColumnPipeline.autoFJ(p, tau = 0.9).program, p.rules)
      def rows(left: DataFrame, right: DataFrame) = prog(spark, left, right).collect().toSeq
        .map(r => (r.getLong(0), r.getLong(1), bits(r.getDouble(2)), r.getInt(3))).sorted
      val local = rows(SingleColumnPipeline.toDF(spark, task.left), SingleColumnPipeline.toDF(spark, task.right))
      assert(local.nonEmpty, task.name)
      assert(rows(parted(task.left), parted(task.right)) == local, s"${task.name}: 8 partitions")
      assert(rows(SingleColumnPipeline.toDF(spark, task.left.reverse),
        SingleColumnPipeline.toDF(spark, task.right.reverse)) == local, s"${task.name}: reversed, local")
      assert(rows(parted(task.left.reverse), parted(task.right.reverse)) == local,
        s"${task.name}: reversed, 8 partitions")
    }
  }

  /** A small FZ task and BB at 20% of its rows. */
  private lazy val multiTasks = {
    val bb = MultiColGen.specs.find(_.name == "BB").get
    def sc(x: Int) = math.max(1, math.round(x * 0.2).toInt)
    Seq(
      MultiColGen.generate(MultiColGen.specs.head.copy(name = "FZ-small", nL = 150, nExtra = 40, nMatches = 40,
        nNonMatches = 60)),
      MultiColGen.generate(bb.copy(nL = sc(bb.nL), nExtra = sc(bb.nExtra), nMatches = sc(bb.nMatches),
        nNonMatches = sc(bb.nNonMatches))))
  }

  /** `recs` reversed, and shuffled with a fixed seed. */
  private def reordered[A](recs: Seq[A]): Seq[(String, Seq[A])] =
    Seq("reversed" -> recs.reverse, "shuffled" -> new scala.util.Random(18).shuffle(recs))

  test("prepare's tables and autoFJ's result are bit-identical on reversed and shuffled L and R") {
    for (task <- singleTasks) {
      def learn(left: Seq[(Long, String)], right: Seq[(Long, String)]) = {
        val p = SingleColumnPipeline.prepare(spark, left, right)
        (p, SingleColumnPipeline.autoFJ(p, tau = 0.9, gt = task.gt, gtTotal = task.gtTotal))
      }
      val (p0, res0) = learn(task.left, task.right)
      assert(res0.program.nonEmpty, task.name)
      for (((how, left), (_, right)) <- reordered(task.left).zip(reordered(task.right))) {
        val (p, res) = learn(left, right)
        assert(tableBits(p.lrAll) == tableBits(p0.lrAll), s"${task.name}, $how: lrAll")
        assert(tableBits(p.lrFiltered) == tableBits(p0.lrFiltered), s"${task.name}, $how: lrFiltered")
        assert(tableBits(p.llPairs) == tableBits(p0.llPairs), s"${task.name}, $how: llPairs")
        assert(p.rules == p0.rules, s"${task.name}, $how: rules")
        assert(resultBits(res) == resultBits(res0), s"${task.name}, $how: result")
      }
    }
  }

  test("MultiColumnAutoFJ.run's result is bit-identical on reversed and shuffled L and R") {
    for (task <- multiTasks) {
      def run(t: MultiTask) = MultiColumnAutoFJ.run(MultiColumnAutoFJ.prepare(spark, t), tau = 0.9,
        gt = t.gt, gtTotal = t.gtTotal, selectionFids = Some(ConfigSpace.reduced24.toArray))
      val base = run(task)
      assert(base.selected.nonEmpty, task.name)
      for (((how, left), (_, right)) <- reordered(task.left).zip(reordered(task.right))) {
        val other = run(task.copy(left = left.toVector, right = right.toVector))
        assert(resultBits(other.result) == resultBits(base.result), s"${task.name}, $how: result")
        assert(other.weights.toSeq.map(bits) == base.weights.toSeq.map(bits), s"${task.name}, $how: weights")
        assert(other.selected == base.selected, s"${task.name}, $how: selected")
      }
    }
  }

  test("MultiColumnAutoFJ.run's result is bit-identical on the main thread and in a pool task") {
    for (task <- multiTasks) {
      val prepared = MultiColumnAutoFJ.prepare(spark, task)
      val (main, pooled) = bothWays(MultiColumnAutoFJ.run(prepared, tau = 0.9, gt = task.gt, gtTotal = task.gtTotal,
        selectionFids = Some(ConfigSpace.reduced24.toArray)))
      assert(main.selected.nonEmpty, task.name)
      assert(resultBits(main.result) == resultBits(pooled.result), s"${task.name}: result")
      assert(main.weights.toSeq.map(bits) == pooled.weights.toSeq.map(bits), s"${task.name}: weights")
      assert(main.selected == pooled.selected, s"${task.name}: selected")
    }
  }
}
