package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `name` is the layer, optionally followed by
  * `.op` (`negrules.learn`); `parent` is the id of the enclosing span, or -1.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def layer: String = name.takeWhile(_ != '.')
}

/** Records spans and counters of one traced pass in memory. Spans opened on
  * the calling thread nest automatically; spans opened in futures name their
  * parent explicitly. Every span also tags the Spark jobs it starts with a
  * job group `"<pass>:<span id>"`, so [[SparkCounters]] can charge jobs,
  * tasks and bytes to the layer that caused them.
  */
final class Tracer(sc: SparkContext, val pass: Int) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counters = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private var ids = 0
  private val current = new ThreadLocal[Int] { override def initialValue(): Int = -1 }

  def span[A](name: String, parent: Int = current.get)(body: => A): A = {
    val id = synchronized { ids += 1; ids }
    val prevParent = current.get
    val prevGroup = sc.getLocalProperty(Tracer.JobGroup)
    current.set(id)
    sc.setLocalProperty(Tracer.JobGroup, s"$pass:$id")
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      sc.setLocalProperty(Tracer.JobGroup, prevGroup)
      current.set(prevParent)
      synchronized { spans += Span(id, name, parent, t0, t1) }
    }
  }

  /** The id of the innermost span open on this thread (-1 outside spans). */
  def currentSpan: Int = current.get

  def count(name: String, v: Double): Unit = synchronized { counters(name) += v }

  def result: (Vector[Span], Map[String, Double]) = synchronized((spans.toVector, counters.toMap))
}

object Tracer {

  /** The local property Spark reads a job's group from. */
  val JobGroup = "spark.jobGroup.id"

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover (children may overlap when they run in
    * futures, so the covered part is the union of their intervals).
    */
  def selfSeconds(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(k => (k.startNs max s.startNs, k.endNs min s.endNs))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue; var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = curB max b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }
}

/** Spark work charged to one job group. Written only by the listener bus
  * thread; read after [[SparkCounters.snapshot]] has drained the bus.
  */
final class Tally {
  @volatile var jobs = 0L
  @volatile var tasks = 0L
  @volatile var shuffleBytes = 0L
  @volatile var resultBytes = 0L
}

/** Spark work per job group, from a listener registered by the benchmark:
  * jobs started, tasks ended, shuffle bytes written and task result bytes.
  */
final class SparkCounters extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val tallies = new ConcurrentHashMap[String, Tally]()

  private def tally(group: String): Tally = tallies.computeIfAbsent(group, _ => new Tally)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.JobGroup)))
      .getOrElse("")
    e.stageIds.foreach(s => stageGroup.put(s, group))
    val t = tally(group)
    t.jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val t = tally(stageGroup.getOrDefault(e.stageId, ""))
    t.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      t.resultBytes += m.resultSize
    }
  }

  /** Tallies of every job group, after the listener bus has delivered all
    * events posted so far.
    */
  def snapshot(sc: SparkContext): Map[String, Tally] = {
    // LiveListenerBus.waitUntilEmpty is Spark-internal; reflection keeps the
    // benchmark out of Spark's packages.
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
    tallies.asScala.toMap
  }
}
