package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). No core path runs a Spark join: the session builds and reads
  * the frames of the frame-level entry points (blocking, the distance
  * tables' pair frames, `FuzzyJoinProgram.apply`), runs the supervised
  * baselines on Spark MLlib, and counts the Spark jobs a path starts
  * ([[jobsOf]]). Broadcast joins stay disabled.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Spark jobs started by `body`, counted once the listener bus has
    * delivered every event.
    */
  protected def jobsOf[A](body: => A): (A, Int) = {
    val (out, jobs, _) = jobsAndTasksOf(body)
    (out, jobs)
  }

  /** Spark jobs and tasks started by `body`, counted once the listener bus
    * has delivered every event (its `waitUntilEmpty` is Spark-internal,
    * hence reflection).
    */
  protected def jobsAndTasksOf[A](body: => A): (A, Int, Int) = {
    val sc = spark.sparkContext
    def drain(): Unit = {
      val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
      bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
    }
    val jobs = new AtomicInteger
    val tasks = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskStart(e: SparkListenerTaskStart): Unit = tasks.incrementAndGet()
    }
    drain()
    sc.addSparkListener(listener)
    try {
      val out = body
      drain()
      (out, jobs.get, tasks.get)
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
