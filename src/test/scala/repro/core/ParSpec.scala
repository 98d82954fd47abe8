package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

class ParSpec extends AnyFunSuite {

  /** `body` run as one task on the global pool, awaited from the caller. */
  private def inPoolTask[A](body: => A): A = Await.result(Future(body)(ExecutionContext.global), Duration.Inf)

  test("results come back in index order, whatever order the tasks finish in") {
    val n = 16
    // Earlier indices sleep longer, so later tasks finish first.
    val out = Par.map(n) { i => Thread.sleep((n - i).toLong); i * i }
    assert(out == (0 until n).map(i => i * i))
  }

  test("called off the pool, the tasks run on pool workers") {
    assert(!Par.onPool)
    assert(Par.map(8)(_ => Par.onPool).forall(identity))
  }

  test("called on a pool worker, the body runs inline on that thread, in index order") {
    val (caller, onPool, threads, order) = inPoolTask {
      val order = new java.util.concurrent.ConcurrentLinkedQueue[Int]
      val threads = Par.map(8) { i => order.add(i); Thread.currentThread }
      (Thread.currentThread, Par.onPool, threads, order.toArray.toSeq)
    }
    assert(onPool)
    assert(threads.forall(_ eq caller))
    assert(order == (0 until 8))
  }

  test("a nested loop on the pool runs inline and nests no wait") {
    val outer = Par.map(4)(i => (Thread.currentThread, Par.map(5)(j => (Thread.currentThread, 10 * i + j))))
    outer.foreach { case (t, inner) => assert(inner.forall(_._1 eq t)) }
    assert(outer.flatMap(_._2.map(_._2)) == (0 until 4).flatMap(i => (0 until 5).map(10 * i + _)))
  }

  test("a task's exception propagates to the caller, off and on the pool") {
    def failing(): IndexedSeq[Int] = Par.map(8)(i => if (i == 5) throw new IllegalStateException("task 5") else i)
    assert(intercept[IllegalStateException](failing()).getMessage == "task 5")
    assert(intercept[IllegalStateException](inPoolTask(failing())).getMessage == "task 5")
  }

  test("chunks cover [0, n) with consecutive ranges of at most the chunk size") {
    assert(Par.chunks(10, 4)((a, b) => (a, b)) == Seq((0, 4), (4, 8), (8, 10)))
    assert(Par.chunks(8, 4)((a, b) => (a, b)) == Seq((0, 4), (4, 8)))
    assert(Par.chunks(0, 4)((a, b) => (a, b)).isEmpty)
  }
}
