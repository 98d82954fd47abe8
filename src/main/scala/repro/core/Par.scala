package repro.core

import java.util.concurrent.ForkJoinWorkerThread
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration

/** The one parallel loop of the driver, on the global execution context.
  *
  * [[map]] submits its tasks in index order and returns their results in
  * index order, so a caller's output does not depend on which task finishes
  * first. When the calling thread is already a worker of the global pool,
  * the loop runs inline, on that thread: parallel callers nest (a column
  * inside the columns, a search slot inside the selection's searches)
  * without ever blocking a pool worker on its own pool's tasks and without
  * adding a thread beyond the pool.
  */
private[core] object Par {

  private val global: ExecutionContext = ExecutionContext.global

  /** Whether the current thread is a worker of the global pool. */
  def onPool: Boolean = Thread.currentThread match {
    case w: ForkJoinWorkerThread => w.getPool eq global
    case _ => false
  }

  /** `body(i)` for every `i` in `[0, n)`, in index order. A task's exception
    * is rethrown to the caller.
    */
  def map[T](n: Int)(body: Int => T): IndexedSeq[T] =
    if (n <= 1 || onPool) (0 until n).map(body)
    else {
      implicit val ec: ExecutionContext = global
      Await.result(Future.traverse(Vector.range(0, n))(i => Future(body(i))), Duration.Inf)
    }

  /** `body(from, until)` over consecutive ranges of at most `chunk` indices
    * that cover `[0, n)`, through [[map]].
    */
  def chunks[T](n: Int, chunk: Int)(body: (Int, Int) => T): IndexedSeq[T] =
    map((n + chunk - 1) / chunk)(i => body(i * chunk, math.min(n, (i + 1) * chunk)))
}
