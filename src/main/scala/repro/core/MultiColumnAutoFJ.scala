package repro.core

import org.apache.spark.sql.SparkSession
import repro.data.MultiTask

/** §4: multi-column AutoFJ — Algorithm 3 (forward selection over columns
  * with linear weight blending) on top of the single-column greedy search.
  *
  * Everything runs on the driver, with no Spark job. Blocking runs once on
  * the concatenation of all columns ([[Blocking.block]]); the columns are
  * prepared concurrently, once per distinct value, and the per-column
  * distance tables of the L–R and of the L–L pairs come from one
  * [[DistanceTable.columns]] call, which codes each column once for both,
  * and are aligned by pair index. [[run]] lays the
  * selection's distances out once in column-major [[SearchData.Tables]],
  * which it drops when it returns, and blends them per candidate weight
  * vector; the final search reuses that layout. Candidate weight vectors
  * are evaluated concurrently on the driver through [[Par]] (the search is
  * pure), so each selection search runs its slots on its own thread; the
  * final search, made on the calling thread, runs its slots in parallel.
  */
object MultiColumnAutoFJ {

  /** Prepared multi-column task: aligned per-column distance tables. */
  final case class PreparedMulti(
      columns: Vector[String],
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
  )

  final case class MultiResult(
      result: AutoFJ.Result,
      weights: Array[Double],
      selected: Vector[Int],
  )

  /** Block on concatenated columns and compute one aligned distance table
    * per column through [[DistanceTable.columns]], which codes each column
    * once for the L–R and the L–L pairs. A null value is missing, the empty
    * string (§5.2.2), in the blocking text as in the distances. Runs no
    * Spark job; `spark` is not read.
    */
  def prepare(spark: SparkSession, task: MultiTask): PreparedMulti = {
    def concat(recs: Seq[(Long, Vector[String])]) =
      recs.map { case (id, v) => (id, v.map(Option(_).getOrElse("")).mkString(" ")) }
    val (lrCand, llCand) = Blocking.block(concat(task.left), concat(task.right))
    // Sorted pairs; every column's distance table keeps this order.
    val cols = DistanceTable.columns(task.nCols, task.left, task.right,
      lrCand.map(t => (t._1, t._2)).sorted, llCand.map(t => (t._1, t._2)).sorted)
    PreparedMulti(task.columns, cols.lr, cols.ll)
  }

  /** Algorithm 3. Weight vectors are kept normalized to sum 1 (the blend
    * (1-α)w + αe_j preserves the sum), so combined distances stay in the
    * [0, 1] range of the shared threshold grid. Candidate columns are
    * ranked by *estimated* recall (TP), which needs no labels.
    *
    * @param selectionFids when set, the O(m²g) weight-vector evaluations of
    *                      the forward selection run over this (smaller)
    *                      function subset; the final program is still
    *                      searched over the full `fids`. Column importance
    *                      is a static property of the data (§4.2's
    *                      Observation 2), so ranking columns on a surrogate
    *                      space preserves the selection while cutting the
    *                      dominant cost ~6x.
    */
  def run(
      prepared: PreparedMulti,
      tau: Double,
      fids: Array[Int] = ConfigSpace.full.map(_.id).toArray,
      g: Int = 10,
      gt: Map[Long, Long] = Map.empty,
      gtTotal: Int = 0,
      selectionFids: Option[Array[Int]] = None,
  ): MultiResult = {
    val m = prepared.columns.length
    val thetas = ConfigSpace.thresholds()
    val selFids = selectionFids.getOrElse(fids)

    // Every selection search reads the same pairs: lay their distances out
    // once and blend them per weight vector.
    val tables = SearchData.Tables(prepared.lrCols, prepared.llCols, selFids, Array.fill(m)(true))
    def runSearch(w: Array[Double]): AutoFJ.Result =
      AutoFJ.search(tables.blend(w), thetas, tau, gt, gtTotal)

    var w = Array.fill(m)(0.0)
    var remaining = (0 until m).toSet
    var bestResult: AutoFJ.Result = null
    var bestRecall = Double.NegativeInfinity
    var selected = Vector.empty[Int]
    var continue = true

    while (continue && remaining.nonEmpty) {
      val isFirst = w.forall(_ == 0.0)
      val candidates: Seq[(Int, Array[Double])] =
        if (isFirst) remaining.toSeq.sorted.map { j =>
          val w2 = Array.fill(m)(0.0); w2(j) = 1.0; (j, w2)
        }
        else for {
          j <- remaining.toSeq.sorted
          a <- 1 until g
        } yield {
          val alpha = a.toDouble / g
          val w2 = Array.tabulate(m)(i => (1 - alpha) * w(i) + (if (i == j) alpha else 0.0))
          (j, w2)
        }
      val evaluated = Par.map(candidates.length) { i =>
        val (j, w2) = candidates(i)
        (j, w2, runSearch(w2))
      }
      val (bj, bw, br) = evaluated.maxBy { case (j, _, r) => (r.estTP, -j) }
      if (br.estTP > bestRecall) {
        bestRecall = br.estTP
        bestResult = br
        w = bw
        selected = selected :+ bj
        remaining -= bj
      } else continue = false
    }

    // Final program: full function space under the selected weights, on
    // the selection's layout with only the non-zero columns extracted.
    val finalResult =
      if (selFids.sameElements(fids)) bestResult
      else AutoFJ.search(tables.withSlots(fids, w.map(_ != 0.0)).blend(w), thetas, tau, gt, gtTotal)
    MultiResult(finalResult, w, selected)
  }
}
