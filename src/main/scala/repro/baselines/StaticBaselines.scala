package repro.baselines

import repro.core.SearchData
import repro.eval.Metrics.Scored

/** Distance-table-backed baselines: the Best Static Join function (BSJ)
  * and the recall Upper Bound (UBR) of §5.1.3. Both read each right
  * record's closest left candidate per function slot from the layout
  * AutoFJ searches ([[SearchData.nearest]], ties to the smaller left id).
  */
object StaticBaselines {

  /** Scored predictions of a single static join function, slot `s` of
    * `data`: each right record's closest left candidate (score = -distance),
    * ascending by right id.
    */
  def scoredForFunction(data: SearchData, s: Int): Vector[Scored] = {
    val bestL = new Array[Int](data.nRight)
    val bestD = new Array[Float](data.nRight)
    data.nearest(s, bestL, bestD)
    (0 until data.nRight).filter(bestL(_) >= 0)
      .map(r => Scored(data.rIds(r), data.lIds(bestL(r)), -bestD(r).toDouble)).sortBy(_.rId).toVector
  }

  /** UBR: a ground-truth pair (l, r) is *feasible* if some slot of `data`
    * puts l at r's least distance (a tie counts); UBR is the fraction of
    * feasible ground-truth pairs (the best any fuzzy-join program over
    * the space could do).
    */
  def upperBoundRecall(data: SearchData, gt: Map[Long, Long], gtTotal: Int): Double = {
    if (gtTotal == 0) return 0.0
    // (r, position of its ground-truth pair in r's row) for each candidate gt pair.
    val gtPairs = (0 until data.nRight).flatMap { r =>
      gt.get(data.rIds(r)).flatMap { l =>
        (data.lrOff(r) until data.lrOff(r + 1)).find(j => data.lIds(data.lrLeft(j)) == l).map(r -> _)
      }
    }
    val bestD = Array.fill(data.nF)(new Array[Float](data.nRight))
    bestD.indices.foreach(s => data.nearest(s, new Array[Int](data.nRight), bestD(s)))
    val d = new Array[Double](1)
    val feasible = gtPairs.count { case (r, j) =>
      bestD.indices.exists { s => data.lrDist(s, j, j + 1, d); d(0).toFloat <= bestD(s)(r) }
    }
    feasible.toDouble / gtTotal
  }
}
