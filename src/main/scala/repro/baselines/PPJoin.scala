package repro.baselines

import repro.core.{Preprocess, Tokenize}
import repro.eval.Metrics.Scored

/** PPJoin [48]: set-similarity join with prefix filtering over a global
  * frequency token order plus the length filter, verified with exact
  * Jaccard — on the driver: an index from token to the L records whose
  * prefix holds it, probed with each R record's prefix.
  *
  * The positional filter is an additional pruning optimization that does
  * not change results; candidates here are already bounded by blocking-
  * scale sizes, so prefix + length filtering suffices.
  */
object PPJoin {

  private def tokens(s: String): Array[String] = Tokenize.space(Preprocess.lower(s))

  def run(
      left: Seq[(Long, String)],
      right: Seq[(Long, String)],
      threshold: Double = 0.3,
  ): Vector[Scored] = {
    val lToks = left.map { case (id, s) => id -> tokens(s) }.toMap
    val rToks = right.map { case (id, s) => id -> tokens(s) }.toMap

    // Global order: ascending document frequency (rare tokens first).
    val df = (lToks.values ++ rToks.values).flatten
      .groupBy(identity).map { case (t, g) => t -> g.size }
    val rank: Map[String, Int] =
      df.toVector.sortBy { case (t, c) => (c, t) }.zipWithIndex
        .map { case ((t, _), i) => t -> i }.toMap

    def prefix(toks: Array[String]): Array[String] = {
      val sorted = toks.sortBy(rank)
      val pl = math.max(1, sorted.length - math.ceil(threshold * sorted.length).toInt + 1)
      sorted.take(pl)
    }

    // Token → the L records whose prefix holds it, probed by each R prefix.
    val index = lToks.toSeq.flatMap { case (id, toks) => prefix(toks).map(_ -> id) }
      .groupBy(_._1).map { case (t, g) => t -> g.map(_._2) }
    val cand = rToks.iterator.flatMap { case (rid, rt) =>
      prefix(rt).iterator.flatMap(t => index.getOrElse(t, Nil)).filter { lid =>
        val lSize = lToks(lid).length
        // Length filter: t·|x| ≤ |y| ≤ |x|/t.
        rt.length >= math.ceil(lSize * threshold) && rt.length <= math.floor(lSize / threshold)
      }.map(lid => (lid, rid))
    }.toSet

    // Exact Jaccard verification on the driver (candidates are small).
    val verified = cand.iterator.map { case (lid, rid) =>
      val a = lToks(lid); val b = rToks(rid)
      val inter = a.intersect(b).length
      val sim = if (a.length + b.length == 0) 0.0
                else inter.toDouble / (a.length + b.length - inter)
      (CandPair(lid, rid, "", ""), sim)
    }.filter(_._2 >= threshold).toVector

    ScoredBaselines.bestPerRight(verified)
  }
}
