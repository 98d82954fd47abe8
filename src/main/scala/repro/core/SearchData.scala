package repro.core

/** Driver-side, struct-of-arrays view of the blocked candidate pairs and
  * their distances, as consumed by the greedy search.
  *
  * Left records are densely indexed in `lIds`, right records in `rIds`.
  * `lrDist(fSlot)(pairIdx)` / `llDist(fSlot)(pairIdx)` hold the distance of
  * the pair under the fSlot-th join function of the searched space (slots
  * align with the `fids` array handed to the search, not with raw function
  * ids). Built by [[SearchData.Tables.blend]]; instances blended from the
  * same tables share their id arrays.
  */
final class SearchData(
    val lIds: Array[Long],
    val rIds: Array[Long],
    val lrLeft: Array[Int],
    val lrRight: Array[Int],
    val lrDist: Array[Array[Float]],
    val llLeft: Array[Int],
    val llRight: Array[Int],
    val llDist: Array[Array[Float]],
    val fids: Array[Int],
) {
  def nLeft: Int = lIds.length
  def nRight: Int = rIds.length
  def nF: Int = fids.length
  def nLr: Int = lrLeft.length
  def nLl: Int = llLeft.length
}

object SearchData {

  /** Build from single-column distance tables (the L–R and L–L candidate
    * pair vectors produced by [[DistanceTable.compute]]).
    */
  def fromSingle(lr: Array[PairDist], ll: Array[PairDist], fids: Array[Int]): SearchData =
    fromColumns(Array(lr), Array(ll), fids, Array(1.0))

  /** Build from per-column distance tables combined with a weight vector:
    * F_w(l, r) = Σ_j w_j · f(l[j], r[j])  (Definition 4.1). The per-column
    * pair arrays must be index-aligned (same candidate pair at the same
    * position in every column). Zero-weight columns are not read.
    */
  def fromColumns(
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
      fids: Array[Int],
      weights: Array[Double],
  ): SearchData = {
    require(lrCols.nonEmpty && lrCols.length == weights.length)
    Tables(lrCols, llCols, fids, weights.map(_ != 0.0)).blend(weights)
  }

  /** Aligned per-column distance tables in column-major primitive arrays,
    * built once and blended under many weight vectors (Algorithm 3 searches
    * O(m²g) of them over the same pairs).
    *
    * Records are densely indexed in first-seen order: left ids from the L–R
    * pairs' left sides, then both sides of the L–L pairs; right ids from the
    * L–R pairs. `lr(c)(s)(i)` / `ll(c)(s)(i)` is pair `i`'s distance in
    * column `c` under the function of slot `s` (`fids(s)`); a column that
    * was not extracted is `null`.
    */
  final class Tables private (
      lIds: Array[Long],
      rIds: Array[Long],
      lrLeft: Array[Int],
      lrRight: Array[Int],
      llLeft: Array[Int],
      llRight: Array[Int],
      lr: Array[Array[Array[Float]]],
      ll: Array[Array[Array[Float]]],
      fids: Array[Int],
  ) {

    /** The search input under `weights`: per pair and slot, a `Double` sum of
      * w_c · d_c over the non-zero columns in ascending order, then rounded
      * to float. The id arrays are shared with the tables, not copied.
      */
    def blend(weights: Array[Double]): SearchData = {
      require(weights.length == lr.length, "one weight per column")
      val cols = weights.indices.filter(weights(_) != 0.0).toArray
      require(cols.nonEmpty, "at least one column must have non-zero weight")
      cols.foreach(c => require(lr(c) != null, s"column $c has no table"))
      new SearchData(lIds, rIds, lrLeft, lrRight, mix(lr, cols, weights),
                     llLeft, llRight, mix(ll, cols, weights), fids)
    }

    private def mix(tables: Array[Array[Array[Float]]], cols: Array[Int], weights: Array[Double])
        : Array[Array[Float]] = {
      val n = tables(cols(0))(0).length
      val acc = new Array[Double](n)
      Array.tabulate(fids.length) { s =>
        java.util.Arrays.fill(acc, 0.0)
        cols.foreach { c =>
          val w = weights(c); val d = tables(c)(s)
          var i = 0
          while (i < n) { acc(i) += w * d(i); i += 1 }
        }
        val out = new Array[Float](n)
        var i = 0
        while (i < n) { out(i) = acc(i).toFloat; i += 1 }
        out
      }
    }
  }

  object Tables {

    /** Tables of the columns `use` selects, for the function slots `fids`;
      * ids come from column 0.
      */
    def apply(
        lrCols: Array[Array[PairDist]],
        llCols: Array[Array[PairDist]],
        fids: Array[Int],
        use: Array[Boolean],
    ): Tables = {
      val m = lrCols.length
      val cols = (0 until m).filter(use(_))
      val lr0 = lrCols(0); val ll0 = llCols(0)
      val nLr = lr0.length; val nLl = ll0.length
      cols.foreach { c =>
        require(lrCols(c).length == nLr && llCols(c).length == nLl, "column pair arrays must be aligned")
      }
      val lSeq = new Array[Long](nLr + 2 * nLl)
      var i = 0
      while (i < nLr) { lSeq(i) = lr0(i).leftId; i += 1 }
      i = 0
      while (i < nLl) { lSeq(nLr + 2 * i) = ll0(i).leftId; lSeq(nLr + 2 * i + 1) = ll0(i).rightId; i += 1 }
      val (lIds, lIdx) = denseIndex(lSeq)
      val (rIds, lrRight) = denseIndex(lr0.map(_.rightId))
      val lrLeft = java.util.Arrays.copyOfRange(lIdx, 0, nLr)
      val llLeft = Array.tabulate(nLl)(i => lIdx(nLr + 2 * i))
      val llRight = Array.tabulate(nLl)(i => lIdx(nLr + 2 * i + 1))
      // Pair by pair, so each pair's vector is read once for all slots.
      def extract(pairs: Array[Array[PairDist]]): Array[Array[Array[Float]]] = {
        val out = new Array[Array[Array[Float]]](m)
        cols.foreach { c =>
          val ps = pairs(c)
          val t = Array.ofDim[Float](fids.length, ps.length)
          var i = 0
          while (i < ps.length) {
            val d = ps(i).d
            var s = 0
            while (s < fids.length) { t(s)(i) = d(fids(s)); s += 1 }
            i += 1
          }
          out(c) = t
        }
        out
      }
      new Tables(lIds, rIds, lrLeft, lrRight, llLeft, llRight, extract(lrCols), extract(llCols), fids)
    }
  }

  /** The distinct values of `ids` in first-seen order, and each element's
    * index among them (an open-addressing table of primitive longs).
    */
  private[core] def denseIndex(ids: Array[Long]): (Array[Long], Array[Int]) = {
    val bits = 32 - Integer.numberOfLeadingZeros(math.max(ids.length, 1)) + 1
    val mask = (1 << bits) - 1
    val keys = new Array[Long](1 << bits)
    val slot = Array.fill(1 << bits)(-1)
    val distinct = new Array[Long](ids.length)
    val idx = new Array[Int](ids.length)
    var n = 0
    var i = 0
    while (i < ids.length) {
      val id = ids(i)
      var h = ((id * 0x9E3779B97F4A7C15L) >>> (64 - bits)).toInt
      while (slot(h) >= 0 && keys(h) != id) h = (h + 1) & mask
      if (slot(h) < 0) { keys(h) = id; slot(h) = n; distinct(n) = id; n += 1 }
      idx(i) = slot(h)
      i += 1
    }
    (java.util.Arrays.copyOf(distinct, n), idx)
  }
}
