package repro.core

/** The greedy search's input: one weight vector's view of a [[SearchData.Tables]]
  * layout, that is, the tables plus their non-zero columns and weights.
  *
  * Left records are densely indexed in `lIds`, right records in `rIds`.
  * The L–R pairs are grouped by right record: r's pairs sit at
  * `[lrOff(r), lrOff(r + 1))`, with left record `lrLeft(j)`. The L–L pairs
  * are grouped by left record into balls: l's ball sits at
  * `[llOff(l), llOff(l + 1))`, with right record `llRight(j)`. Within a
  * group, pairs keep their input order. Slot `s` is the s-th join function
  * of the searched space (`fids(s)`), not a raw function id. No distance is
  * stored blended: [[lrDist]] and [[llDist]] blend a range of either side
  * when it is read, since a search reads each r's row once per slot and only
  * the balls around some r's nearest l. Built by [[SearchData.Tables.blend]];
  * the layout arrays are the tables' own.
  */
final class SearchData private (tables: SearchData.Tables, cols: Array[Int], weights: Array[Double]) {
  def lIds: Array[Long] = tables.lIds
  def rIds: Array[Long] = tables.rIds
  def lrOff: Array[Int] = tables.lrOff
  def lrLeft: Array[Int] = tables.lrLeft
  def llOff: Array[Int] = tables.llOff
  def llRight: Array[Int] = tables.llRight
  def fids: Array[Int] = tables.fids
  def nLeft: Int = lIds.length
  def nRight: Int = rIds.length
  def nF: Int = fids.length
  def nLr: Int = lrLeft.length
  def nLl: Int = llRight.length

  /** The distances of the L–R pairs at `[from, until)` (row order) under
    * slot `s`, before rounding, as [[blend]] gives them.
    */
  def lrDist(s: Int, from: Int, until: Int, acc: Array[Double]): Unit = blend(tables.lr, s, from, until, acc)

  /** The distances of the L–L pairs at `[from, until)` (ball order) under
    * slot `s`, before rounding, as [[blend]] gives them.
    */
  def llDist(s: Int, from: Int, until: Int, acc: Array[Double]): Unit = blend(tables.ll, s, from, until, acc)

  /** Def. 4.1 on one side's tables: `acc(i)` becomes pair `from + i`'s
    * `Double` sum of w_c · d_c over the non-zero columns in ascending order,
    * starting from 0.0. Its `toFloat` is the pair's distance.
    */
  private def blend(side: Array[Array[Array[Float]]], s: Int, from: Int, until: Int, acc: Array[Double]): Unit = {
    java.util.Arrays.fill(acc, 0, until - from, 0.0)
    var ci = 0
    while (ci < cols.length) {
      val w = weights(ci); val d = side(cols(ci))(s)
      var j = from
      while (j < until) { acc(j - from) += w * d(j); j += 1 }
      ci += 1
    }
  }
}

object SearchData {

  /** Build from single-column distance tables (the L–R and L–L candidate
    * pair vectors produced by [[DistanceTable.columns]]).
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
    * laid out once and blended under many weight vectors (Algorithm 3
    * searches O(m²g) of them over the same pairs). The layout does not
    * depend on the weights.
    *
    * Records are densely indexed in first-seen order: left ids from the L–R
    * pairs' left sides, then both sides of the L–L pairs; right ids from the
    * L–R pairs. The L–R pairs are grouped by dense right id (`lrOff`, the
    * per-r rows of the nearest-l pass), the L–L pairs by dense left id
    * (`llOff`, the balls of Eq. 8–9); each group keeps input order.
    * `lr(c)(s)(j)` / `ll(c)(s)(j)` is the distance of the pair at position
    * `j` of that layout in column `c` under the function of slot `s`
    * (`fids(s)`); a column that was not extracted is `null`. Position `j`
    * holds input pair `lrPerm(j)` / `llPerm(j)` of `lrCols` / `llCols`.
    */
  final class Tables private (
      val lIds: Array[Long],
      val rIds: Array[Long],
      val lrOff: Array[Int],
      val lrLeft: Array[Int],
      val llOff: Array[Int],
      val llRight: Array[Int],
      lrCols: Array[Array[PairDist]],
      llCols: Array[Array[PairDist]],
      lrPerm: Array[Int],
      llPerm: Array[Int],
      private[SearchData] val lr: Array[Array[Array[Float]]],
      private[SearchData] val ll: Array[Array[Array[Float]]],
      val fids: Array[Int],
  ) {

    /** The search input under `weights`: a view of these tables that
      * blends a range of pairs when the search reads it
      * ([[SearchData.lrDist]], [[SearchData.llDist]]). Only the non-zero
      * columns and their weights are kept; no pair is read here.
      */
    def blend(weights: Array[Double]): SearchData = {
      require(weights.length == lr.length, "one weight per column")
      val cols = weights.indices.filter(weights(_) != 0.0).toArray
      require(cols.nonEmpty, "at least one column must have non-zero weight")
      cols.foreach(c => require(lr(c) != null, s"column $c has no table"))
      new SearchData(this, cols, cols.map(weights(_)))
    }

    /** Tables of the same pairs in this layout, for the function slots
      * `slotFids` of the columns `use` selects: only the distances are
      * extracted again, the dense ids and groupings are shared.
      */
    def withSlots(slotFids: Array[Int], use: Array[Boolean]): Tables = {
      val (lr, ll) = Tables.extract(lrCols, llCols, lrPerm, llPerm, slotFids, use)
      new Tables(lIds, rIds, lrOff, lrLeft, llOff, llRight, lrCols, llCols, lrPerm, llPerm, lr, ll, slotFids)
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
      val lr0 = lrCols(0); val ll0 = llCols(0)
      val nLr = lr0.length; val nLl = ll0.length
      lrCols.indices.filter(use(_)).foreach { c =>
        require(lrCols(c).length == nLr && llCols(c).length == nLl, "column pair arrays must be aligned")
      }
      val lSeq = new Array[Long](nLr + 2 * nLl)
      var i = 0
      while (i < nLr) { lSeq(i) = lr0(i).leftId; i += 1 }
      i = 0
      while (i < nLl) { lSeq(nLr + 2 * i) = ll0(i).leftId; lSeq(nLr + 2 * i + 1) = ll0(i).rightId; i += 1 }
      val (lIds, lIdx) = denseIndex(lSeq)
      val (rIds, lrRight) = denseIndex(lr0.map(_.rightId))
      val (lrOff, lrPerm) = groupBy(lrRight, rIds.length)
      val (llOff, llPerm) = groupBy(Array.tabulate(nLl)(i => lIdx(nLr + 2 * i)), lIds.length)
      val (lr, ll) = extract(lrCols, llCols, lrPerm, llPerm, fids, use)
      new Tables(lIds, rIds, lrOff, lrPerm.map(lIdx(_)), llOff, llPerm.map(i => lIdx(nLr + 2 * i + 1)),
                 lrCols, llCols, lrPerm, llPerm, lr, ll, fids)
    }

    /** Slots per extraction task. */
    private val SlotChunk = 35

    /** The L–R and the L–L tables: per selected column, one array per slot
      * of `fids` in `perm` order. One [[Par]] task per (side, column, chunk
      * of slots), each pair by pair, so a pair's vector is read once per
      * chunk.
      */
    private def extract(
        lrCols: Array[Array[PairDist]], llCols: Array[Array[PairDist]],
        lrPerm: Array[Int], llPerm: Array[Int], fids: Array[Int], use: Array[Boolean],
    ): (Array[Array[Array[Float]]], Array[Array[Array[Float]]]) = {
      val sides = Seq((lrCols, lrPerm), (llCols, llPerm))
      val out = sides.map { case (pairs, _) =>
        Array.tabulate(pairs.length)(c => if (use(c)) new Array[Array[Float]](fids.length) else null)
      }
      val tasks = for {
        ((pairs, perm), t) <- sides.zip(out)
        c <- pairs.indices if use(c)
        from <- 0 until fids.length by SlotChunk
      } yield (pairs(c), perm, t(c), from)
      Par.map(tasks.length) { i =>
        val (ps, perm, tc, from) = tasks(i)
        val until = math.min(from + SlotChunk, fids.length)
        (from until until).foreach(s => tc(s) = new Array[Float](ps.length))
        var j = 0
        while (j < ps.length) {
          val d = ps(perm(j)).d
          var s = from
          while (s < until) { tc(s)(j) = d(fids(s)); s += 1 }
          j += 1
        }
      }
      (out(0), out(1))
    }
  }

  /** A stable counting sort of positions by `key` (each in `[0, n)`): group
    * `g` holds positions `perm(off(g))` until `perm(off(g + 1))`, ascending.
    */
  private def groupBy(key: Array[Int], n: Int): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < key.length) { off(key(i) + 1) += 1; i += 1 }
    i = 1
    while (i <= n) { off(i) += off(i - 1); i += 1 }
    val next = java.util.Arrays.copyOf(off, n)
    val perm = new Array[Int](key.length)
    i = 0
    while (i < key.length) { perm(next(key(i))) = i; next(key(i)) += 1; i += 1 }
    (off, perm)
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
