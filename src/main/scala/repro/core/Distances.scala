package repro.core

/** The distance functions of Table 1, all normalized to [0, 1]
  * (0 = identical). Set-based distances operate on weighted token *sets*
  * (sorted distinct arrays + a weight per token); character-based ones on
  * preprocessed strings.
  *
  * Worked example from Figure 2 (equal weights,
  * l = {2012, tigers, lsu, baseball, team}, r = {2012, lsu, baseball, team}):
  * JD = 0.2, CD ≈ 0.11, MD = 0, DD ≈ 0.11, ID ≈ 0.56 — matched by the unit
  * tests.
  */
object Distances {

  // ---------------------------------------------------------------- char

  /** Levenshtein distance (unit costs) over UTF-16 chars. When the shorter
    * string has at most 64 chars, all ASCII, it is the pattern of Myers'
    * bit-vector algorithm in Hyyrö's form (one `Long` per DP column, a few
    * word operations per char of the longer string); otherwise
    * [[levenshteinDP]] computes the same integer.
    */
  def levenshtein(a: String, b: String): Int = {
    if (a == b) return 0
    val pat = if (a.length <= b.length) a else b
    val text = if (pat eq a) b else a
    if (pat.isEmpty) return text.length
    if (pat.length <= 64) {
      val d = myers(pat, text)
      if (d >= 0) return d
    }
    levenshteinDP(a, b)
  }

  /** Per thread, the match masks of [[myers]] and [[jaroBits]] by ASCII
    * char: bit i of `peq(c)` is set iff the masked string's char i is c.
    * All zero between calls.
    */
  private val matchMasks = ThreadLocal.withInitial[Array[Long]](() => new Array[Long](128))

  /** Sets bit i of `peq(c)` for each char c at i of `s` (at most 64 chars)
    * and returns true; at a non-ASCII char, clears what it set and returns
    * false.
    */
  private def setMasks(peq: Array[Long], s: String): Boolean = {
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (c >= 128) { clearMasks(peq, s, i); return false }
      peq(c) |= 1L << i
      i += 1
    }
    true
  }

  /** Zeroes the masks of the first `n` chars of `s`. */
  private def clearMasks(peq: Array[Long], s: String, n: Int): Unit = {
    var i = 0
    while (i < n) { peq(s.charAt(i)) = 0L; i += 1 }
  }

  /** Hyyrö's (2001) global form of Myers' recurrence: `pv`/`mv` hold the
    * +1/−1 vertical deltas of the current DP column, bit i for pattern row
    * i + 1, and `score` tracks the last row. `pat` is non-empty and at
    * most 64 chars; the result is −1 if it holds a non-ASCII char. A
    * non-ASCII char of `text` matches nothing.
    */
  private def myers(pat: String, text: String): Int = {
    val peq = matchMasks.get
    if (!setMasks(peq, pat)) return -1
    val m = pat.length
    val last = 1L << (m - 1)
    var pv = -1L
    var mv = 0L
    var score = m
    var j = 0
    while (j < text.length) {
      val c = text.charAt(j)
      val eq = if (c < 128) peq(c) else 0L
      val xv = eq | mv
      val xh = (((eq & pv) + pv) ^ pv) | eq
      var ph = mv | ~(xh | pv)
      var mh = pv & xh
      if ((ph & last) != 0) score += 1
      else if ((mh & last) != 0) score -= 1
      // Row 0 of the DP is j, so its horizontal delta is always +1.
      ph = (ph << 1) | 1L
      mh = mh << 1
      pv = mh | ~(xv | ph)
      mv = ph & xv
      j += 1
    }
    clearMasks(peq, pat, m)
    score
  }

  /** Levenshtein distance by the O(|a|·|b|) dynamic program, for any
    * strings; the reference the bit-parallel path is tested against.
    */
  private[core] def levenshteinDP(a: String, b: String): Int = {
    if (a == b) return 0
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      val ca = a.charAt(i - 1)
      var j = 1
      while (j <= b.length) {
        val cost = if (ca == b.charAt(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }

  /** Edit distance normalized by the longer string's length. */
  def editDistance(a: String, b: String): Double = {
    val m = math.max(a.length, b.length)
    if (m == 0) 0.0 else levenshtein(a, b).toDouble / m
  }

  /** Jaro similarity: each char of `a` in turn matches the first unmatched
    * equal char of `b` within the window. When `b` has at most 64 chars, all
    * ASCII, [[jaroBits]] does this on bit masks; otherwise [[jaroScan]]
    * scans the window. Both give the same double.
    */
  def jaro(a: String, b: String): Double = {
    if (a == b) return 1.0
    if (a.isEmpty || b.isEmpty) return 0.0
    if (b.length <= 64) {
      val sim = jaroBits(a, b)
      if (sim >= 0.0) return sim
    }
    jaroScan(a, b)
  }

  /** Per thread, the chars of `a` that [[jaroBits]] matched, in order. */
  private val matchedChars = ThreadLocal.withInitial[Array[Char]](() => new Array[Char](64))

  /** [[jaroScan]] with `b`'s matched chars as a bit mask: char i of `a`
    * takes the lowest set bit of (its match mask, not yet matched, inside
    * the window). `a` and `b` are non-empty and `b` is at most 64 chars;
    * the result is −1 if `b` holds a non-ASCII char. A non-ASCII char of
    * `a` matches nothing.
    */
  private def jaroBits(a: String, b: String): Double = {
    val la = a.length; val lb = b.length
    val peq = matchMasks.get
    if (!setMasks(peq, b)) return -1.0
    val matchWindow = math.max(0, math.max(la, lb) / 2 - 1)
    val aChars = matchedChars.get
    var bMatched = 0L
    var matches = 0
    var i = 0
    // From i = lb + matchWindow on, the window lies past b's end.
    val end = math.min(la, lb + matchWindow)
    while (i < end) {
      val c = a.charAt(i)
      if (c < 128) {
        val lo = math.max(0, i - matchWindow)
        val hi = math.min(lb - 1, i + matchWindow)
        val free = peq(c) & ~bMatched & (-1L >>> (63 - hi)) & (-1L << lo)
        if (free != 0) { bMatched |= free & -free; aChars(matches) = c; matches += 1 }
      }
      i += 1
    }
    clearMasks(peq, b, lb)
    if (matches == 0) return 0.0
    var transpositions = 0
    var k = 0
    var rest = bMatched
    while (rest != 0) {
      if (aChars(k) != b.charAt(java.lang.Long.numberOfTrailingZeros(rest))) transpositions += 1
      k += 1
      rest &= rest - 1
    }
    val m = matches.toDouble
    (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0
  }

  /** Jaro similarity by scanning each window, for any strings; the
    * reference the bit-mask path is tested against.
    */
  private[core] def jaroScan(a: String, b: String): Double = {
    if (a == b) return 1.0
    val la = a.length; val lb = b.length
    if (la == 0 || lb == 0) return 0.0
    val matchWindow = math.max(0, math.max(la, lb) / 2 - 1)
    val aMatched = new Array[Boolean](la)
    val bMatched = new Array[Boolean](lb)
    var matches = 0
    var i = 0
    while (i < la) {
      val lo = math.max(0, i - matchWindow)
      val hi = math.min(lb - 1, i + matchWindow)
      var j = lo
      var done = false
      while (j <= hi && !done) {
        if (!bMatched(j) && a.charAt(i) == b.charAt(j)) {
          aMatched(i) = true; bMatched(j) = true; matches += 1; done = true
        }
        j += 1
      }
      i += 1
    }
    if (matches == 0) return 0.0
    var transpositions = 0
    var k = 0
    i = 0
    while (i < la) {
      if (aMatched(i)) {
        while (!bMatched(k)) k += 1
        if (a.charAt(i) != b.charAt(k)) transpositions += 1
        k += 1
      }
      i += 1
    }
    val m = matches.toDouble
    (m / la + m / lb + (m - transpositions / 2.0) / m) / 3.0
  }

  /** Jaro-Winkler distance = 1 - JW similarity (prefix scale 0.1, max 4). */
  def jaroWinkler(a: String, b: String): Double = {
    val j = jaro(a, b)
    var prefix = 0
    val maxPrefix = math.min(4, math.min(a.length, b.length))
    while (prefix < maxPrefix && a.charAt(prefix) == b.charAt(prefix)) prefix += 1
    1.0 - (j + prefix * 0.1 * (1.0 - j))
  }

  // ----------------------------------------------------------------- set

  /** Aggregates of a weighted-set pair, computed in one merge pass over two
    * sorted distinct token arrays.
    *
    * @param wl        total weight of left tokens
    * @param wr        total weight of right tokens
    * @param wInter    total weight of the intersection
    * @param rSubsetL  true iff every right token occurs in the left set
    */
  final case class SetStats(wl: Double, wr: Double, wInter: Double, rSubsetL: Boolean)

  /** [[SetStats]] of two sorted distinct token arrays under `w`: the tokens
    * are numbered in string order and handed to [[setStatsIds]].
    */
  def setStats(l: Array[String], r: Array[String], w: TokenWeights): SetStats = {
    val dict = (l ++ r).distinct.sorted
    val id = dict.iterator.zipWithIndex.toMap
    setStatsIds(l.map(id), r.map(id), dict.map(w(_)))._2
  }

  /** The equal-weight and the weighted [[SetStats]] of two sorted distinct
    * token-id arrays, from one merge pass; `weight(id)` is token `id`'s
    * weight. Equal-weight sums are counts, so they are exact. Weighted sums
    * add the left, right and common tokens' weights in ascending id order,
    * which is string order when ids are numbered as the strings sort.
    */
  def setStatsIds(l: Array[Int], r: Array[Int], weight: Array[Double]): (SetStats, SetStats) = {
    var i = 0; var j = 0
    var nInter = 0
    var wl = 0.0; var wr = 0.0; var wInter = 0.0
    var rSubset = true
    while (i < l.length && j < r.length) {
      val a = l(i); val b = r(j)
      if (a == b) {
        val tw = weight(a); wl += tw; wr += tw; wInter += tw; nInter += 1; i += 1; j += 1
      } else if (a < b) { wl += weight(a); i += 1 }
      else { wr += weight(b); rSubset = false; j += 1 }
    }
    while (i < l.length) { wl += weight(l(i)); i += 1 }
    while (j < r.length) { wr += weight(r(j)); rSubset = false; j += 1 }
    (SetStats(l.length, r.length, nInter, rSubset), SetStats(wl, wr, wInter, rSubset))
  }

  /** Both-empty pairs are maximally distant (missing-value convention of
    * §5.2.2: "assign maximum distances when comparing two missing values").
    */
  private def emptyGuard(s: SetStats): Boolean = s.wl == 0.0 || s.wr == 0.0

  def jaccard(s: SetStats): Double =
    if (emptyGuard(s)) 1.0 else 1.0 - s.wInter / (s.wl + s.wr - s.wInter)

  def cosineSet(s: SetStats): Double =
    if (emptyGuard(s)) 1.0 else 1.0 - s.wInter / math.sqrt(s.wl * s.wr)

  /** Max-include distance: 1 - overlap coefficient. */
  def maxInclude(s: SetStats): Double =
    if (emptyGuard(s)) 1.0 else 1.0 - s.wInter / math.min(s.wl, s.wr)

  def dice(s: SetStats): Double =
    if (emptyGuard(s)) 1.0 else 1.0 - 2.0 * s.wInter / (s.wl + s.wr)

  /** Intersection distance: 1 - w(∩)/(w(l)+w(r)); Figure 2's ID = 0.56. */
  def intersection(s: SetStats): Double =
    if (emptyGuard(s)) 1.0 else 1.0 - s.wInter / (s.wl + s.wr)

  /** Hybrid Contain-X (Table 1 footnote): if r ⊆ l, the standard distance;
    * otherwise 1.
    */
  def containJaccard(s: SetStats): Double = if (s.rSubsetL) jaccard(s) else 1.0
  def containCosine(s: SetStats): Double = if (s.rSubsetL) cosineSet(s) else 1.0
  def containDice(s: SetStats): Double = if (s.rSubsetL) dice(s) else 1.0

  /** Set distances indexed as in ConfigSpace.SetDistCodes. */
  def setDistance(d: Int, s: SetStats): Double = d match {
    case 0 => jaccard(s)
    case 1 => cosineSet(s)
    case 2 => maxInclude(s)
    case 3 => dice(s)
    case 4 => intersection(s)
    case 5 => containJaccard(s)
    case 6 => containCosine(s)
    case 7 => containDice(s)
    case other => throw new IllegalArgumentException(s"no set distance $other")
  }
}
