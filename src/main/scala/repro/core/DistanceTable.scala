package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.embed.HashEmbedding

/** Per-record structures all 140 join functions read from: the four
  * preprocessed strings, the eight token sets (P × T), and the four
  * embedding vectors (P). A [[Prepped.apply]] record builds each distinct
  * variant once: a variant whose string equals an earlier one's shares that
  * one's `String`, token arrays and embedding by reference. All fields are
  * read-only.
  */
final case class Prepped(
    strs: Array[String],
    toks: Array[Array[String]],
    emb: Array[Array[Float]],
)

object Prepped {
  /** A null `raw` is a missing value: the empty string (§5.2.2). */
  def apply(raw: String): Prepped = {
    val strs = Preprocess.allVariants(Option(raw).getOrElse(""))
    val toks = new Array[Array[String]](ConfigSpace.NumPreproc * ConfigSpace.NumTok)
    val emb = new Array[Array[Float]](ConfigSpace.NumPreproc)
    var p = 0
    while (p < ConfigSpace.NumPreproc) {
      val q = strs.indexOf(strs(p))
      strs(p) = strs(q)
      var t = 0
      while (t < ConfigSpace.NumTok) {
        val pt = p * ConfigSpace.NumTok + t
        toks(pt) = if (q < p) toks(q * ConfigSpace.NumTok + t) else Tokenize(t, strs(p))
        t += 1
      }
      // The embedding's words are the variant's space tokens (T = 1).
      emb(p) = if (q < p) emb(q) else HashEmbedding.recordVector(toks(p * ConfigSpace.NumTok + 1))
      p += 1
    }
    Prepped(strs, toks, emb)
  }

  /** Distinct values per task in [[interned]]. */
  private val Chunk = 16

  /** `Prepped(raws(i))` at every `i`, built once per distinct value and
    * shared by reference among the positions that hold it (null and ""
    * are one value). The distinct values are built in chunks ([[Par]]).
    */
  def interned(raws: Seq[String]): Array[Prepped] = {
    val index = new java.util.HashMap[String, Integer]
    val distinct = scala.collection.mutable.ArrayBuffer.empty[String]
    val at = raws.iterator.map { raw =>
      index.computeIfAbsent(Option(raw).getOrElse(""), v => { distinct += v; distinct.length - 1 }).intValue
    }.toArray
    val built = new Array[Prepped](distinct.length)
    Par.chunks(built.length, Chunk)((from, until) => (from until until).foreach(i => built(i) = apply(distinct(i))))
    at.map(built(_))
  }
}

/** Dataset-level weighting context: one IDF table per (P, T) combo, built
  * over the tokenized L ∪ R corpus (the IDFW weighting; EW needs no table).
  */
final class FeatureContext(val idfs: Array[TokenWeights])

object FeatureContext {
  /** A (P, T) combo whose token arrays are, record by record, the same
    * arrays as an earlier combo's with the same T shares that one's table.
    * The other combos' tables are built concurrently ([[Par]]).
    */
  def build(corpus: Iterable[Prepped]): FeatureContext = {
    val n = ConfigSpace.NumPreproc * ConfigSpace.NumTok
    // The first such combo, or pt itself: sameness is transitive, so it shares no earlier table.
    val source = Array.tabulate(n) { pt =>
      (pt % ConfigSpace.NumTok until pt by ConfigSpace.NumTok)
        .find(q => corpus.forall(r => r.toks(q) eq r.toks(pt))).getOrElse(pt)
    }
    val own = (0 until n).filter(pt => source(pt) == pt)
    val built = Par.map(own.length)(i => TokenWeights.idf(corpus.view.map(_.toks(own(i)))))
    new FeatureContext(Array.tabulate(n)(pt => built(own.indexOf(source(pt)))))
  }
}

/** One candidate pair with its vector of all 140 distances, ordered by
  * join-function id. Tables from [[DistanceTable]] share one `d` among the
  * pairs of a column whose records hold equal values, so `d` is read-only.
  */
final case class PairDist(leftId: Long, rightId: Long, d: Array[Float])

/** Computes the per-pair distance vectors for a set of candidate pairs on
  * the driver, with no Spark job: the search reads every distance on the
  * driver, so a job here would only add serialization and scheduling.
  * Every prepare site calls [[columns]]; the DataFrame forms share its path.
  *
  * The work is done once per distinct column value and once per distinct
  * value pair. A [[Prepped]] is a function of its lower-cased raw value,
  * `strs(0)`, so records with equal `strs(0)` are one value. Per column, the
  * distinct values of L ∪ R are coded once, for the L–R and the L–L pairs
  * alike: per (P, T), every token becomes an id into a dictionary of the
  * column's tokens sorted as strings, with its IDF weight in an array.
  * Ids ascend in string order whatever else the dictionary holds, so a
  * merge reads the same tokens in the same order. Each pair then maps to
  * its (left value, right value) index, and each distinct index gets one
  * vector, computed in chunks on the global execution context ([[Par]])
  * and shared by every pair that has it, in the L–R and the L–L table
  * alike. A vector needs one merge over ints per (P, T), which yields the
  * equal-weight and the IDF set statistics together
  * ([[Distances.setStatsIds]]), with the same sums, in the same order, as
  * merging the token strings. A preprocessing variant that coincides with
  * an earlier one on every value of the column, with bit-equal IDF arrays,
  * shares that one's coding and gets a copy of its 35 distances.
  *
  * Order contract: row `i` of every returned table is the `i`-th input
  * pair (for a frame, the `i`-th row of `pairs.collect()`), so the tables of
  * all columns are index-aligned and keep the order of their input pairs.
  */
object DistanceTable {

  /** Value pairs per [[Par]] task. */
  private val Chunk = 32

  /** Values coded per [[Par]] task. */
  private val ValueChunk = 64

  private val NumPT = ConfigSpace.NumPreproc * ConfigSpace.NumTok

  /** A record with its token sets as dictionary ids, one array per (P, T). */
  private final class Coded(val rec: Prepped, val toks: Array[Array[Int]])

  /** The token dictionaries of one column over `records`: per (P, T), the
    * distinct tokens sorted as strings, so ascending ids are string order,
    * and `idf(pt)(id)` is the token's weight under `ctx`. Tokens `ctx` has
    * not seen get its unseen-token weight.
    *
    * Variant p is the same as an earlier variant q when every record's
    * string, token sets and embedding under p equal those under q; then p
    * reuses q's dictionaries and coded ids. If p's IDF arrays are also
    * bit-equal to q's for both tokenizers, `alias(p)` is q: every one of
    * p's 35 distances equals q's on every pair of these records, so
    * [[vector]] copies them. Otherwise `alias(p)` is p.
    */
  private final class Coding(records: Iterable[Prepped], ctx: FeatureContext) {
    private val same = Array.tabulate(ConfigSpace.NumPreproc) { p =>
      (0 to p).find(q => records.forall(sameVariant(_, q, p))).get
    }
    private def source(pt: Int): Int = same(pt / ConfigSpace.NumTok) * ConfigSpace.NumTok + pt % ConfigSpace.NumTok
    /** Per (P, T) that is its own source, token → id; the others read their source's. */
    private val ids: Array[java.util.HashMap[String, Integer]] = new Array(NumPT)
    val idf: Array[Array[Double]] = new Array(NumPT)
    // One task per own dictionary, which also fills the IDF arrays of every (P, T) that reads it.
    private val own = (0 until NumPT).filter(pt => source(pt) == pt)
    Par.map(own.length) { i =>
      val src = own(i)
      val seen = new java.util.HashSet[String]
      records.foreach(_.toks(src).foreach(seen.add))
      val dict = seen.toArray(new Array[String](0)).sorted
      val id = new java.util.HashMap[String, Integer](dict.length * 2)
      dict.indices.foreach(i => id.put(dict(i), i))
      ids(src) = id
      (src until NumPT).filter(source(_) == src).foreach(pt => idf(pt) = dict.map(ctx.idfs(pt)(_)))
    }
    val alias: Array[Int] = Array.tabulate(ConfigSpace.NumPreproc) { p =>
      (0 to p).find { q =>
        same(q) == same(p) && (0 until ConfigSpace.NumTok).forall { t =>
          java.util.Arrays.equals(idf(q * ConfigSpace.NumTok + t), idf(p * ConfigSpace.NumTok + t))
        }
      }.get
    }

    def apply(rec: Prepped): Coded = {
      val toks = new Array[Array[Int]](NumPT)
      var pt = 0
      while (pt < NumPT) {
        val src = source(pt)
        toks(pt) = if (src < pt) toks(src) else rec.toks(pt).map(t => ids(pt).get(t).intValue)
        pt += 1
      }
      new Coded(rec, toks)
    }
  }

  private def sameVariant(rec: Prepped, q: Int, p: Int): Boolean =
    rec.strs(q) == rec.strs(p) && java.util.Arrays.equals(rec.emb(q), rec.emb(p)) &&
      (0 until ConfigSpace.NumTok).forall { t =>
        java.util.Arrays.equals(rec.toks(q * ConfigSpace.NumTok + t).asInstanceOf[Array[AnyRef]],
                                rec.toks(p * ConfigSpace.NumTok + t).asInstanceOf[Array[AnyRef]])
      }

  /** All 140 distances between a left and a right record (order: function
    * id). Asymmetric functions (Contain-*) treat `l` as the reference side.
    * Tokens of `l` and `r` that `ctx` has not seen get its unseen weight.
    */
  def vector(l: Prepped, r: Prepped, ctx: FeatureContext): Array[Float] = {
    val coding = new Coding(Seq(l, r), ctx)
    vector(coding(l), coding(r), coding)
  }

  /** Variant p's slots are three contiguous runs: `CharRun` from
    * `charId(p, 0)`, `SetRun` from `setId(p, 0, 0, 0)` and `embedId(p)`.
    */
  private val CharRun = ConfigSpace.NumCharDist
  private val SetRun = ConfigSpace.NumTok * ConfigSpace.NumWeight * ConfigSpace.NumSetDist

  private def vector(l: Coded, r: Coded, coding: Coding): Array[Float] = {
    val out = new Array[Float](ConfigSpace.Size)
    val ls = l.rec.strs; val rs = r.rec.strs
    // Missing-value convention of §5.2.2: missing values are empty strings
    // and two missing values are maximally distant under every function.
    if (ls(0).isEmpty && rs(0).isEmpty) {
      java.util.Arrays.fill(out, 1.0f)
      return out
    }
    var p = 0
    while (p < ConfigSpace.NumPreproc) {
      val q = coding.alias(p)
      if (q < p) {
        System.arraycopy(out, ConfigSpace.charId(q, 0), out, ConfigSpace.charId(p, 0), CharRun)
        System.arraycopy(out, ConfigSpace.setId(q, 0, 0, 0), out, ConfigSpace.setId(p, 0, 0, 0), SetRun)
        out(ConfigSpace.embedId(p)) = out(ConfigSpace.embedId(q))
      } else {
        // Character-based.
        out(ConfigSpace.charId(p, 0)) = Distances.jaroWinkler(ls(p), rs(p)).toFloat
        out(ConfigSpace.charId(p, 1)) = Distances.editDistance(ls(p), rs(p)).toFloat
        // Set-based: one merge per (P, T) gives both weightings' statistics,
        // eight distances each (weighting 0 = EW, 1 = IDFW).
        var t = 0
        while (t < ConfigSpace.NumTok) {
          val pt = p * ConfigSpace.NumTok + t
          val (ew, iw) = Distances.setStatsIds(l.toks(pt), r.toks(pt), coding.idf(pt))
          var d = 0
          while (d < ConfigSpace.NumSetDist) {
            out(ConfigSpace.setId(p, t, 0, d)) = Distances.setDistance(d, ew).toFloat
            out(ConfigSpace.setId(p, t, 1, d)) = Distances.setDistance(d, iw).toFloat
            d += 1
          }
          t += 1
        }
        // Embedding-based.
        out(ConfigSpace.embedId(p)) = HashEmbedding.cosineDistance(l.rec.emb(p), r.rec.emb(p)).toFloat
      }
      p += 1
    }
    out
  }

  /** [[columns]]' output: column c's records, L's then R's in input order
    * (`recs(c)`), its context over them (`ctxs(c)`) and its tables.
    */
  private[core] final case class Columns(
      lIds: Seq[Long],
      rIds: Seq[Long],
      recs: Array[Array[Prepped]],
      ctxs: Array[FeatureContext],
      lr: Array[Array[PairDist]],
      ll: Array[Array[PairDist]],
  ) {
    /** Column `c`'s records of L and of R by id. */
    def prepped(c: Int): (Map[Long, Prepped], Map[Long, Prepped]) =
      (lIds.iterator.zip(recs(c).iterator).toMap, rIds.iterator.zip(recs(c).iterator.drop(lIds.length)).toMap)
  }

  /** Prepares the `m` columns of the records `left` and `right` (an id and
    * one value per column) and computes their tables of the (leftId,
    * rightId) pairs `lrPairs` and of the (leftId, leftId) pairs `llPairs`.
    * Each column is prepared as one [[Par]] task: one [[Prepped]] per
    * distinct value, shared by every record that holds it
    * ([[Prepped.interned]]), and the column's [[FeatureContext]] over every
    * record, since IDF counts records. Each column's values are then coded
    * once for both pair sets. An id missing from the records throws
    * `NoSuchElementException`.
    */
  private[core] def columns(
      m: Int,
      left: Seq[(Long, Seq[String])],
      right: Seq[(Long, Seq[String])],
      lrPairs: Array[(Long, Long)],
      llPairs: Array[(Long, Long)],
  ): Columns = {
    val (recs, ctxs) = Par.map(m) { c =>
      val recs = Prepped.interned(left.map(_._2(c)) ++ right.map(_._2(c)))
      (recs, FeatureContext.build(recs))
    }.toArray.unzip
    val lIds = left.map(_._1); val rIds = right.map(_._1)
    val lPos = positions(lIds, 0)
    val Seq(lr, ll) = tables(recs, ctxs, Seq((lrPairs, lPos, positions(rIds, lIds.length)), (llPairs, lPos, lPos)))
    Columns(lIds, rIds, recs, ctxs, lr, ll)
  }

  /** Each of `ids` mapped to its position plus `from`. */
  private def positions(ids: Iterable[Long], from: Int): Map[Long, Int] =
    ids.iterator.zipWithIndex.map { case (id, i) => id -> (from + i) }.toMap

  /** Per pair set, one table per column of `recs`, which holds each
    * column's records by position. A set's pairs are (leftId, rightId) ids,
    * at positions its two maps give. Each column codes the values of all
    * its records once, and a value pair that occurs in several sets gets
    * one vector.
    */
  private def tables(
      recs: Array[Array[Prepped]],
      ctxs: Array[FeatureContext],
      sets: Seq[(Array[(Long, Long)], Map[Long, Int], Map[Long, Int])],
  ): Seq[Array[Array[PairDist]]] = {
    // Every set's pairs, concatenated, as positions among the records.
    val pairL = sets.iterator.flatMap { case (pairs, l, _) => pairs.iterator.map(p => l(p._1)) }.toArray
    val pairR = sets.iterator.flatMap { case (pairs, _, r) => pairs.iterator.map(p => r(p._2)) }.toArray
    val cols = Par.map(recs.length)(c => new ColumnPairs(recs(c), pairL, pairR, ctxs(c)))
    val fills = for (col <- cols; from <- 0 until col.vectors.length by Chunk) yield (col, from)
    Par.map(fills.length) { i =>
      val (col, from) = fills(i)
      col.fill(from, math.min(from + Chunk, col.vectors.length))
    }
    val starts = sets.scanLeft(0)(_ + _._1.length)
    sets.indices.map { k =>
      val pairs = sets(k)._1
      Par.map(cols.length)(c => Array.tabulate(pairs.length) { i =>
        PairDist(pairs(i)._1, pairs(i)._2, cols(c).vectors(cols(c).pairIdx(starts(k) + i)))
      }).toArray
    }
  }

  /** One column of a [[tables]] call, over its records by position. Its
    * distinct values are the records with distinct `strs(0)`, coded once.
    * `pairIdx(i)` indexes pair `i`'s (value of `recs(pairL(i))`, value of
    * `recs(pairR(i))`) among the column's distinct value pairs, and [[fill]]
    * computes the vector of each of those once, into `vectors`.
    */
  private final class ColumnPairs(recs: Array[Prepped], pairL: Array[Int], pairR: Array[Int], ctx: FeatureContext) {
    private val valueOf = new java.util.HashMap[String, Integer]
    private val values = scala.collection.mutable.ArrayBuffer.empty[Prepped]
    private val recVal = recs.map(p => valueOf.computeIfAbsent(p.strs(0), _ => { values += p; values.length - 1 }).intValue)
    private val coding = new Coding(values, ctx)
    private val coded = new Array[Coded](values.length)
    Par.chunks(coded.length, ValueChunk)((from, until) => (from until until).foreach(v => coded(v) = coding(values(v))))
    private val nv = coded.length.toLong
    val (valuePairs, pairIdx) =
      SearchData.denseIndex(Array.tabulate(pairL.length)(i => recVal(pairL(i)) * nv + recVal(pairR(i))))
    val vectors = new Array[Array[Float]](valuePairs.length)

    def fill(from: Int, until: Int): Unit = {
      var k = from
      while (k < until) {
        val vp = valuePairs(k)
        vectors(k) = vector(coded((vp / nv).toInt), coded((vp % nv).toInt), coding)
        k += 1
      }
    }
  }

  private def pairsOf(df: DataFrame): Array[(Long, Long)] =
    df.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1)))

  /** Distance vectors of every column for the (leftId, rightId) rows of a
    * pair frame, over the records of `leftCols` and `rightCols` by id: one
    * table per column, each in row order. An id missing from the records
    * throws `NoSuchElementException`.
    */
  def computeMulti(
      spark: SparkSession,
      pairs: DataFrame,
      leftCols: Map[Long, Array[Prepped]],
      rightCols: Map[Long, Array[Prepped]],
      ctxs: Array[FeatureContext],
  ): Array[Array[PairDist]] = {
    val lIds = leftCols.keys.toArray; val rIds = rightCols.keys.toArray
    val recs = Array.tabulate(ctxs.length)(c => lIds.map(leftCols(_)(c)) ++ rIds.map(rightCols(_)(c)))
    tables(recs, ctxs, Seq((pairsOf(pairs), positions(lIds, 0), positions(rIds, lIds.length)))).head
  }

  /** Single-column [[computeMulti]]. */
  def compute(
      spark: SparkSession,
      pairs: DataFrame,
      left: Map[Long, Prepped],
      right: Map[Long, Prepped],
      ctx: FeatureContext,
  ): Array[PairDist] = {
    def oneCol(recs: Map[Long, Prepped]) = recs.map { case (id, p) => id -> Array(p) }
    computeMulti(spark, pairs, oneCol(left), oneCol(right), Array(ctx))(0)
  }
}
