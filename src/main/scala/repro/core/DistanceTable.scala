package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.embed.HashEmbedding

/** Per-record structures all 140 join functions read from: the four
  * preprocessed strings, the eight token sets (P × T), and the four
  * embedding vectors (P).
  */
final case class Prepped(
    strs: Array[String],
    toks: Array[Array[String]],
    emb: Array[Array[Float]],
) extends Serializable

object Prepped {
  def apply(raw: String): Prepped = {
    val strs = Preprocess.allVariants(raw)
    val toks = new Array[Array[String]](ConfigSpace.NumPreproc * ConfigSpace.NumTok)
    var p = 0
    while (p < ConfigSpace.NumPreproc) {
      var t = 0
      while (t < ConfigSpace.NumTok) {
        toks(p * ConfigSpace.NumTok + t) = Tokenize(t, strs(p))
        t += 1
      }
      p += 1
    }
    val emb = Array.tabulate(ConfigSpace.NumPreproc) { pp =>
      HashEmbedding.recordVector(Tokenize.space(strs(pp)), _ => 1.0)
    }
    Prepped(strs, toks, emb)
  }
}

/** Dataset-level weighting context: one IDF table per (P, T) combo, built
  * over the tokenized L ∪ R corpus, broadcast to executors alongside the
  * prepped records.
  */
final class FeatureContext(val idfs: Array[TokenWeights]) extends Serializable {
  /** Weights for weighting option `w` under (P, T) combo index `pt`. */
  def weights(w: Int, pt: Int): TokenWeights =
    if (w == 0) TokenWeights.equal else idfs(pt)
}

object FeatureContext {
  def build(corpus: Iterable[Prepped]): FeatureContext = {
    val n = ConfigSpace.NumPreproc * ConfigSpace.NumTok
    val idfs = Array.tabulate(n)(pt => TokenWeights.idf(corpus.view.map(_.toks(pt))))
    new FeatureContext(idfs)
  }
}

/** One candidate pair with its vector of all 140 distances, ordered by
  * join-function id.
  */
final case class PairDist(leftId: Long, rightId: Long, d: Array[Float])

/** Computes the per-pair distance vectors for a set of candidate pairs as a
  * single Spark pass: the candidate (leftId, rightId) DataFrame from
  * blocking is mapped partition-wise with the prepped records and the IDF
  * context broadcast, yielding one 140-float vector per pair.
  */
object DistanceTable {

  /** All 140 distances between a left and a right record (order: function
    * id). Asymmetric functions (Contain-*) treat `l` as the reference side.
    */
  def vector(l: Prepped, r: Prepped, ctx: FeatureContext): Array[Float] = {
    val out = new Array[Float](ConfigSpace.Size)
    // Missing-value convention of §5.2.2: missing values are empty strings
    // and two missing values are maximally distant under every function.
    if (l.strs(0).isEmpty && r.strs(0).isEmpty) {
      java.util.Arrays.fill(out, 1.0f)
      return out
    }
    var p = 0
    while (p < ConfigSpace.NumPreproc) {
      // Character-based.
      out(ConfigSpace.charId(p, 0)) = Distances.jaroWinkler(l.strs(p), r.strs(p)).toFloat
      out(ConfigSpace.charId(p, 1)) = Distances.editDistance(l.strs(p), r.strs(p)).toFloat
      // Set-based: one merge pass per (P, T, W), eight distances each.
      var t = 0
      while (t < ConfigSpace.NumTok) {
        val pt = p * ConfigSpace.NumTok + t
        var w = 0
        while (w < ConfigSpace.NumWeight) {
          val stats = Distances.setStats(l.toks(pt), r.toks(pt), ctx.weights(w, pt))
          var d = 0
          while (d < ConfigSpace.NumSetDist) {
            out(ConfigSpace.setId(p, t, w, d)) = Distances.setDistance(d, stats).toFloat
            d += 1
          }
          w += 1
        }
        t += 1
      }
      // Embedding-based.
      out(ConfigSpace.embedId(p)) = HashEmbedding.cosineDistance(l.emb(p), r.emb(p)).toFloat
      p += 1
    }
    out
  }

  /** One Spark pass over the candidate pairs computing the distance
    * vectors of *all* columns at once (multi-column tasks would otherwise
    * pay per-column job overhead). Returns one column-major array of
    * [[PairDist]] per column, all index-aligned.
    */
  def computeMulti(
      spark: SparkSession,
      pairs: DataFrame,
      leftCols: Map[Long, Array[Prepped]],
      rightCols: Map[Long, Array[Prepped]],
      ctxs: Array[FeatureContext],
  ): Array[Array[PairDist]] = {
    import spark.implicits._
    val m = ctxs.length
    val bLeft = spark.sparkContext.broadcast(leftCols)
    val bRight = spark.sparkContext.broadcast(rightCols)
    val bCtx = spark.sparkContext.broadcast(ctxs)
    val rows: Array[(Long, Long, Array[Array[Float]])] = try {
      pairs
        .select("leftId", "rightId")
        .as[(Long, Long)]
        .mapPartitions { it =>
          val lm = bLeft.value; val rm = bRight.value; val cs = bCtx.value
          it.map { case (lid, rid) =>
            (lid, rid, Array.tabulate(cs.length)(c => vector(lm(lid)(c), rm(rid)(c), cs(c))))
          }
        }
        .collect()
    } finally {
      bLeft.destroy(); bRight.destroy(); bCtx.destroy()
    }
    Array.tabulate(m)(c => rows.map { case (lid, rid, d) => PairDist(lid, rid, d(c)) })
  }

  /** Spark pass: distance vectors for every (leftId, rightId) row of
    * `pairs`. Prepped records and the IDF context ride a broadcast; the
    * result is collected (candidate sets are O((|L|+|R|)·√|L|)).
    */
  def compute(
      spark: SparkSession,
      pairs: DataFrame,
      left: Map[Long, Prepped],
      right: Map[Long, Prepped],
      ctx: FeatureContext,
  ): Array[PairDist] = {
    import spark.implicits._
    val bLeft = spark.sparkContext.broadcast(left)
    val bRight = spark.sparkContext.broadcast(right)
    val bCtx = spark.sparkContext.broadcast(ctx)
    try {
      val ds: Dataset[PairDist] = pairs
        .select("leftId", "rightId")
        .as[(Long, Long)]
        .mapPartitions { it =>
          val lm = bLeft.value; val rm = bRight.value; val c = bCtx.value
          it.map { case (lid, rid) => PairDist(lid, rid, vector(lm(lid), rm(rid), c)) }
        }
      ds.collect()
    } finally {
      bLeft.destroy(); bRight.destroy(); bCtx.destroy()
    }
  }
}
