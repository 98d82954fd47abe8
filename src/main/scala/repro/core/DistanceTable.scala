package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import repro.embed.HashEmbedding

/** Per-record structures all 140 join functions read from: the four
  * preprocessed strings, the eight token sets (P × T), and the four
  * embedding vectors (P).
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
  * over the tokenized L ∪ R corpus.
  */
final class FeatureContext(val idfs: Array[TokenWeights]) {
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

/** Computes the per-pair distance vectors for a set of candidate pairs on
  * the driver. The (leftId, rightId) rows of the candidate frame from
  * blocking are read once, and [[vector]] runs over them in chunks on the
  * global execution context. The search reads every distance on the driver,
  * so a Spark job here would only add serialization and scheduling.
  *
  * Order contract: row `i` of every returned table is the `i`-th row of
  * `pairs.collect()`, so the tables of all columns are index-aligned and
  * keep the order of their input pairs.
  */
object DistanceTable {

  /** Pairs per task on the execution context. */
  private val Chunk = 32

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

  /** Distance vectors of every column for every (leftId, rightId) row of
    * `pairs`: one [[PairDist]] table per column, all in input pair order.
    * An id missing from the record maps throws `NoSuchElementException`.
    */
  def computeMulti(
      spark: SparkSession,
      pairs: DataFrame,
      leftCols: Map[Long, Array[Prepped]],
      rightCols: Map[Long, Array[Prepped]],
      ctxs: Array[FeatureContext],
  ): Array[Array[PairDist]] = {
    val ids = pairs.select("leftId", "rightId").collect()
    val n = ids.length
    val m = ctxs.length
    val cols = Array.fill(m)(new Array[PairDist](n))
    implicit val ec: ExecutionContext = ExecutionContext.global
    val chunks = (0 until n by Chunk).map { from =>
      Future {
        val until = math.min(from + Chunk, n)
        var i = from
        while (i < until) {
          val lid = ids(i).getLong(0); val rid = ids(i).getLong(1)
          val l = leftCols(lid); val r = rightCols(rid)
          var c = 0
          while (c < m) {
            cols(c)(i) = PairDist(lid, rid, vector(l(c), r(c), ctxs(c)))
            c += 1
          }
          i += 1
        }
      }
    }
    Await.result(Future.sequence(chunks), Duration.Inf)
    cols
  }

  /** Single-column [[computeMulti]]: distance vectors for every
    * (leftId, rightId) row of `pairs`, in input pair order.
    */
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
