package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, lit}
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Default blocking of §3.2: a broadcast inverted index probed in one job.
  *
  * Records are 3-gram tokenized and tokens weighted by IDF over the
  * reference table L (the "TF-IDF weighting schema" — tokens are distinct
  * per record, so TF = 1): w(t) = ln(|L| / df(t)) + 1. A pair's candidate
  * similarity `blockSim` is the summed weight of its common tokens, and each
  * probe record keeps its top `k = ⌈β·√|L|⌉` left candidates by
  * (blockSim desc, leftId asc).
  *
  * L is collected once; its inverted index (token → L records) and weights
  * are built on the driver and broadcast. One `mapPartitions` job then
  * probes every record of R ∪ L against the index — the inverted-index
  * "SSJoin" of Chaudhuri, Ganti and Kaushik (ICDE 2006) with the reference
  * side broadcast, so nothing is shuffled. An L probe keeps k + 1 candidates
  * and then drops its identity pair (l, l), which ranks first unless an
  * L record with a smaller id ties it.
  *
  * A probe adds its common tokens' weights in sorted-token order, so pairs
  * with the same common tokens tie bit-for-bit and leftId decides between
  * them; the result does not depend on how the inputs are partitioned.
  * Candidates come back as local DataFrames, rows ordered by (rightId,
  * rank), so collecting them runs no further job.
  *
  * Input frames must have columns (id: Long, text: String), with ids unique
  * within a frame.
  */
object Blocking {

  /** ⌈β·√|L|⌉ — the number of left candidates kept per record. */
  def topK(nLeft: Long, beta: Double = 1.0): Int =
    math.max(1, math.ceil(beta * math.sqrt(nLeft.toDouble)).toInt)

  private def tokenize(text: String): Array[String] =
    Tokenize.ngrams(Preprocess.lower(Option(text).getOrElse("")), 3)

  /** Inverted index over L: token → (weight, L positions). Positions follow
    * ascending leftId, so a tie broken on position is broken on leftId.
    */
  private final case class Index(ids: Array[Long], postings: Map[String, (Double, Array[Int])])

  /** Index `left`'s records under `idf`, or under ln(|L|/df) + 1 over `left`
    * itself. Tokens without a weight are left out.
    */
  private def index(left: Array[(Long, String)], idf: Option[Map[String, Double]] = None): Index = {
    val sorted = left.sortBy(_._1)
    val lists = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofInt]
    sorted.iterator.zipWithIndex.foreach { case ((_, text), pos) =>
      tokenize(text).foreach(t => lists.getOrElseUpdate(t, new mutable.ArrayBuilder.ofInt) += pos)
    }
    val n = sorted.length.toDouble
    val postings = lists.iterator.flatMap { case (t, b) =>
      val post = b.result()
      // StrictMath, as Spark's `log` evaluates it.
      idf.fold(Option(StrictMath.log(n / post.length) + 1.0))(_.get(t)).map(w => t -> (w, post))
    }.toMap
    Index(sorted.map(_._1), postings)
  }

  /** Per-thread scratch space for probing one index. */
  private final class Prober(index: Index) {
    private val n = index.ids.length
    private val acc = new Array[Double](n)
    private val seen = new Array[Boolean](n)
    private val touched = new Array[Int](n)

    private def better(a: Int, b: Int): Boolean = acc(a) > acc(b) || (acc(a) == acc(b) && a < b)

    /** The top-`k` L records sharing a token with `text`, best first, as
      * (leftId, blockSim).
      */
    def best(text: String, k: Int): Array[(Long, Double)] = {
      var nTouched = 0
      // ngrams are sorted, so every pair's sum runs in sorted-token order.
      tokenize(text).foreach { t =>
        index.postings.get(t).foreach { case (w, post) =>
          post.foreach { l =>
            if (!seen(l)) { seen(l) = true; touched(nTouched) = l; nTouched += 1 }
            acc(l) += w
          }
        }
      }
      // Bounded insertion: `top` holds the best m so far, best first.
      val top = new Array[Int](math.min(k, nTouched))
      var m = 0
      var i = 0
      while (i < nTouched) {
        val l = touched(i)
        if (m < top.length || (m > 0 && better(l, top(m - 1)))) {
          if (m < top.length) m += 1
          var j = m - 1
          while (j > 0 && better(l, top(j - 1))) { top(j) = top(j - 1); j -= 1 }
          top(j) = l
        }
        i += 1
      }
      val out = top.map(l => (index.ids(l), acc(l)))
      i = 0
      while (i < nTouched) { val l = touched(i); acc(l) = 0.0; seen(l) = false; i += 1 }
      out
    }
  }

  private val CandidateSchema = StructType(Seq(
    StructField("leftId", LongType, nullable = false),
    StructField("rightId", LongType, nullable = false),
    StructField("blockSim", DoubleType, nullable = false),
  ))

  /** The (id, text) rows of a record frame, collected (one job). */
  private[core] def records(df: DataFrame): Array[(Long, String)] =
    df.select("id", "text").collect().map(r => (r.getLong(0), r.getString(1)))

  private def probeRows(df: DataFrame, self: Boolean): DataFrame =
    df.select(lit(self).as("self"), col("id"), col("text"))

  /** The probe job over (self, id, text) rows. A right record keeps its
    * top-`k` candidates; a `self` record (an L record probing its own
    * index) keeps its top-(k+1) and drops the identity pair. Returns the
    * (L–R, L–L) candidates as local frames.
    */
  private def probe(spark: SparkSession, index: Index, probes: DataFrame, k: Int): (DataFrame, DataFrame) = {
    val bIndex = spark.sparkContext.broadcast(index)
    val hits = try {
      probes.rdd.mapPartitions { it =>
        val prober = new Prober(bIndex.value)
        it.flatMap { row =>
          val isSelf = row.getBoolean(0); val id = row.getLong(1)
          prober.best(row.getString(2), if (isSelf) k + 1 else k).iterator
            .collect { case (lid, sim) if !isSelf || lid != id => (isSelf, lid, id, sim) }
        }
      }.collect()
    } finally bIndex.destroy()
    // Stable sort: one probe's rows stay in rank order.
    def frame(isSelf: Boolean): DataFrame = spark.createDataFrame(
      hits.filter(_._1 == isSelf).sortBy(_._3).map(h => Row(h._2, h._3, h._4)).toSeq.asJava,
      CandidateSchema)
    (frame(isSelf = false), frame(isSelf = true))
  }

  /** IDF weights ln(|L|/df) + 1 over the reference table's tokens, as a
    * local (token, weight) frame.
    */
  def idfOverLeft(left: DataFrame): DataFrame = {
    val rows = index(records(left)).postings.iterator.map { case (t, (w, _)) => Row(t, w) }.toSeq
    left.sparkSession.createDataFrame(rows.asJava,
      StructType(Seq(StructField("token", StringType, nullable = false),
                     StructField("weight", DoubleType, nullable = false))))
  }

  /** Top-k L candidates per right record under the given (token, weight)
    * IDF frame: (leftId, rightId, blockSim).
    */
  def candidates(left: DataFrame, right: DataFrame, k: Int, idf: DataFrame): DataFrame = {
    val weights = idf.collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    probe(left.sparkSession, index(records(left), Some(weights)), probeRows(right, self = false), k)._1
  }

  /** Candidate pairs for both the L–R join and the L–L self-join, from one
    * index over L and one probe job. Self pairs exclude the identity (l, l).
    */
  def block(
      spark: SparkSession,
      left: DataFrame,
      right: DataFrame,
      beta: Double = 1.0,
  ): (DataFrame, DataFrame) = {
    val lRecs = records(left)
    probe(spark, index(lRecs), probeRows(right, self = false).union(probeRows(left, self = true)),
          topK(lRecs.length, beta))
  }

  /** The L–R half of [[block]] for L records already on the driver: the same
    * index over `lRecs`, probed by `right`'s records only, in one job.
    */
  def blockRight(spark: SparkSession, lRecs: Array[(Long, String)], right: DataFrame, beta: Double = 1.0)
      : DataFrame =
    probe(spark, index(lRecs), probeRows(right, self = false), topK(lRecs.length, beta))._1
}
