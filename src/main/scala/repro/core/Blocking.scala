package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Default blocking of §3.2: an inverted index over L, probed on the driver.
  *
  * Records are 3-gram tokenized and tokens weighted by IDF over the
  * reference table L (the "TF-IDF weighting schema" — tokens are distinct
  * per record, so TF = 1): w(t) = ln(|L| / df(t)) + 1. A pair's candidate
  * similarity `blockSim` is the summed weight of its common tokens, and each
  * probe record keeps its top `k = ⌈√|L|⌉` left candidates by
  * (blockSim desc, leftId asc).
  *
  * The inverted index (token → L records) and its weights are built once,
  * and every record of R ∪ L probes it — the inverted-index "SSJoin" of
  * Chaudhuri, Ganti and Kaushik (ICDE 2006) with the reference side in
  * memory. L holds at most a few thousand short records, so the probe runs
  * on driver threads, in chunks of records on the global execution context,
  * the R and the L probes together; no Spark job is involved. An L probe
  * keeps k + 1 candidates and then drops its identity pair (l, l), which
  * ranks first unless an L record with a smaller id ties it.
  *
  * A probe adds its common tokens' weights in sorted-token order, so pairs
  * with the same common tokens tie bit-for-bit and leftId decides between
  * them. Candidates come back as (leftId, rightId, blockSim) rows ordered by
  * (probe id, rank), whatever the order of the input records.
  *
  * Record ids must be unique within a table: a repeated id throws
  * `IllegalArgumentException`. The DataFrame entry point
  * takes frames with columns (id: Long, text: String) and reads their rows
  * first: a frame built on the driver with no Spark job, any other in one
  * job.
  */
object Blocking {

  /** One candidate pair: (leftId, rightId, blockSim). */
  type Candidate = (Long, Long, Double)

  /** Records per [[Par]] task, when L is tokenized and when records probe. */
  private[core] val Chunk = 16

  /** ⌈√|L|⌉ — the number of left candidates kept per record (§3.2). */
  def topK(nLeft: Long): Int = math.max(1, math.ceil(math.sqrt(nLeft.toDouble)).toInt)

  private def tokenize(text: String): Array[String] =
    Tokenize.ngrams(Preprocess.lower(Option(text).getOrElse("")))

  /** Inverted index over L: token → (weight, L positions). Positions follow
    * ascending leftId, so a tie broken on position is broken on leftId.
    */
  private final case class Index(ids: Array[Long], postings: Map[String, (Double, Array[Int])])

  /** `recs` sorted by id; two records of one `side` with one id throw
    * `IllegalArgumentException`.
    */
  private def byId(recs: Seq[(Long, String)], side: String): Array[(Long, String)] = {
    val sorted = recs.sortBy(_._1).toArray
    (1 until sorted.length).foreach(i =>
      require(sorted(i)._1 != sorted(i - 1)._1, s"$side holds id ${sorted(i)._1} twice"))
    sorted
  }

  /** Index `left`'s records under ln(|L|/df) + 1 over `left` itself. */
  private def index(left: Seq[(Long, String)]): Index = {
    val sorted = byId(left, "L")
    val grams = Par.chunks(sorted.length, Chunk)((from, until) => (from until until).map(i => tokenize(sorted(i)._2)))
    val lists = mutable.HashMap.empty[String, mutable.ArrayBuilder.ofInt]
    grams.iterator.flatten.zipWithIndex.foreach { case (toks, pos) =>
      toks.foreach(t => lists.getOrElseUpdate(t, new mutable.ArrayBuilder.ofInt) += pos)
    }
    val n = sorted.length.toDouble
    val postings = lists.iterator.map { case (t, b) =>
      val post = b.result()
      // StrictMath: the same bits on every JVM and platform.
      t -> (StrictMath.log(n / post.length) + 1.0, post)
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

  /** Per set of probe records, each record's top-`k` candidates in `index`,
    * in (probe id, rank) order. A `self` set (L records probing their own
    * index) keeps each record's top-(k+1) and drops the identity pair. The
    * chunks of every set run together through [[Par]], one [[Prober]] each,
    * and each set's rows are concatenated in chunk order.
    */
  private def probe(index: Index, sets: Seq[(Seq[(Long, String)], Boolean)], k: Int): Seq[Array[Candidate]] = {
    val sorted = sets.map { case (probes, self) => byId(probes, if (self) "L" else "R") }
    val chunks = for (s <- sets.indices; from <- 0 until sorted(s).length by Chunk) yield (s, from)
    val rows = Par.map(chunks.length) { c =>
      val (s, from) = chunks(c)
      val recs = sorted(s); val self = sets(s)._2
      val kk = if (self) k + 1 else k
      val prober = new Prober(index)
      val out = Array.newBuilder[Candidate]
      var i = from
      while (i < math.min(from + Chunk, recs.length)) {
        val (id, text) = recs(i)
        prober.best(text, kk).foreach { case (lid, sim) => if (!self || lid != id) out += ((lid, id, sim)) }
        i += 1
      }
      out.result()
    }
    sets.indices.map(s => chunks.indices.filter(chunks(_)._1 == s).flatMap(rows(_)).toArray)
  }

  /** Candidate pairs for both the L–R join and the L–L self-join, from one
    * index over L. Self pairs exclude the identity (l, l).
    */
  def block(lRecs: Seq[(Long, String)], rRecs: Seq[(Long, String)]): (Array[Candidate], Array[Candidate]) = {
    val Seq(lr, ll) = probe(index(lRecs), Seq((rRecs, false), (lRecs, true)), topK(lRecs.length))
    (lr, ll)
  }

  /** The L–R half of [[block]]: the same index over L, probed by R only. */
  def leftRight(lRecs: Seq[(Long, String)], rRecs: Seq[(Long, String)]): Array[Candidate] =
    probe(index(lRecs), Seq((rRecs, false)), topK(lRecs.length)).head

  /** The (id, text) rows of two record frames, with no SQL plan around
    * them, each frame's rows in the order a plain collect gives. A frame
    * whose analyzed plan is a [[LocalRelation]] (one built on the driver,
    * such as [[SingleColumnPipeline.toDF]]'s) is read from the relation's
    * rows, with no Spark job. Any other frame is read from its physical
    * plan's RDD by field index; the frames that need it are collected in one
    * job of one task over the union of their RDDs, and `coalesce(1)` reads
    * the union's partitions in order without a shuffle. A frame whose `id`
    * is not a `LongType` or whose `text` is not a `StringType` column throws
    * `IllegalArgumentException`.
    */
  private[core] def records(left: DataFrame, right: DataFrame): (Seq[(Long, String)], Seq[(Long, String)]) = {
    val frames = Seq(left, right)
    val fields = frames.map { df =>
      val schema = df.schema
      val id = schema.fieldIndex("id"); val text = schema.fieldIndex("text")
      require(schema(id).dataType == LongType, s"id must be a LongType column, not ${schema(id).dataType}")
      require(schema(text).dataType == StringType, s"text must be a StringType column, not ${schema(text).dataType}")
      (id, text)
    }
    def read(side: Int, row: InternalRow): (Long, String) = {
      val (id, text) = fields(side)
      (row.getLong(id), if (row.isNullAt(text)) null else row.getUTF8String(text).toString)
    }
    val local = frames.map(_.queryExecution.analyzed match {
      case rel: LocalRelation => Some(rel.data)
      case _ => None
    })
    val distributed = frames.indices.filter(local(_).isEmpty)
    // The RDD may reuse one row object, so each row's values are copied out at once.
    val collected: Array[(Int, (Long, String))] =
      if (distributed.isEmpty) Array.empty
      else distributed.map(s => frames(s).queryExecution.toRdd.map(row => (s, read(s, row))))
        .reduce(_ union _).coalesce(1).collect()
    val Seq(l, r) = frames.indices.map(s =>
      local(s).fold(collected.iterator.collect { case (`s`, rec) => rec }.toSeq)(_.map(read(s, _))))
    (l, r)
  }

  private val CandidateSchema = StructType(Seq(
    StructField("leftId", LongType, nullable = false),
    StructField("rightId", LongType, nullable = false),
    StructField("blockSim", DoubleType, nullable = false),
  ))

  /** Candidates as a local frame: collecting it runs no job. */
  private def frame(spark: SparkSession, rows: Array[Candidate]): DataFrame =
    spark.createDataFrame(rows.map { case (l, r, s) => Row(l, r, s) }.toSeq.asJava, CandidateSchema)

  /** [[block]] over record frames, read by [[records]]: frames built on the
    * driver are read with no Spark job, the others in one job between them.
    * The candidates come back as local frames.
    */
  def block(spark: SparkSession, left: DataFrame, right: DataFrame): (DataFrame, DataFrame) = {
    val (lRecs, rRecs) = records(left, right)
    val (lr, ll) = block(lRecs, rRecs)
    (frame(spark, lr), frame(spark, ll))
  }
}
