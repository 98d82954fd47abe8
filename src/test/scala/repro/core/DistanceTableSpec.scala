package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.data.Benchmarks

class DistanceTableSpec extends SparkSpec {

  private val L = Seq(1L -> "2008 LSU Tigers baseball team", 2L -> "Super Bowl XX Game")
  private val R = Seq(100L -> "2008 LSU baseball team", 101L -> "Super Bowl XXI Game")

  private def prepped(recs: Seq[(Long, String)]) =
    recs.map { case (id, t) => id -> Prepped(t) }.toMap

  test("vector has one entry per join function, all in [0,1]") {
    val lp = prepped(L); val rp = prepped(R)
    val ctx = FeatureContext.build(lp.values ++ rp.values)
    val v = DistanceTable.vector(lp(1L), rp(100L), ctx)
    assert(v.length == ConfigSpace.Size)
    assert(v.forall(d => d >= 0f && d <= 1f))
  }

  test("identical records have a zero vector (Intersection-distance slots at 1/2)") {
    val p = Prepped("abc def")
    val ctx = FeatureContext.build(Seq(p))
    val v = DistanceTable.vector(p, p, ctx)
    v.indices.foreach { id =>
      val jf = ConfigSpace.decode(id)
      if (jf.kind == ConfigSpace.SetKind && jf.d == 4) assert(v(id) == 0.5f, jf.label)
      else assert(v(id) == 0f, jf.label)
    }
  }

  test("both-empty records are maximally distant everywhere (missing values)") {
    val p = Prepped("")
    val ctx = FeatureContext.build(Seq(p))
    assert(DistanceTable.vector(p, p, ctx).forall(_ == 1f))
  }

  test("vector entries match the underlying distance functions") {
    val lp = prepped(L); val rp = prepped(R)
    val ctx = FeatureContext.build(lp.values ++ rp.values)
    val v = DistanceTable.vector(lp(1L), rp(100L), ctx)
    // (L, ED): normalized edit distance of lowercase strings.
    val ed = Distances.editDistance("2008 lsu tigers baseball team", "2008 lsu baseball team")
    assert(math.abs(v(ConfigSpace.charId(0, 1)) - ed) < 1e-6)
    // (L, SP, EW, JD): 4 common of 5 vs 4 tokens -> 0.2 (Example 2.1).
    val jd = v(ConfigSpace.setId(0, 1, 0, 0))
    assert(math.abs(jd - 0.2) < 1e-6)
    // Containment holds, so (L, SP, EW, CJD) equals JD here.
    assert(v(ConfigSpace.setId(0, 1, 0, 5)) == jd)
  }

  test("Spark compute matches the driver-side vector") {
    val lp = prepped(L); val rp = prepped(R)
    val ctx = FeatureContext.build(lp.values ++ rp.values)
    val pairsDf = SingleColumnPipeline.toPairDF(spark, Seq((1L, 100L), (2L, 101L)))
    val out = DistanceTable.compute(spark, pairsDf, lp, rp, ctx)
      .sortBy(p => (p.leftId, p.rightId))
    assert(out.length == 2)
    assert(out(0).d.toSeq == DistanceTable.vector(lp(1L), rp(100L), ctx).toSeq)
    assert(out(1).d.toSeq == DistanceTable.vector(lp(2L), rp(101L), ctx).toSeq)
  }

  test("computeMulti returns aligned per-column tables") {
    val lCols = Map(1L -> Array(Prepped("alpha beta"), Prepped("111")))
    val rCols = Map(100L -> Array(Prepped("alpha bta"), Prepped("112")))
    val ctxs = Array(
      FeatureContext.build(Seq(lCols(1L)(0), rCols(100L)(0))),
      FeatureContext.build(Seq(lCols(1L)(1), rCols(100L)(1))))
    val pairsDf = SingleColumnPipeline.toPairDF(spark, Seq((1L, 100L)))
    val cols = DistanceTable.computeMulti(spark, pairsDf, lCols, rCols, ctxs)
    assert(cols.length == 2)
    assert(cols(0).length == 1 && cols(1).length == 1)
    assert(cols(0)(0).leftId == 1L && cols(0)(0).rightId == 100L)
    assert(cols(0)(0).d.toSeq ==
      DistanceTable.vector(lCols(1L)(0), rCols(100L)(0), ctxs(0)).toSeq)
    assert(cols(1)(0).d.toSeq ==
      DistanceTable.vector(lCols(1L)(1), rCols(100L)(1), ctxs(1)).toSeq)
  }

  test("asymmetric Contain-* treats the left side as reference") {
    val lp = Prepped("a b c")
    val rp = Prepped("a b")
    val ctx = FeatureContext.build(Seq(lp, rp))
    val fwd = DistanceTable.vector(lp, rp, ctx)(ConfigSpace.setId(0, 1, 0, 5))
    val bwd = DistanceTable.vector(rp, lp, ctx)(ConfigSpace.setId(0, 1, 0, 5))
    assert(fwd < 1.0f, "r ⊆ l: Contain-Jaccard behaves like Jaccard")
    assert(bwd == 1.0f, "l ⊄ r in reverse: Contain-Jaccard saturates at 1")
  }

  test("a null record is a missing value: the same vectors as the empty string") {
    val other = Prepped("2008 LSU baseball team")
    val ctx = FeatureContext.build(Seq(Prepped(""), other))
    def same(a: Array[Float], b: Array[Float]) = java.util.Arrays.equals(a, b)
    assert(same(DistanceTable.vector(Prepped(null), other, ctx), DistanceTable.vector(Prepped(""), other, ctx)))
    assert(same(DistanceTable.vector(other, Prepped(null), ctx), DistanceTable.vector(other, Prepped(""), ctx)))
    assert(same(DistanceTable.vector(Prepped(null), Prepped(null), ctx),
      DistanceTable.vector(Prepped(""), Prepped(""), ctx)))
  }

  /** Benchmarks.tiny()'s blocked L–R and L–L pairs, its records in two
    * columns (the text and its words reversed), and one context per column.
    */
  private lazy val tiny = {
    val task = Benchmarks.tiny()
    val (lrCand, llCand) = Blocking.block(spark,
      SingleColumnPipeline.toDF(spark, task.left), SingleColumnPipeline.toDF(spark, task.right))
    def ids(df: DataFrame) = df.select("leftId", "rightId").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
    def cols(recs: Seq[(Long, String)]) =
      recs.map { case (id, t) => id -> Array(Prepped(t), Prepped(t.split(" ").reverse.mkString(" "))) }.toMap
    val lCols = cols(task.left); val rCols = cols(task.right)
    val ctxs = Array.tabulate(2)(c => FeatureContext.build(lCols.values.map(_(c)) ++ rCols.values.map(_(c))))
    (ids(lrCand), ids(llCand), lCols, rCols, ctxs)
  }

  private def pairFrame(pairs: Seq[(Long, Long)], partitions: Int): DataFrame =
    spark.createDataFrame(
      spark.sparkContext.parallelize(pairs.map { case (a, b) => Row(a, b) }, partitions),
      StructType(Seq(StructField("leftId", LongType), StructField("rightId", LongType))))

  private def assertRowsMatch(out: Array[PairDist], pairs: Seq[(Long, Long)],
                              lp: Map[Long, Prepped], rp: Map[Long, Prepped], ctx: FeatureContext): Unit = {
    assert(out.map(p => (p.leftId, p.rightId)).toSeq == pairs, "rows come back in input pair order")
    out.foreach { p =>
      assert(java.util.Arrays.equals(p.d, DistanceTable.vector(lp(p.leftId), rp(p.rightId), ctx)),
        s"(${p.leftId}, ${p.rightId}) differs from vector")
    }
  }

  test("compute and computeMulti rows are bit-equal to vector, in input order, on tiny's blocked pairs") {
    val (lr, ll, lCols, rCols, ctxs) = tiny
    assert(lr.nonEmpty && ll.nonEmpty)
    for ((pairs, rightCols) <- Seq((lr, rCols), (ll, lCols))) {
      // Reversed, so input order is not the order blocking produced.
      val input = pairs.reverse
      val multi = DistanceTable.computeMulti(spark, pairFrame(input, 4), lCols, rightCols, ctxs)
      assert(multi.length == 2)
      (0 until 2).foreach { c =>
        val lp = lCols.map { case (id, v) => id -> v(c) }
        val rp = rightCols.map { case (id, v) => id -> v(c) }
        assertRowsMatch(multi(c), input, lp, rp, ctxs(c))
        assertRowsMatch(DistanceTable.compute(spark, pairFrame(input, 4), lp, rp, ctxs(c)), input, lp, rp, ctxs(c))
      }
    }
  }

  test("output is identical whether the pair frame has 1 or 8 partitions") {
    val (lr, _, lCols, rCols, ctxs) = tiny
    def flat(cols: Array[Array[PairDist]]) =
      cols.map(_.map(p => (p.leftId, p.rightId, p.d.toSeq.map(java.lang.Float.floatToRawIntBits))).toSeq).toSeq
    val one = DistanceTable.computeMulti(spark, pairFrame(lr, 1), lCols, rCols, ctxs)
    val eight = DistanceTable.computeMulti(spark, pairFrame(lr, 8), lCols, rCols, ctxs)
    assert(flat(one) == flat(eight))
  }

  test("an empty pair frame gives empty tables") {
    val (_, _, lCols, rCols, ctxs) = tiny
    val cols = DistanceTable.computeMulti(spark, pairFrame(Seq.empty, 1), lCols, rCols, ctxs)
    assert(cols.length == ctxs.length && cols.forall(_.isEmpty))
    val lp = lCols.map { case (id, v) => id -> v(0) }
    val rp = rCols.map { case (id, v) => id -> v(0) }
    assert(DistanceTable.compute(spark, SingleColumnPipeline.toPairDF(spark, Seq.empty), lp, rp, ctxs(0)).isEmpty)
  }

  test("an id missing from the record maps fails with NoSuchElementException") {
    val (lr, _, lCols, rCols, ctxs) = tiny
    val missing = lr :+ ((-1L, lr.head._2))
    intercept[NoSuchElementException] {
      DistanceTable.computeMulti(spark, pairFrame(missing, 8), lCols, rCols, ctxs)
    }
  }

  /** Two-column records, one unshared `Prepped` per record and value. */
  private def records(values: Seq[(Long, Seq[String])]): Map[Long, Array[Prepped]] =
    values.map { case (id, v) => id -> v.map(Prepped(_)).toArray }.toMap

  private def contexts(maps: Map[Long, Array[Prepped]]*): Array[FeatureContext] =
    Array.tabulate(2)(c => FeatureContext.build(maps.flatMap(_.values.map(_(c)))))

  /** [[DistanceTable.columns]]' two-column tables of `lr` and `ll` against `vector` over one unshared
    * `Prepped` per record and value and a context per column over every
    * record, bit for bit, row by row in input order; None when they agree.
    * Also checks that the records it returns by id hold the input values.
    */
  private def columnsMismatch(l: Seq[(Long, Seq[String])], r: Seq[(Long, Seq[String])],
                              lr: Array[(Long, Long)], ll: Array[(Long, Long)]): Option[String] = {
    val lCols = records(l); val rCols = records(r)
    val ctxs = contexts(lCols, rCols)
    val out = DistanceTable.columns(2, l, r, lr, ll)
    def tableMismatch(name: String, got: Array[Array[PairDist]], pairs: Array[(Long, Long)],
                      right: Map[Long, Array[Prepped]]): Option[String] =
      if (got.length != ctxs.length) Some(s"$name: ${got.length} tables for ${ctxs.length} columns")
      else got.indices.iterator.flatMap { c =>
        if (got(c).length != pairs.length) Some(s"$name column $c: ${got(c).length} rows for ${pairs.length} pairs")
        else pairs.indices.iterator.collectFirst {
          case i if got(c)(i).leftId != pairs(i)._1 || got(c)(i).rightId != pairs(i)._2 ||
              !java.util.Arrays.equals(got(c)(i).d,
                DistanceTable.vector(lCols(pairs(i)._1)(c), right(pairs(i)._2)(c), ctxs(c))) =>
            s"$name column $c row $i ${pairs(i)} differs from vector"
        }
      }.nextOption()
    def prepMismatch(c: Int): Option[String] = {
      val (lp, rp) = out.prepped(c)
      val want = l.map(t => t._1 -> t._2(c)) ++ r.map(t => t._1 -> t._2(c))
      val got = l.map(t => t._1 -> lp(t._1)) ++ r.map(t => t._1 -> rp(t._1))
      want.zip(got).collectFirst {
        case ((id, v), (_, p)) if p.strs.toSeq != Prepped(v).strs.toSeq => s"column $c record $id holds ${p.strs(0)}"
      }
    }
    tableMismatch("L-R", out.lr, lr, rCols).orElse(tableMismatch("L-L", out.ll, ll, lCols))
      .orElse((0 until 2).iterator.flatMap(prepMismatch).nextOption())
  }

  test("columns on repeated values: rows bit-equal to vector, one vector per value pair") {
    val l = Seq(
      1L -> Seq("Foo", "red"), 2L -> Seq("foo", "red"), 3L -> Seq(null, "Red"),
      4L -> Seq("", "blue"), 5L -> Seq("Foo Bar", null), 6L -> Seq("foo", ""))
    val r = Seq(10L -> Seq("FOO", "red"), 11L -> Seq("", "blue"), 12L -> Seq(null, "red"), 13L -> Seq("foo bar", ""))
    val lr = (for (a <- 1L to 6L; b <- 10L to 13L) yield (a, b)).reverse.toArray
    val ll = (for (a <- 1L to 6L; b <- 1L to 6L if a != b) yield (a, b)).toArray
    assert(columnsMismatch(l, r, lr, ll).isEmpty)
    // Pairs share a vector exactly when their (strs(0), strs(0)) pairs are
    // equal: "Foo"/"foo"/"FOO" are one value, and so are null and "".
    val out = DistanceTable.columns(2, l, r, lr, ll)
    val (lCols, rCols) = (records(l), records(r))
    for ((tables, pairs, right) <- Seq((out.lr, lr, rCols), (out.ll, ll, lCols))) {
      (0 until 2).foreach { c =>
        val values = pairs.map { case (a, b) => (lCols(a)(c).strs(0), right(b)(c).strs(0)) }
        // Arrays compare by reference: this counts the vectors.
        assert(tables(c).map(_.d).distinct.length == values.distinct.length)
        assert(values.distinct.length < pairs.length)
      }
    }
  }

  test("columns rows are bit-equal to vector on values from a small alphabet (ScalaCheck)") {
    val alphabet = Seq("Foo", "foo", "FOO bar", "foo bar", "bar", null, "", "a-b c", "a b c", "St. Mary")
    val value = Gen.oneOf(alphabet)
    val recs = (from: Long) => Gen.choose(1, 10).flatMap(n =>
      Gen.listOfN(n, Gen.listOfN(2, value)).map(_.zipWithIndex.map { case (v, i) => (from + i) -> v }))
    def pairsOf(l: Seq[Long], r: Seq[Long]) = Gen.choose(0, 40).flatMap(k =>
      Gen.listOfN(k, Gen.zip(Gen.oneOf(l), Gen.oneOf(r))).map(_.toArray))
    val gen = for {
      l <- recs(1L)
      r <- recs(1000L)
      lr <- pairsOf(l.map(_._1), r.map(_._1))
      ll <- pairsOf(l.map(_._1), l.map(_._1))
    } yield (l, r, lr, ll)
    val prop = Prop.forAll(gen) { case (l, r, lr, ll) =>
      val bad = columnsMismatch(l, r, lr, ll)
      Prop(bad.isEmpty) :| bad.getOrElse("")
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  /** The Scala-set oracle: the statistics of two token sets from Scala
    * `Set`s, each weight sum taken in string order.
    */
  private def oracleStats(lt: Array[String], rt: Array[String], weight: String => Double): Distances.SetStats = {
    val ls = lt.toSet; val rs = rt.toSet
    def sum(set: Set[String]): Double = set.toSeq.sorted.foldLeft(0.0)(_ + weight(_))
    Distances.SetStats(sum(ls), sum(rs), sum(ls intersect rs), rs.subsetOf(ls))
  }

  /** The IDF weight of `tok` over the token sets `docs`. */
  private def idfOf(docs: Seq[Array[String]], tok: String): Double = {
    val n = math.max(docs.size, 1).toDouble
    val df = docs.count(_.contains(tok))
    if (df == 0) math.log(n) + 1.0 else math.log(n / df) + 1.0
  }

  /** All 140 distances of raw values `l` and `r` from the distance functions
    * themselves, with no `Prepped`: each variant from `Preprocess`, tokens
    * from `Tokenize`, the DP edit distance, the Scala-set oracle with IDF
    * over the records of `corpus`, and each variant's embedding.
    */
  private def oracleVector(l: String, r: String, corpus: Seq[String]): Array[Float] = {
    def variant(raw: String, p: Int) = Preprocess(p, Option(raw).getOrElse(""))
    if (variant(l, 0).isEmpty && variant(r, 0).isEmpty) return Array.fill(ConfigSpace.Size)(1f)
    def emb(s: String) = repro.embed.HashEmbedding.recordVector(Tokenize.space(s))
    val out = new Array[Float](ConfigSpace.Size)
    for (p <- 0 until ConfigSpace.NumPreproc) {
      val a = variant(l, p); val b = variant(r, p)
      val m = math.max(a.length, b.length)
      out(ConfigSpace.charId(p, 0)) = Distances.jaroWinkler(a, b).toFloat
      out(ConfigSpace.charId(p, 1)) = (if (m == 0) 0.0 else Distances.levenshteinDP(a, b).toDouble / m).toFloat
      for (t <- 0 until ConfigSpace.NumTok; w <- 0 until ConfigSpace.NumWeight) {
        val docs = corpus.map(c => Tokenize(t, variant(c, p)))
        val weight: String => Double = if (w == 0) _ => 1.0 else idfOf(docs, _)
        val stats = oracleStats(Tokenize(t, a), Tokenize(t, b), weight)
        for (d <- 0 until ConfigSpace.NumSetDist)
          out(ConfigSpace.setId(p, t, w, d)) = Distances.setDistance(d, stats).toFloat
      }
      out(ConfigSpace.embedId(p)) = repro.embed.HashEmbedding.cosineDistance(emb(a), emb(b)).toFloat
    }
    out
  }

  /** Variant p's 35 function ids. */
  private def variantIds(p: Int): Seq[Int] =
    (0 until ConfigSpace.Size).filter(ConfigSpace.decode(_).p == p)

  /** One column's L–R tables of every (l, r) and L–L tables of every
    * ordered pair of distinct left records, from the DataFrame
    * `computeMulti` and from `vector`, under a context over `corpus`, each
    * row bit-equal to [[oracleVector]]. Returns the number of rows whose
    * oracle distances under L+RP differ from those under L.
    */
  private def checkAgainstOracle(lVals: Seq[String], rVals: Seq[String], corpus: Seq[String]): Int = {
    val lCols = lVals.indices.map(i => i.toLong -> Array(Prepped(lVals(i)))).toMap
    val rCols = rVals.indices.map(i => (1000L + i) -> Array(Prepped(rVals(i)))).toMap
    val ctx = FeatureContext.build(corpus.map(Prepped(_)))
    val lIds = lVals.indices.map(_.toLong); val rIds = rVals.indices.map(1000L + _)
    val lr = for (l <- lIds; r <- rIds) yield (l, r)
    val ll = for (a <- lIds; b <- lIds if a != b) yield (a, b)
    val lrOut = DistanceTable.computeMulti(spark, pairFrame(lr, 2), lCols, rCols, Array(ctx))
    val llOut = DistanceTable.computeMulti(spark, pairFrame(ll, 2), lCols, lCols, Array(ctx))
    def raw(id: Long) = if (id >= 1000L) rVals((id - 1000L).toInt) else lVals(id.toInt)
    def rec(id: Long) = if (id >= 1000L) rCols(id)(0) else lCols(id)(0)
    def bits(x: Float) = java.lang.Float.floatToRawIntBits(x)
    val rows = lrOut(0) ++ llOut(0)
    assert(rows.map(p => (p.leftId, p.rightId)).toSeq == lr ++ ll)
    rows.count { row =>
      val want = oracleVector(raw(row.leftId), raw(row.rightId), corpus)
      for ((name, got) <- Seq("computeMulti" -> row.d, "vector" -> DistanceTable.vector(rec(row.leftId), rec(row.rightId), ctx))) {
        val bad = want.indices.filter(id => bits(got(id)) != bits(want(id)))
        assert(bad.isEmpty, s"$name (${raw(row.leftId)}, ${raw(row.rightId)}): " +
          bad.map(id => s"${ConfigSpace.decode(id).label} ${got(id)} vs ${want(id)}").mkString(", "))
      }
      variantIds(2).map(want(_)) != variantIds(0).map(want(_))
    }
  }

  /** Values with no punctuation, so L+RP equals L and L+S+RP equals L+S on
    * each; stemming changes some of them.
    */
  private val plainL = Seq("alpha beta", "Alpha Gamma 2008", "beta teams", "gamma", "", null)
  private val plainR = Seq("alpha bet", "gamma 2008", "Beta Team", null)

  test("variant aliasing: L+RP equal to L on every value, rows bit-equal to the per-function oracle") {
    assert((plainL ++ plainR).forall(v => Preprocess(2, Option(v).getOrElse("")) == Preprocess(0, Option(v).getOrElse(""))))
    checkAgainstOracle(plainL, plainR, plainL ++ plainR)
  }

  test("variant aliasing: one value with punctuation keeps L+RP apart from L") {
    val l = plainL :+ "Beta-Teams, Inc."
    val differ = checkAgainstOracle(l, plainR, l ++ plainR)
    assert(differ > 0, "some row's L+RP distances differ from its L distances")
  }

  test("variant aliasing: equal strings but a context whose L and L+RP IDF differ") {
    // The coded values alias; the corpus holds punctuated values, so the
    // IDF of L and of L+RP differ on their tokens.
    val corpus = plainL ++ plainR ++ Seq("alpha-beta", "gamma.2008", "beta/teams", "Alpha-Gamma")
    val differ = checkAgainstOracle(plainL, plainR, corpus)
    assert(differ > 0, "some row's L+RP distances differ from its L distances")
  }

  test("Prepped shares coinciding variants by reference; every field equals the per-variant construction") {
    val raws = Seq("alpha beta", "Baseball Teams", "St. Mary's", "a-b c", "Bulldogs!", null, "")
    var shared = 0
    for (raw <- raws) {
      val rec = Prepped(raw)
      val s = Option(raw).getOrElse("")
      for (p <- 0 until ConfigSpace.NumPreproc) {
        val str = Preprocess(p, s)
        assert(rec.strs(p) == str)
        for (t <- 0 until ConfigSpace.NumTok)
          assert(rec.toks(p * ConfigSpace.NumTok + t).sameElements(Tokenize(t, str)), s"$raw ($p, $t)")
        assert(rec.emb(p).sameElements(repro.embed.HashEmbedding.recordVector(Tokenize.space(str))))
        for (q <- 0 until p if Preprocess(q, s) == str) {
          shared += 1
          assert(rec.strs(q) eq rec.strs(p), s"$raw: strs($q) and strs($p)")
          for (t <- 0 until ConfigSpace.NumTok)
            assert(rec.toks(q * ConfigSpace.NumTok + t) eq rec.toks(p * ConfigSpace.NumTok + t), s"$raw: toks ($q, $t) and ($p, $t)")
          assert(rec.emb(q) eq rec.emb(p), s"$raw: emb($q) and emb($p)")
        }
      }
    }
    assert(shared > 0)
  }

  /** Per variant p, the first q ≤ p whose string equals p's on every one of
    * `recs`: the string-equality rule that [[Prepped.variantSources]] must
    * agree with on [[Prepped.apply]] records.
    */
  private def stringSources(recs: Seq[Prepped]): Seq[Int] =
    (0 until ConfigSpace.NumPreproc).map(p => (0 to p).find(q => recs.forall(r => r.strs(q) == r.strs(p))).get)

  /** One column's values on tiny's two sides and on each of BB's 16 columns. */
  private lazy val realColumns: Seq[(String, Seq[String])] = {
    val tinyTask = Benchmarks.tiny()
    val bb = repro.data.MultiColGen.generate(repro.data.MultiColGen.specs.find(_.name == "BB").get)
    assert(bb.nCols == 16)
    Seq("tiny" -> (tinyTask.left ++ tinyTask.right).map(_._2)) ++
      bb.columns.indices.map(c => s"BB ${bb.columns(c)}" -> (bb.left ++ bb.right).map(_._2(c)))
  }

  test("variantSources is string equality of variants on Prepped records; FeatureContext shares tables by it") {
    var aliased = 0
    for ((name, values) <- realColumns) {
      val recs = Prepped.interned(values).toSeq
      val sources = Prepped.variantSources(recs).toSeq
      assert(sources == stringSources(recs), name)
      recs.distinct.foreach(r => assert(Prepped.variantSources(Seq(r)).toSeq == stringSources(Seq(r)), s"$name: ${r.strs(0)}"))
      val ctx = FeatureContext.build(recs)
      for (p <- 0 until ConfigSpace.NumPreproc; q <- 0 until ConfigSpace.NumPreproc; t <- 0 until ConfigSpace.NumTok)
        assert((ctx.idfs(p * ConfigSpace.NumTok + t) eq ctx.idfs(q * ConfigSpace.NumTok + t)) == (sources(p) == sources(q)),
          s"$name: tables ($p, $t) and ($q, $t)")
      aliased += sources.indices.count(p => sources(p) < p)
    }
    assert(aliased > 0, "some column shares a variant")
  }

  test("variant aliasing: equal but separate L and L+RP arrays are not aliased, rows bit-equal to the oracle") {
    // Without punctuation, Prepped shares L+RP (p = 2) with L (p = 0).
    def copied(raw: String): Prepped = {
      val rec = Prepped(raw)
      val strs = rec.strs.clone; val toks = rec.toks.clone; val emb = rec.emb.clone
      strs(2) = new String(strs(0))
      (0 until ConfigSpace.NumTok).foreach(t => toks(2 * ConfigSpace.NumTok + t) = toks(t).clone)
      emb(2) = emb(0).clone
      Prepped(strs, toks, emb)
    }
    val corpus = plainL ++ plainR
    val recs = corpus.map(copied)
    assert(Prepped.variantSources(corpus.map(Prepped(_)))(2) == 0)
    assert(Prepped.variantSources(recs).toSeq == Seq(0, 1, 2, 1))
    val ctx = FeatureContext.build(recs)
    (0 until ConfigSpace.NumTok).foreach(t => assert(!(ctx.idfs(t) eq ctx.idfs(2 * ConfigSpace.NumTok + t))))
    def bits(v: Array[Float]) = v.toSeq.map(java.lang.Float.floatToRawIntBits)
    for (l <- plainL.indices; r <- plainR.indices)
      assert(bits(DistanceTable.vector(recs(l), recs(plainL.length + r), ctx)) ==
        bits(oracleVector(plainL(l), plainR(r), corpus)), s"(${plainL(l)}, ${plainR(r)})")
  }

  /** Records with the given token sets per (P, T); every string is "x", so
    * only the set slots differ between records.
    */
  private def tokRecord(toks: Array[Array[String]]): Prepped =
    Prepped(Array.fill(ConfigSpace.NumPreproc)("x"), toks,
      Array.fill(ConfigSpace.NumPreproc)(new Array[Float](repro.embed.HashEmbedding.Dim)))

  private val NumPT = ConfigSpace.NumPreproc * ConfigSpace.NumTok

  /** Sorted distinct token sets, possibly empty, over a pool whose string
    * order differs from its length order.
    */
  private def tokSets(pool: Seq[String]): Gen[Array[Array[String]]] =
    Gen.listOfN(NumPT, Gen.someOf(pool).map(_.toArray.sorted)).map(_.toArray)

  test("every set slot of vector equals a Scala-set oracle, bit for bit (ScalaCheck)") {
    val pool = Seq("a", "aa", "ab", "b", "ba", "bb", "c", "$$a", "z9", "Z", "é")
    // The context sees only part of the pool, so some tokens are unseen.
    val gen = for {
      l <- tokSets(pool)
      r <- tokSets(pool)
      corpus <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, tokSets(pool.take(6))))
    } yield (l, r, corpus)
    val prop = Prop.forAll(gen) { case (lt, rt, corpus) =>
      val ctx = FeatureContext.build(corpus.map(tokRecord))
      val v = DistanceTable.vector(tokRecord(lt), tokRecord(rt), ctx)
      (for {
        p <- 0 until ConfigSpace.NumPreproc
        t <- 0 until ConfigSpace.NumTok
        w <- 0 until ConfigSpace.NumWeight
        d <- 0 until ConfigSpace.NumSetDist
      } yield {
        val pt = p * ConfigSpace.NumTok + t
        val weight: String => Double = if (w == 0) _ => 1.0 else idfOf(corpus.map(_(pt)), _)
        val stats = oracleStats(lt(pt), rt(pt), weight)
        val want = Distances.setDistance(d, stats).toFloat
        val got = v(ConfigSpace.setId(p, t, w, d))
        // The merge's sums themselves, before rounding to float hides
        // a last-bit difference.
        val merged = Distances.setStats(lt(pt), rt(pt), if (w == 0) TokenWeights.equal else ctx.idfs(pt))
        def bits(x: Distances.SetStats) =
          (Seq(x.wl, x.wr, x.wInter).map(java.lang.Double.doubleToRawLongBits), x.rSubsetL)
        val label = ConfigSpace.decode(ConfigSpace.setId(p, t, w, d)).label
        (Prop(java.lang.Float.floatToRawIntBits(got) == java.lang.Float.floatToRawIntBits(want)) :|
          s"slot $label: $got vs $want") &&
          (Prop(bits(merged) == bits(stats)) :| s"stats of $label: $merged vs $stats")
      }).reduce(_ && _)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
