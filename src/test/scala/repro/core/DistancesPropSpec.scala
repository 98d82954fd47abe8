package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import Prop.forAll

/** Property tests (ScalaCheck): every distance is a [0,1]-valued
  * dissimilarity with identity on its own representation; symmetric
  * functions are symmetric; metric-ish bounds hold.
  */
object DistancesPropSpec extends Properties("Distances") {

  private val word: Gen[String] = Gen.choose(1, 8).flatMap(n =>
    Gen.listOfN(n, Gen.alphaLowerChar).map(_.mkString))
  private val sentence: Gen[String] = Gen.choose(1, 6).flatMap(n =>
    Gen.listOfN(n, word).map(_.mkString(" ")))

  property("levenshtein symmetric and bounded") = forAll(sentence, sentence) { (a, b) =>
    val d = Distances.levenshtein(a, b)
    d == Distances.levenshtein(b, a) &&
      d >= math.abs(a.length - b.length) &&
      d <= math.max(a.length, b.length)
  }

  // Letters, space and punctuation are ASCII; "é" and U+1F600 (a surrogate
  // pair) are not, so a pattern holding one takes the DP path.
  private val asciiChar: Gen[Char] =
    Gen.frequency(8 -> Gen.alphaChar, 2 -> Gen.const(' '), 1 -> Gen.oneOf(".,-'&()/".toSeq))
  private val anyChunk: Gen[String] =
    Gen.frequency(12 -> asciiChar.map(_.toString), 1 -> Gen.const("é"), 1 -> Gen.const("\uD83D\uDE00"))

  /** 0–130 UTF-16 chars, all ASCII or mixed. */
  private val text: Gen[String] = for {
    n <- Gen.choose(0, 130)
    chunk <- Gen.oneOf(asciiChar.map(_.toString), anyChunk)
    s <- Gen.listOfN(n, chunk)
  } yield s.mkString.take(130)

  /** `s` after up to 8 ASCII insertions, deletions or substitutions. */
  private def edited(s: String): Gen[String] =
    Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0, 2), Gen.choose(0, 1000), asciiChar))).map {
      _.foldLeft(s) { case (t, (op, at, c)) =>
        val i = at % (t.length + 1)
        // StringOps.patch needs the replaced count within the string.
        val one = math.min(1, t.length - i)
        op match {
          case 0 => t.patch(i, c.toString, 0)
          case 1 => t.patch(i, "", one)
          case _ => t.patch(i, c.toString, one)
        }
      }
    }

  private val textPair: Gen[(String, String)] =
    Gen.frequency(1 -> Gen.zip(text, text), 2 -> text.flatMap(a => edited(a).map((a, _))))

  private def agreesWithDP(a: String, b: String): Boolean = {
    val want = Distances.levenshteinDP(a, b)
    Distances.levenshtein(a, b) == want && Distances.levenshtein(b, a) == want
  }

  /** Jaro is not symmetric char by char, so each order has its own scan. */
  private def agreesWithScan(a: String, b: String): Boolean = {
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    bits(Distances.jaro(a, b)) == bits(Distances.jaroScan(a, b)) &&
      bits(Distances.jaro(b, a)) == bits(Distances.jaroScan(b, a))
  }

  property("levenshtein equals the DP on 0-130 chars, ASCII or not, in both orders") =
    forAll(Gen.listOfN(10, textPair)) { pairs =>
      pairs.forall { case (a, b) => agreesWithDP(a, b) }
    }

  property("jaro equals the window scan on 0-130 chars, ASCII or not, in both orders") =
    forAll(Gen.listOfN(10, textPair)) { pairs =>
      pairs.forall { case (a, b) => agreesWithScan(a, b) }
    }

  property("levenshtein and jaro equal their references at 63, 64 and 65 chars") = {
    val cases = for {
      n <- Seq(63, 64, 65)
      a = Seq.tabulate(n)(i => ('a' + i * 7 % 26).toChar).mkString
      b <- Seq(a.reverse, a.tail, a + "x", "x" + a, a.updated(n - 1, '#'), a.updated(0, '#'),
               a.take(n / 2) + a.drop(n / 2 + 1), "x" * n, "x" * (n + 20), a.tail + "é", a + a)
    } yield (a, b)
    Prop(cases.forall { case (a, b) => agreesWithDP(a, b) && agreesWithScan(a, b) })
  }

  property("levenshtein triangle inequality") = forAll(word, word, word) { (a, b, c) =>
    Distances.levenshtein(a, c) <=
      Distances.levenshtein(a, b) + Distances.levenshtein(b, c)
  }

  property("editDistance in [0,1], zero iff equal") = forAll(sentence, sentence) { (a, b) =>
    val d = Distances.editDistance(a, b)
    d >= 0.0 && d <= 1.0 && ((d == 0.0) == (a == b))
  }

  property("jaro similarity in [0,1], symmetric, 1 on equal") = forAll(word, word) { (a, b) =>
    val s = Distances.jaro(a, b)
    s >= 0.0 && s <= 1.0 &&
      math.abs(s - Distances.jaro(b, a)) < 1e-12 &&
      (a != b || s == 1.0)
  }

  property("jaroWinkler distance in [0,1]") = forAll(word, word) { (a, b) =>
    val d = Distances.jaroWinkler(a, b)
    d >= -1e-12 && d <= 1.0 + 1e-12
  }

  property("set distances in [0,1], zero on identical non-empty sets (ID floors at 1/2)") =
    forAll(Gen.nonEmptyListOf(word), Gen.nonEmptyListOf(word)) { (la, lb) =>
      val a = la.distinct.sorted.toArray
      val b = lb.distinct.sorted.toArray
      val s = Distances.setStats(a, b, TokenWeights.equal)
      val self = Distances.setStats(a, a, TokenWeights.equal)
      (0 until 8).forall { d =>
        val x = Distances.setDistance(d, s)
        val selfExpected = if (d == 4) 0.5 else 0.0
        x >= 0.0 && x <= 1.0 && Distances.setDistance(d, self) == selfExpected
      }
    }

  property("symmetric set distances (JD CD MD DD ID) are symmetric") =
    forAll(Gen.listOf(word), Gen.listOf(word)) { (la, lb) =>
      val a = la.distinct.sorted.toArray
      val b = lb.distinct.sorted.toArray
      val ab = Distances.setStats(a, b, TokenWeights.equal)
      val ba = Distances.setStats(b, a, TokenWeights.equal)
      (0 until 5).forall(d =>
        math.abs(Distances.setDistance(d, ab) - Distances.setDistance(d, ba)) < 1e-12)
    }

  property("intersection weight bounded by both sides") =
    forAll(Gen.listOf(word), Gen.listOf(word)) { (la, lb) =>
      val s = Distances.setStats(la.distinct.sorted.toArray, lb.distinct.sorted.toArray,
        TokenWeights.equal)
      s.wInter <= s.wl + 1e-12 && s.wInter <= s.wr + 1e-12
    }

  property("distance ordering JD >= DD >= CD under equal weights") =
    forAll(Gen.nonEmptyListOf(word), Gen.nonEmptyListOf(word)) { (la, lb) =>
      val s = Distances.setStats(la.distinct.sorted.toArray, lb.distinct.sorted.toArray,
        TokenWeights.equal)
      Distances.jaccard(s) >= Distances.dice(s) - 1e-12 &&
        Distances.dice(s) >= Distances.cosineSet(s) - 1e-12
    }

  property("stemmer is idempotent-ish: stemming twice = stemming once for plain words") =
    forAll(word) { w =>
      val once = Stemmer.stem(w)
      Stemmer.stem(once) == Stemmer.stem(once)
    }

  property("prepped distance vector: zero on identical records (ID slots at 1/2)") =
    forAll(sentence) { s =>
      val p = Prepped(s)
      val ctx = FeatureContext.build(Seq(p))
      val v = DistanceTable.vector(p, p, ctx)
      v.indices.forall { id =>
        val jf = ConfigSpace.decode(id)
        val expectZero = !(jf.kind == ConfigSpace.SetKind && jf.d == 4)
        v(id) >= 0.0f && v(id) <= 1.0f &&
          (if (expectZero) v(id) <= 1e-6f else math.abs(v(id) - 0.5f) <= 1e-6f)
      }
    }

  property("prepped distance vector within range for distinct records") =
    forAll(sentence, sentence) { (a, b) =>
      val pa = Prepped(a); val pb = Prepped(b)
      val ctx = FeatureContext.build(Seq(pa, pb))
      DistanceTable.vector(pa, pb, ctx).forall(d => d >= -1e-6f && d <= 1.0f + 1e-6f)
    }
}
