package repro.core

import org.scalatest.funsuite.AnyFunSuite

class DistancesSpec extends AnyFunSuite {

  private def statsEq(l: Seq[String], r: Seq[String]) =
    Distances.setStats(l.sorted.toArray, r.sorted.toArray, TokenWeights.equal)

  // ---- the worked example of Figure 2 (equal weights) -----------------
  private val figL = Seq("2012", "tigers", "lsu", "baseball", "team")
  private val figR = Seq("2012", "lsu", "baseball", "team")
  private val fig = statsEq(figL, figR)

  test("Figure 2: JD = 0.2")(assert(math.abs(Distances.jaccard(fig) - 0.2) < 1e-9))
  test("Figure 2: CD ≈ 0.11")(assert(math.abs(Distances.cosineSet(fig) - (1 - 4 / math.sqrt(20))) < 1e-9))
  test("Figure 2: MD = 0")(assert(Distances.maxInclude(fig) == 0.0))
  test("Figure 2: DD ≈ 0.11")(assert(math.abs(Distances.dice(fig) - (1 - 8.0 / 9)) < 1e-9))
  test("Figure 2: ID ≈ 0.56")(assert(math.abs(Distances.intersection(fig) - (1 - 4.0 / 9)) < 1e-9))

  test("Contain-Jaccard equals Jaccard when r ⊆ l") {
    assert(fig.rSubsetL)
    assert(Distances.containJaccard(fig) == Distances.jaccard(fig))
    assert(Distances.containCosine(fig) == Distances.cosineSet(fig))
    assert(Distances.containDice(fig) == Distances.dice(fig))
  }
  test("Contain-* is 1 when r has extra tokens") {
    val s = statsEq(Seq("a", "b"), Seq("a", "z"))
    assert(!s.rSubsetL)
    assert(Distances.containJaccard(s) == 1.0)
    assert(Distances.containCosine(s) == 1.0)
    assert(Distances.containDice(s) == 1.0)
  }

  // ---- setStats ---------------------------------------------------------
  test("setStats computes weights and intersection") {
    val s = statsEq(Seq("a", "b", "c"), Seq("b", "c", "d"))
    assert(s.wl == 3.0 && s.wr == 3.0 && s.wInter == 2.0 && !s.rSubsetL)
  }
  test("setStats with IDF weights") {
    val w = TokenWeights.idf(Seq(Array("a", "b"), Array("a")))
    val s = Distances.setStats(Array("a", "b"), Array("a"), w)
    assert(math.abs(s.wInter - w("a")) < 1e-12)
    assert(math.abs(s.wl - (w("a") + w("b"))) < 1e-12)
  }
  test("identical sets give zero distance (except ID, whose floor is 1/2)") {
    val s = statsEq(Seq("x", "y"), Seq("x", "y"))
    Seq(0, 1, 2, 3, 5, 6, 7).foreach(d => assert(Distances.setDistance(d, s) == 0.0, s"dist $d"))
    // Intersection distance 1 - i/(wl+wr) bottoms out at 0.5 — consistent
    // with Figure 2's ID = 0.56 for a near-identical pair.
    assert(Distances.intersection(s) == 0.5)
  }
  test("disjoint sets give distance 1 for JD/CD/MD/DD and Contain-*") {
    val s = statsEq(Seq("a"), Seq("b"))
    Seq(0, 1, 2, 3, 5, 6, 7).foreach(d => assert(Distances.setDistance(d, s) == 1.0, s"dist $d"))
  }
  test("both-empty sets are maximally distant (missing values)") {
    val s = statsEq(Seq.empty, Seq.empty)
    (0 until 8).foreach(d => assert(Distances.setDistance(d, s) == 1.0, s"dist $d"))
  }
  test("invalid set distance index throws") {
    intercept[IllegalArgumentException](Distances.setDistance(8, fig))
  }

  // ---- levenshtein / edit ------------------------------------------------
  test("levenshtein kitten→sitting = 3")(assert(Distances.levenshtein("kitten", "sitting") == 3))
  test("levenshtein identical = 0")(assert(Distances.levenshtein("abc", "abc") == 0))
  test("levenshtein to empty = length")(assert(Distances.levenshtein("abc", "") == 3))
  test("levenshtein symmetric")(
    assert(Distances.levenshtein("flaw", "lawn") == Distances.levenshtein("lawn", "flaw")))
  test("editDistance normalizes by longer length") {
    assert(math.abs(Distances.editDistance("kitten", "sitting") - 3.0 / 7) < 1e-12)
  }
  test("editDistance of two empties is 0")(assert(Distances.editDistance("", "") == 0.0))
  test("editDistance in [0,1]") {
    assert(Distances.editDistance("abc", "xyz") == 1.0)
  }

  // ---- jaro / jaro-winkler -----------------------------------------------
  test("jaro MARTHA/MARHTA = 0.944...") {
    assert(math.abs(Distances.jaro("martha", "marhta") - 0.9444444444) < 1e-6)
  }
  test("jaro DWAYNE/DUANE = 0.822...") {
    assert(math.abs(Distances.jaro("dwayne", "duane") - 0.8222222222) < 1e-6)
  }
  test("jaroWinkler MARTHA/MARHTA distance = 1 - 0.9611") {
    assert(math.abs(Distances.jaroWinkler("martha", "marhta") - (1 - 0.9611111111)) < 1e-6)
  }
  test("jaroWinkler identical = 0")(assert(Distances.jaroWinkler("abc", "abc") == 0.0))
  test("jaroWinkler vs empty = 1")(assert(Distances.jaroWinkler("abc", "") == 1.0))
  test("jaro no common chars = 0 similarity")(assert(Distances.jaro("ab", "cd") == 0.0))

  // ---- Figure 3(b) intuition: roman numerals defeat small edit distances --
  test("adjacent roman numeral events are 1-2 edits apart") {
    val a = "super bowl xx championship game"
    val b = "super bowl xxi championship game"
    assert(Distances.levenshtein(a, b) <= 2)
  }
}
