package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TokenizeSpec extends AnyFunSuite {

  test("3-grams of padded string include boundary grams (Figure 2)") {
    val g = Tokenize.ngrams("2008 lsu").toSet
    assert(g.contains("$$2"))
    assert(g.contains("$20"))
    assert(g.contains("200"))
    assert(g.contains("008"))
    assert(g.contains("su$"))
    assert(g.contains("u$$"))
  }
  test("3-grams are distinct and sorted") {
    val g = Tokenize.ngrams("aaaa")
    assert(g.toVector == g.toVector.sorted)
    assert(g.toVector == g.distinct.toVector)
  }
  test("3-grams of empty string are empty")(assert(Tokenize.ngrams("").isEmpty))
  test("3-grams of single char has 3 grams") {
    // "$$a$$" -> $$a, $a$, a$$
    assert(Tokenize.ngrams("a").toSet == Set("$$a", "$a$", "a$$"))
  }
  test("space tokens split on whitespace") {
    assert(Tokenize.space("2008 lsu baseball team").toSet ==
      Set("2008", "lsu", "baseball", "team"))
  }
  test("space tokens are distinct") {
    assert(Tokenize.space("a a b").toVector == Vector("a", "b"))
  }
  test("space tokens are sorted") {
    val t = Tokenize.space("z a m")
    assert(t.toVector == t.toVector.sorted)
  }
  test("space tokens of empty string are empty")(assert(Tokenize.space("").isEmpty))
  test("apply dispatches by index") {
    assert(Tokenize(0, "ab").sameElements(Tokenize.ngrams("ab")))
    assert(Tokenize(1, "a b").sameElements(Tokenize.space("a b")))
  }
  test("invalid tokenizer throws")(intercept[IllegalArgumentException](Tokenize(2, "x")))
  test("multiple spaces handled")(assert(Tokenize.space("a   b").toVector == Vector("a", "b")))
  test("3-gram count is len + q - 1 for distinct-gram strings") {
    // padded length len+4, grams = len+4-3+1 = len+2
    assert(Tokenize.ngrams("abcde").length == 7)
  }
}
