package repro.core

import org.scalatest.funsuite.AnyFunSuite

class WeightsSpec extends AnyFunSuite {

  test("equal weights: every token weighs 1") {
    assert(TokenWeights.equal("anything") == 1.0)
    assert(Array("a", "b", "c").map(TokenWeights.equal(_)).sum == 3.0)
  }

  test("idf: rarer tokens weigh more") {
    val docs = Seq(Array("a", "b"), Array("a", "c"), Array("a", "d"))
    val w = TokenWeights.idf(docs)
    assert(w("b") > w("a"))
    assert(w("c") == w("b"))
  }

  test("idf of a token in every document is 1 (ln(1)+1)") {
    val docs = Seq(Array("a"), Array("a"))
    assert(math.abs(TokenWeights.idf(docs)("a") - 1.0) < 1e-12)
  }

  test("idf formula ln(N/df)+1") {
    val docs = Seq(Array("a", "b"), Array("a"), Array("a"), Array("a"))
    val w = TokenWeights.idf(docs)
    assert(math.abs(w("b") - (math.log(4.0) + 1.0)) < 1e-12)
  }

  test("unseen token gets the df=1 weight") {
    val docs = Seq(Array("a"), Array("a"), Array("a"))
    val w = TokenWeights.idf(docs)
    assert(math.abs(w("zzz") - (math.log(3.0) + 1.0)) < 1e-12)
  }

  test("sum adds weights of the array") {
    val docs = Seq(Array("a", "b"), Array("a"))
    val w = TokenWeights.idf(docs)
    assert(math.abs(Array("a", "b").map(w(_)).sum - (math.log(2.0) + 1.0 + 1.0)) < 1e-12)
  }

  test("idf of empty corpus does not crash") {
    val w = TokenWeights.idf(Seq.empty)
    assert(w("x") > 0)
  }

  test("codes enumerate EW and IDFW") {
    assert(TokenWeights.Codes == Vector("EW", "IDFW"))
  }
}
