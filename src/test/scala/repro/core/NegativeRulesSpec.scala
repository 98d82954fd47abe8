package repro.core

import org.scalatest.funsuite.AnyFunSuite

class NegativeRulesSpec extends AnyFunSuite {

  private val L = Seq(
    "2008 LSU Tigers baseball team",
    "2008 LSU Tigers football team",
    "2007 Wisconsin Badgers football team",
    "2008 Wisconsin Badgers football team",
  )

  test("wordSet normalizes (lowercase, punctuation, stemming)") {
    assert(NegativeRules.wordSet("The Bulldogs' Team!") ==
      Preprocess.apply(3, "The Bulldogs' Team!").split(" ").toSet)
  }

  test("learn the paper's rules: baseball ≠ football, 2007 ≠ 2008") {
    val rules = NegativeRules.learn(Seq((L(0), L(1)), (L(2), L(3))))
    assert(rules.contains(NegativeRules.Rule.of("baseball", "football")))
    assert(rules.contains(NegativeRules.Rule.of("2007", "2008")))
    assert(rules.size == 2)
  }

  test("no rule when word sets differ by more than one word each side") {
    val rules = NegativeRules.learn(Seq((
      "2008 LSU Tigers baseball team",
      "2007 LSU Tigers football team"))) // two diffs
    assert(rules.isEmpty)
  }

  test("no rule from identical records") {
    assert(NegativeRules.learn(Seq((L(0), L(0)))).isEmpty)
  }

  test("rules are unordered") {
    assert(NegativeRules.Rule.of("b", "a") == NegativeRules.Rule.of("a", "b"))
  }

  test("violates blocks the Figure 3(a) false positives") {
    val rules = NegativeRules.learn(Seq((L(0), L(1)), (L(2), L(3))))
    // (l6, r6): same up to football/baseball.
    assert(NegativeRules.violates(rules,
      "2007 LSU Tigers football team", "2007 LSU Tigers baseball team"))
    // (l7, r7): same up to 2007/2008.
    assert(NegativeRules.violates(rules,
      "2007 Wisconsin Badgers football team", "2008 Wisconsin Badgers football team"))
  }

  test("violates does not block typo variants") {
    val rules = NegativeRules.learn(Seq((L(0), L(1))))
    // "basebal" (typo) ≠ "football" is not a learned pair.
    assert(!NegativeRules.violates(rules,
      "2008 LSU Tigers baseball team", "2008 LSU Tigers basebal team"))
  }

  test("violates is false when diffs are not singletons") {
    val rules = Set(NegativeRules.Rule.of("baseball", "football"))
    assert(!NegativeRules.violates(rules,
      "2008 LSU Tigers baseball team", "2007 LSU Tigers football squad"))
  }

  test("stemming conflates plural variants before the diff") {
    // "Bulldogs" vs "Bulldog" stem identically, so no spurious rule.
    val rules = NegativeRules.learn(Seq((
      "Mississippi State Bulldogs baseball",
      "Mississippi State Bulldog baseball")))
    assert(rules.isEmpty)
  }

  test("learn handles punctuation-only differences without a rule") {
    assert(NegativeRules.learn(Seq(("St. Mary Hospital", "St Mary Hospital"))).isEmpty)
  }
}
