package repro.core

/** Algorithm 2: learning and applying negative rules.
  *
  * Two reference records that differ by exactly one word on each side
  * (|W(l₁)\W(l₂)| = |W(l₂)\W(l₁)| = 1) yield a rule "a ≠ b" — they are
  * distinct entities of the same type distinguished by that word pair
  * ("baseball" ≠ "football", "2007" ≠ "2008"). An L–R candidate pair whose
  * word sets differ by exactly a learned pair is discarded before the join.
  *
  * Records are normalized (lowercase, punctuation removal, stemming — the
  * paper's Line 1) before word-set comparison. Rules are unordered.
  */
object NegativeRules {

  /** An unordered "a ≠ b" word pair, stored with a <= b. */
  final case class Rule(a: String, b: String)

  object Rule {
    def of(x: String, y: String): Rule = if (x <= y) Rule(x, y) else Rule(y, x)
  }

  /** Normalized word set of a record (L, RP, S — Algorithm 2, Line 1). */
  def wordSet(s: String): Set[String] =
    Preprocess.apply(3, Option(s).getOrElse("")).split(" ").filter(_.nonEmpty).toSet

  /** The single-word differences of two word sets, if both are singletons. */
  private def singletonDiff(w1: Set[String], w2: Set[String]): Option[(String, String)] = {
    val d1 = w1 diff w2
    val d2 = w2 diff w1
    if (d1.size == 1 && d2.size == 1) Some((d1.head, d2.head)) else None
  }

  /** Learn rules from L–L candidate pairs (Lines 2–7). */
  def learn(llPairs: Iterable[(String, String)]): Set[Rule] =
    learnWords(llPairs.iterator.map { case (l1, l2) => (wordSet(l1), wordSet(l2)) })

  /** [[learn]] over the pairs' word sets, for callers that build each
    * record's [[wordSet]] once.
    */
  def learnWords(llPairs: Iterator[(Set[String], Set[String])]): Set[Rule] =
    llPairs.flatMap { case (w1, w2) =>
      singletonDiff(w1, w2).map { case (a, b) => Rule.of(a, b) }
    }.toSet

  /** True if the (l, r) pair violates a learned rule (Lines 8–12): the pair
    * should be removed from the candidate set.
    */
  def violates(rules: Set[Rule], l: String, r: String): Boolean =
    violates(rules, wordSet(l), wordSet(r))

  /** [[violates]] over the records' word sets. */
  def violates(rules: Set[Rule], l: Set[String], r: Set[String]): Boolean =
    singletonDiff(l, r).exists { case (a, b) => rules.contains(Rule.of(a, b)) }

  /** Each record's [[wordSet]], by id. */
  private[core] def wordSets(recs: Seq[(Long, String)]): Map[Long, Set[String]] =
    recs.iterator.map { case (id, t) => id -> wordSet(t) }.toMap

  /** Whether a (leftId, rightId) pair violates no rule, over L's word sets
    * `lWords` and those of the `right` records, built here once per record.
    */
  private[core] def survives(
      rules: Set[Rule], lWords: Map[Long, Set[String]], right: Seq[(Long, String)]): (Long, Long) => Boolean = {
    val rWords = wordSets(right)
    (l, r) => !violates(rules, lWords(l), rWords(r))
  }
}
