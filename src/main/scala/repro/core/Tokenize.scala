package repro.core

/** Tokenization options (the "T" axis of Figure 2 / Table 1).
  *
  * Index 0 = character 3-grams over the `$$`-padded string (the paper's
  * example for "2008 lsu baseball team" yields {"$$2", "$20", "200", ...,
  * "m$$"}), index 1 = whitespace tokenization. Tokens are returned as a
  * *set* (sorted, distinct) — the paper treats tokenized records as
  * weighted sets.
  */
object Tokenize {

  val Codes: Vector[String] = Vector("3G", "SP")

  /** Character 3-grams of the `$$`-padded string, distinct and sorted. */
  def ngrams(s: String): Array[String] = {
    if (s.isEmpty) return Array.empty
    val padded = "$$" + s + "$$"
    val out = new scala.collection.mutable.TreeSet[String]
    var i = 0
    while (i + 3 <= padded.length) { out += padded.substring(i, i + 3); i += 1 }
    out.toArray
  }

  /** Whitespace tokens, distinct and sorted. */
  def space(s: String): Array[String] =
    s.split("\\s+").filter(_.nonEmpty).distinct.sorted

  /** Apply tokenizer `t` (index into [[Codes]]). */
  def apply(t: Int, s: String): Array[String] = t match {
    case 0 => ngrams(s)
    case 1 => space(s)
    case other => throw new IllegalArgumentException(s"no tokenizer $other")
  }
}
