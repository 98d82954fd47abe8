package repro.core

/** Pre-processing options (the "P" axis of Figure 2 / Table 1).
  *
  * The paper's experiments use four combinations: L, L+S, L+RP, L+S+RP,
  * where L = lowercase, S = stemming, RP = remove punctuation. Combos are
  * applied in the order: lowercase, remove-punctuation, stem (stemming a
  * punctuation-free lowercase token stream is the conventional order).
  */
object Preprocess {

  /** Codes for the four combinations, indexed 0..3 in `ConfigSpace`. */
  val Codes: Vector[String] = Vector("L", "L+S", "L+RP", "L+S+RP")

  /** Lowercase. */
  def lower(s: String): String = s.toLowerCase

  /** Remove punctuation: every char that is neither letter, digit nor
    * whitespace becomes a space (so "St.Mary" splits rather than fuses),
    * then runs of whitespace collapse.
    */
  def removePunct(s: String): String = {
    val sb = new StringBuilder(s.length)
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      if (Character.isLetterOrDigit(c) || Character.isWhitespace(c)) sb.append(c)
      else sb.append(' ')
      i += 1
    }
    collapseSpaces(sb.toString)
  }

  /** Collapse runs of whitespace to single spaces and trim. */
  def collapseSpaces(s: String): String =
    s.split("\\s+").filter(_.nonEmpty).mkString(" ")

  /** Word-by-word stemming with a light Porter-style suffix stripper. */
  def stem(s: String): String =
    s.split("\\s+").filter(_.nonEmpty).map(Stemmer.stem).mkString(" ")

  /** Apply combination `p` (index into [[Codes]]). */
  def apply(p: Int, s: String): String = p match {
    case 0 => lower(s)
    case 1 => stem(lower(s))
    case 2 => removePunct(lower(s))
    case 3 => stem(removePunct(lower(s)))
    case other => throw new IllegalArgumentException(s"no preprocessing combo $other")
  }

  /** All four preprocessed variants of `s`, indexed by combo: `apply(p, s)`
    * at each `p`, lower-casing once and stemming once when removing
    * punctuation changes nothing.
    */
  def allVariants(s: String): Array[String] = {
    val l = lower(s)
    val ls = stem(l)
    val lrp = removePunct(l)
    Array(l, ls, lrp, if (lrp == l) ls else stem(lrp))
  }
}

/** A small deterministic Porter-style stemmer (steps 1a/1b plus common
  * derivational suffixes). Full Porter is unnecessary: the paper only needs
  * "baseball"/"basebal", "Bulldogs"/"Bulldog" style conflation; what matters
  * is that the same rules apply to L and R identically.
  */
object Stemmer {

  private def isVowel(c: Char): Boolean = "aeiou".indexOf(c) >= 0

  private def hasVowel(w: String): Boolean = w.exists(isVowel)

  def stem(wordRaw: String): String = {
    val w = wordRaw
    if (w.length <= 3 || !w.forall(c => c >= 'a' && c <= 'z')) return w
    var s = w
    // Step 1a — plurals.
    if (s.endsWith("sses")) s = s.dropRight(2)
    else if (s.endsWith("ies")) s = s.dropRight(2)
    else if (!s.endsWith("ss") && s.endsWith("s") && hasVowel(s.dropRight(1))) s = s.dropRight(1)
    // Step 1b — -ed / -ing.
    if (s.length > 4 && s.endsWith("ing") && hasVowel(s.dropRight(3))) s = s.dropRight(3)
    else if (s.length > 3 && s.endsWith("ed") && hasVowel(s.dropRight(2))) s = s.dropRight(2)
    // Undouble trailing consonant left by 1b ("stopp" -> "stop").
    if (s.length > 3 && s.length >= 2 && s.last == s.charAt(s.length - 2) &&
        !isVowel(s.last) && "lsz".indexOf(s.last) < 0) s = s.dropRight(1)
    // Common derivational suffixes.
    if (s.length > 6 && s.endsWith("ational")) s = s.dropRight(7) + "ate"
    else if (s.length > 5 && s.endsWith("iveness")) s = s.dropRight(4)
    else if (s.length > 5 && s.endsWith("fulness")) s = s.dropRight(4)
    else if (s.length > 4 && s.endsWith("ment")) s = s.dropRight(4)
    // Trailing e (length-guarded so "game" -> "game" but "baseballe" -> "baseball").
    if (s.length > 4 && s.endsWith("e") && !s.endsWith("ee")) s = s.dropRight(1)
    if (s.isEmpty) w else s
  }
}
