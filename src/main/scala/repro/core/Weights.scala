package repro.core

/** Token weighting options (the "W" axis of Figure 2 / Table 1).
  *
  * - Equal weights (EW): every token weighs 1.
  * - IDF weights (IDFW): `ln(N / df) + 1` over the document frequencies of
  *   a corpus (here: the tokenized `L ∪ R` for the (P, T) combo in play).
  *   Unseen tokens get the weight of a df=1 token.
  */
final class TokenWeights private (idf: Map[String, Double], unseen: Double) {
  def apply(tok: String): Double = idf.getOrElse(tok, unseen)
}

object TokenWeights {

  val Codes: Vector[String] = Vector("EW", "IDFW")

  /** All tokens weigh 1.0. */
  val equal: TokenWeights = new TokenWeights(Map.empty, 1.0)

  /** IDF weights from per-document distinct token arrays. */
  def idf(docs: Iterable[Array[String]]): TokenWeights = {
    val df = new scala.collection.mutable.HashMap[String, Int]
    var n = 0
    docs.foreach { toks =>
      n += 1
      toks.foreach(t => df.update(t, df.getOrElse(t, 0) + 1))
    }
    val nn = math.max(n, 1)
    val m = df.iterator.map { case (t, d) => t -> (math.log(nn.toDouble / d) + 1.0) }.toMap
    new TokenWeights(m, math.log(nn.toDouble) + 1.0)
  }
}
