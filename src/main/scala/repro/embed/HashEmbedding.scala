package repro.embed

import scala.util.hashing.MurmurHash3

/** Deterministic substitute for pretrained word embeddings (GloVe/spaCy).
  *
  * The offline container ships no pretrained vectors, so the "GED" arm of
  * the configuration space (Table 1) is backed by feature-hashed character
  * trigram vectors: each word maps to a `Dim`-dimensional unit vector whose
  * coordinates are signed hashes of its padded trigrams; a record maps to
  * the mean of its word vectors. This preserves what the paper
  * needs from the embedding arm — a dense distance correlated with surface
  * form yet distinct from both token-set overlap and edit distance — while
  * staying fully deterministic (same input, same vector, every run).
  */
object HashEmbedding {

  val Dim = 64

  /** Unit vector for one word (zero vector for the empty word). */
  def wordVector(word: String): Array[Float] = {
    val v = new Array[Float](Dim)
    if (word.isEmpty) return v
    val padded = "^" + word + "$"
    var i = 0
    val q = 3
    val upper = math.max(1, padded.length - q + 1)
    while (i < upper) {
      val g = padded.substring(i, math.min(i + q, padded.length))
      val h = MurmurHash3.stringHash(g, 0x9747b28c)
      val idx = math.floorMod(h, Dim)
      val sign = if (((h >>> 16) & 1) == 0) 1f else -1f
      v(idx) += sign
      i += 1
    }
    normalize(v)
  }

  /** Mean of word vectors, normalized; zero for empty input. */
  def recordVector(words: Array[String]): Array[Float] = {
    val v = new Array[Float](Dim)
    var i = 0
    while (i < words.length) {
      val wv = wordVector(words(i))
      var j = 0
      while (j < Dim) { v(j) += wv(j); j += 1 }
      i += 1
    }
    normalize(v)
  }

  /** Cosine distance mapped to [0, 1]: (1 - cos) / 2; two zero vectors are
    * maximally distant (missing values compare as distance 1).
    */
  def cosineDistance(a: Array[Float], b: Array[Float]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < Dim) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0.0 || nb == 0.0) 1.0
    else math.min(1.0, math.max(0.0, (1.0 - dot / math.sqrt(na * nb)) / 2.0))
  }

  private def normalize(v: Array[Float]): Array[Float] = {
    var n = 0.0; var i = 0
    while (i < Dim) { n += v(i) * v(i); i += 1 }
    if (n > 0) {
      val inv = (1.0 / math.sqrt(n)).toFloat
      i = 0
      while (i < Dim) { v(i) *= inv; i += 1 }
    }
    v
  }
}
