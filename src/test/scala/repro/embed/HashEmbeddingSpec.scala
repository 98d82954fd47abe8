package repro.embed

import org.scalatest.funsuite.AnyFunSuite

class HashEmbeddingSpec extends AnyFunSuite {

  test("word vectors are deterministic") {
    assert(HashEmbedding.wordVector("baseball").toSeq == HashEmbedding.wordVector("baseball").toSeq)
  }

  test("word vectors are unit length (non-empty words)") {
    val v = HashEmbedding.wordVector("tigers")
    val norm = math.sqrt(v.map(x => x.toDouble * x).sum)
    assert(math.abs(norm - 1.0) < 1e-5)
  }

  test("empty word maps to the zero vector") {
    assert(HashEmbedding.wordVector("").forall(_ == 0f))
  }

  test("identical records have distance 0") {
    val a = HashEmbedding.recordVector(Array("lsu", "tigers"))
    assert(HashEmbedding.cosineDistance(a, a) < 1e-6)
  }

  test("similar surface forms are closer than unrelated words") {
    val base = HashEmbedding.wordVector("baseball")
    val typo = HashEmbedding.wordVector("basebal")
    val far = HashEmbedding.wordVector("zqxwvu")
    assert(HashEmbedding.cosineDistance(base, typo) < HashEmbedding.cosineDistance(base, far))
  }

  test("two zero vectors (missing values) are maximally distant") {
    val z = new Array[Float](HashEmbedding.Dim)
    assert(HashEmbedding.cosineDistance(z, z) == 1.0)
  }

  test("distance is within [0,1]") {
    val a = HashEmbedding.wordVector("alpha")
    val b = HashEmbedding.wordVector("omega")
    val d = HashEmbedding.cosineDistance(a, b)
    assert(d >= 0.0 && d <= 1.0)
  }

  test("distance is symmetric") {
    val a = HashEmbedding.wordVector("north")
    val b = HashEmbedding.wordVector("south")
    assert(math.abs(HashEmbedding.cosineDistance(a, b) - HashEmbedding.cosineDistance(b, a)) < 1e-12)
  }
}
