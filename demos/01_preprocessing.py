"""From raw text to sentence vectors.

Walks a small news-style snippet through the full preprocessing pipeline:
period-based sentence splitting, punctuation folding, stop-word and
short-token removal, stemming, and finally normalized tf-idf vectors over
a vocabulary built from a toy corpus.
"""

import numpy as np

from stc import preprocess
from stc.corpus import CategorySet, RawDocument, build_vocabulary, vectorize_corpus

TEXT = (
    "Cocoa prices rose sharply in early trading. Dealers said the rally "
    "was driven by weather concerns. Exporters expect higher premiums."
)

print("raw text:")
print(f"  {TEXT}\n")

sentences = preprocess.split_sentences(TEXT)
print(f"split into {len(sentences)} sentences:")
for sentence in sentences:
    print(f"  {sentence.strip()!r}")

print("\ntoken pipeline per sentence (normalize, drop stop words and short tokens, stem):")
for sentence in sentences:
    print(f"  {sentence.strip()!r:55} -> {preprocess.preprocess_sentence(sentence)}")

docs = [
    RawDocument(id="d1", labels=frozenset(["cocoa"]), sentences=sentences),
    RawDocument(
        id="d2",
        labels=frozenset(["grain"]),
        sentences=["Wheat futures were unchanged", "Corn prices dipped as harvest began"],
    ),
]
vocab = build_vocabulary(docs)
print(f"\nvocabulary built from {len(docs)} documents: {len(vocab)} stemmed terms")
print(f"  highest-idf terms: "
      f"{sorted(vocab.index, key=lambda t: -vocab.idf[vocab.index[t]])[:5]}")

categories = CategorySet.from_documents(docs)
vectorized = vectorize_corpus(docs, vocab, categories, mode="mono")
doc = vectorized[0]
print(f"\ndocument {doc.id}: {doc.n_sentences} sentence vectors, all unit length:")
for i, vec in enumerate(doc.sentence_vectors, start=1):
    print(f"  sentence {i}: {vec.nnz} non-zeros, L2 norm {np.sqrt(vec.values @ vec.values):.6f}")
print(f"  whole-document vector: {doc.global_vector.nnz} non-zeros")
