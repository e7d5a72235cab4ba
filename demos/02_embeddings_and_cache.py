# Goal: show the deterministic hashed embedder, cosine similarity through
# exact dense search, and the bit-exact vector cache that remote providers
# share.

from tempfile import TemporaryDirectory

import numpy as np

from riskrank import (
    HashEmbedder,
    VectorCache,
    build_dense_index,
    dense_search_many,
    text_digest,
    tokenize,
)

print("tokenize('Credit exposure, VaR-99.5%') ->",
      tokenize("Credit exposure, VaR-99.5%"))

embedder = HashEmbedder(dim=256, seed=0)
a, b, c = embedder.embed([
    "capital adequacy requirements for credit risk",
    "credit risk capital requirements",
    "liquidity coverage ratio disclosure",
])
print(f"\nhash embeddings are unit float32 vectors: |a| = {np.linalg.norm(a):.6f}")
# Dense search scores are cosines: exactly rounded dot products of unit rows.
[ranking] = dense_search_many(build_dense_index(["b", "c"], [b, c]), [a], 2, ["a"])
cosines = dict(ranking.hits)
print(f"cosine(related texts)   = {cosines['b']:+.4f}")
print(f"cosine(unrelated texts) = {cosines['c']:+.4f}")
print("re-embedding is bit-identical:",
      np.array_equal(a, embedder.embed(["capital adequacy requirements for credit risk"])[0]))

with TemporaryDirectory() as tmp:
    # One put stores a whole batch as one segment: <segment>.vec plus <segment>.keys.
    cache = VectorCache(tmp)
    texts = ["capital adequacy", "liquidity coverage"]
    digests = [text_digest(text) for text in texts]
    vectors = embedder.embed(texts)
    path = cache.put(digests, embedder.provider_id, embedder.model_id, vectors)
    loaded = [cache.get(digest, embedder.provider_id, embedder.model_id) for digest in digests]
    print(f"\ncache segment: .../{path.parent.name}/{path.name[:16]}...vec, {len(texts)} rows")
    print("round-trip bit-exact:",
          all(row.tobytes() == vector.tobytes() for row, vector in zip(loaded, vectors)))
