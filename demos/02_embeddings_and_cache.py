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
    cache = VectorCache(tmp)
    digest = text_digest("capital adequacy")
    [vector] = embedder.embed(["capital adequacy"])
    path = cache.put(digest, embedder.provider_id, embedder.model_id, vector)
    loaded = cache.get(digest, embedder.provider_id, embedder.model_id)
    print(f"\ncache file: .../{path.parent.name}/{path.name[:16]}...vec")
    print("round-trip bit-exact:", loaded.tobytes() == vector.tobytes())
