# Goal: show the deterministic hashed embedder, cosine similarity, and the
# bit-exact vector cache that remote providers share.

from tempfile import TemporaryDirectory

import numpy as np

from riskrank import HashEmbedder, VectorCache, cosine, text_digest, tokenize

print("tokenize('Credit exposure, VaR-99.5%') ->",
      tokenize("Credit exposure, VaR-99.5%"))

embedder = HashEmbedder(dim=256, seed=0)
a = embedder("capital adequacy requirements for credit risk")
b = embedder("credit risk capital requirements")
c = embedder("liquidity coverage ratio disclosure")
print(f"\nhash embeddings are unit float32 vectors: |a| = {np.linalg.norm(a):.6f}")
print(f"cosine(related texts)   = {cosine(a, b):+.4f}")
print(f"cosine(unrelated texts) = {cosine(a, c):+.4f}")
print("re-embedding is bit-identical:",
      np.array_equal(a, embedder("capital adequacy requirements for credit risk")))

with TemporaryDirectory() as tmp:
    cache = VectorCache(tmp)
    digest = text_digest("capital adequacy")
    vector = embedder("capital adequacy")
    path = cache.put(digest, embedder.provider_id, embedder.model_id, vector)
    loaded = cache.get(digest, embedder.provider_id, embedder.model_id)
    print(f"\ncache file: .../{path.parent.name}/{path.name[:16]}...vec")
    print("round-trip bit-exact:", loaded.tobytes() == vector.tobytes())
