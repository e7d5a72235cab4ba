# Goal: build dense and lexical indexes over the same items, search both,
# and fuse them with reciprocal ranks.

from riskrank import (
    HashEmbedder,
    build_dense_index,
    build_lexical_index,
    dense_search_many,
    lexical_search_many,
    rrf_fuse,
)

items = {
    "guide-car": "capital adequacy requirements and risk weighted assets",
    "guide-lcr": "liquidity coverage ratio and high quality liquid assets",
    "guide-irb": "internal ratings based approach to credit risk capital",
    "guide-ops": "operational risk capital and loss event categories",
    "guide-sec": "securitization exposures and special purpose entities",
}
query = "how is credit risk capital calculated"

embedder = HashEmbedder(dim=256, seed=0)
ids = list(items)
dense_index = build_dense_index(ids, embedder.embed(list(items.values())))
lexical_index = build_lexical_index(ids, list(items.values()))

dense_run = dense_search_many(dense_index, embedder.embed([query]), 5, ["q1"])
lexical_run = lexical_search_many(lexical_index, [query], 5, ["q1"])
[dense_hits], [lexical_hits] = dense_run, lexical_run

print(f"query: {query!r}\n")
print("dense (cosine):")
for rank, (item_id, score) in enumerate(dense_hits.hits, 1):
    print(f"  {rank}. {item_id:<9} {score:+.4f}")
print("lexical (BM25):")
for rank, (item_id, score) in enumerate(lexical_hits.hits, 1):
    print(f"  {rank}. {item_id:<9} {score:+.4f}")

[fused] = rrf_fuse([dense_run, lexical_run], k_rrf=60, depth=100)
print("hybrid (reciprocal-rank fusion):")
for rank, (item_id, score) in enumerate(fused.hits, 1):
    print(f"  {rank}. {item_id:<9} {score:.6f}")
