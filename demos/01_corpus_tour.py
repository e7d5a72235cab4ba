# Goal: generate a synthetic QA corpus, write/reload it, chunk a document,
# split pairs into train/test, and build the eval set (items, queries,
# qrels) — the data plumbing everything else uses.

from pathlib import Path
from tempfile import TemporaryDirectory

from riskrank import (
    build_eval_set,
    chunk_document,
    load_qa_pairs,
    save_qa_pairs,
    split_pairs,
    synth_dataset,
)

documents, pairs = synth_dataset(
    n_clusters=5, pairs_per_cluster=100, vocab_per_cluster=50, seed=7
)
print(f"generated {len(pairs)} question-context pairs over {len(documents)} clusters")
print(f"  sample question: {pairs[0].question!r}")
print(f"  sample context:  {pairs[0].context!r}")

with TemporaryDirectory() as tmp:
    path = Path(tmp) / "pairs.jsonl"
    save_qa_pairs(pairs, path)
    reloaded = load_qa_pairs(path)
    print(f"round-trip through {path.name}: {reloaded == pairs}")

doc = documents[0]
chunks = chunk_document(doc, window=64, stride=48)
print(f"\nchunked {doc.doc_id} ({len(doc.body)} chars) into {len(chunks)} windows")
for chunk in chunks[:3]:
    start, end = chunk.span
    print(f"  {chunk.chunk_id}: chars [{start}, {end}), {len(chunk.text.split())} tokens")

split = split_pairs(pairs, ratio=0.95, seed=7)
print(f"\nsplit 95/5: {len(split.train)} train / {len(split.test)} test")
eval_set = build_eval_set(pairs, split.test)
print(
    f"eval set: {len(eval_set.item_ids)} items (one per distinct context), "
    f"{len(eval_set.queries)} queries, qrels naming one relevant item each"
)
