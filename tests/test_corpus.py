"""Loaders, chunking, splitting, eval sets, and the synthetic generator."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskrank.corpus import (
    Document,
    QAPair,
    build_eval_set,
    chunk_document,
    load_documents,
    load_qa_pairs,
    save_documents,
    save_qa_pairs,
    split_pairs,
    synth_dataset,
)

from reference import reference_synth_dataset


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


class TestLoadQAPairs:
    def test_jsonl_order_and_fields(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_jsonl(
            path,
            [
                {"pair_id": "a", "question": "q1?", "context": "c1", "doc_id": "d"},
                {"question": "q2?", "context": "c2"},
                {"question": "q3?", "context": "c3"},
            ],
        )
        pairs = load_qa_pairs(path)
        assert [p.pair_id for p in pairs] == ["a", "000001", "000002"]
        assert pairs[0].doc_id == "d"
        assert pairs[1].doc_id is None
        assert [p.question for p in pairs] == ["q1?", "q2?", "q3?"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("")
        assert load_qa_pairs(path) == []

    def test_missing_question_names_line_and_field(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_jsonl(
            path,
            [
                {"question": "q1?", "context": "c1"},
                {"context": "c2"},
                {"question": "q3?", "context": "c3"},
            ],
        )
        with pytest.raises(ValueError) as excinfo:
            load_qa_pairs(path)
        message = str(excinfo.value)
        assert "line 2" in message
        assert "question" in message

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"question": "q", "context": "c"}\n{broken\n')
        with pytest.raises(ValueError, match="line 2"):
            load_qa_pairs(path)

    def test_duplicate_pair_id(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_jsonl(
            path,
            [
                {"pair_id": "x", "question": "q1?", "context": "c1"},
                {"pair_id": "x", "question": "q2?", "context": "c2"},
            ],
        )
        with pytest.raises(ValueError, match="duplicate pair_id"):
            load_qa_pairs(path)

    def test_csv_minimum_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text('question,context\n"What is VaR?","VaR is..."\nq2,c2\n')
        pairs = load_qa_pairs(path)
        assert len(pairs) == 2
        assert pairs[0].question == "What is VaR?"
        assert pairs[0].pair_id == "000000"

    def test_csv_optional_columns(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("pair_id,doc_id,question,context\np1,d1,q?,c\n")
        pairs = load_qa_pairs(path)
        assert pairs[0].pair_id == "p1"
        assert pairs[0].doc_id == "d1"

    def test_csv_missing_required_column(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("question,answer\nq,a\n")
        with pytest.raises(ValueError, match="context"):
            load_qa_pairs(path)

    def test_csv_empty_field_names_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("question,context\nq1,c1\n,c2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_qa_pairs(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "pairs.parquet"
        path.write_text("x")
        with pytest.raises(ValueError, match="format"):
            load_qa_pairs(path)

    def test_round_trip(self, tmp_path):
        pairs = [
            QAPair("p0", "Qu'est-ce que le risque?", "Le risque — c'est...", "doc-1"),
            QAPair("p1", "plain", "text", None),
        ]
        path = tmp_path / "out.jsonl"
        save_qa_pairs(pairs, path)
        assert load_qa_pairs(path) == pairs


class TestDocuments:
    def test_load_from_directory(self, tmp_path):
        (tmp_path / "b.txt").write_text("second doc body")
        (tmp_path / "a.txt").write_text("first doc body")
        docs = load_documents(tmp_path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert docs[0].body == "first doc body"

    def test_jsonl_round_trip(self, tmp_path):
        docs = [
            Document("d1", "Capital", "Tier 1 capital ratio", {"source": "regs"}),
            Document("d2", "Liquidité", "coverage ratio ≥ 100%"),
        ]
        path = tmp_path / "documents.jsonl"
        save_documents(docs, path)
        assert load_documents(path) == docs
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert list(first) == ["doc_id", "title", "body", "source_meta"]

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "documents.jsonl"
        save_documents([Document("d1", "Capital", "Tier 1 capital ratio")], path)
        before = path.read_bytes()
        unencodable = Document("d2", "Sets", "not JSON", {"tags": {"a", "b"}})
        with pytest.raises(TypeError):
            save_documents([Document("d3", "Fine", "fine"), unencodable], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["documents.jsonl"]

    def test_jsonl_defaults_title_and_meta(self, tmp_path):
        path = tmp_path / "documents.jsonl"
        write_jsonl(path, [{"doc_id": "d1", "body": "stress testing"}])
        assert load_documents(path) == [Document("d1", "d1", "stress testing")]

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="body"):
            Document(doc_id="d", title="t", body="")

    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValueError, match="doc_id"):
            Document(doc_id="", title="t", body="x")


class TestChunkDocument:
    def test_window_equal_to_body(self):
        body = " ".join(f"tok{i}" for i in range(10))
        doc = Document("d", "t", body)
        chunks = chunk_document(doc, window=10, stride=10)
        assert len(chunks) == 1
        assert chunks[0].text == body
        assert chunks[0].span == (0, len(body))

    def test_overlapping_windows(self):
        tokens = [f"tok{i}" for i in range(10)]
        doc = Document("d", "t", " ".join(tokens))
        chunks = chunk_document(doc, window=4, stride=2)
        assert len(chunks) == 5
        assert [c.ordinal for c in chunks] == [0, 1, 2, 3, 4]
        starts = [c.text.split()[0] for c in chunks]
        assert starts == ["tok0", "tok2", "tok4", "tok6", "tok8"]
        assert chunks[-1].text.split() == ["tok8", "tok9"]

    def test_single_short_token(self):
        doc = Document("d", "t", "a")
        chunks = chunk_document(doc, window=4, stride=4)
        assert len(chunks) == 1
        assert chunks[0].text == "a"

    def test_text_matches_span(self, rng):
        words = ["alpha", "beta12", "x", "risk,", "longtokenhere"]
        for _ in range(50):
            body = "  ".join(
                words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 40))
            )
            doc = Document("d", "t", body)
            window = int(rng.integers(1, 8))
            stride = int(rng.integers(1, window + 1))
            for chunk in chunk_document(doc, window, stride):
                assert chunk.text == body[chunk.span[0] : chunk.span[1]]

    def test_every_token_char_covered(self, rng):
        for _ in range(50):
            n_tokens = int(rng.integers(1, 60))
            body = " ".join(f"w{i}" for i in range(n_tokens))
            window = int(rng.integers(1, 10))
            stride = int(rng.integers(1, window + 1))
            covered = np.zeros(len(body), dtype=bool)
            for chunk in chunk_document(Document("d", "t", body), window, stride):
                covered[chunk.span[0] : chunk.span[1]] = True
            for i, char in enumerate(body):
                if not char.isspace():
                    assert covered[i], f"character {i} uncovered"

    def test_parameter_validation(self):
        doc = Document("d", "t", "one two three")
        with pytest.raises(ValueError):
            chunk_document(doc, window=0, stride=1)
        with pytest.raises(ValueError):
            chunk_document(doc, window=4, stride=0)
        with pytest.raises(ValueError):
            chunk_document(doc, window=4, stride=5)
        with pytest.raises(ValueError, match="window must be an integer >= 1, got 4.5"):
            chunk_document(doc, window=4.5, stride=2)
        with pytest.raises(ValueError, match="stride must be an integer >= 1, got 2.0"):
            chunk_document(doc, window=4, stride=2.0)

    def test_whitespace_only_body(self):
        doc = Document("d", "t", "   ")
        with pytest.raises(ValueError, match="no tokens"):
            chunk_document(doc, window=4, stride=4)


def make_pairs(n):
    return [QAPair(f"p{i:04d}", f"question {i}", f"context {i}") for i in range(n)]


class TestSplitPairs:
    def test_minimal_split(self):
        split = split_pairs(make_pairs(2), ratio=0.5, seed=123)
        assert len(split.train) == 1
        assert len(split.test) == 1

    def test_deterministic(self):
        pairs = make_pairs(97)
        a = split_pairs(pairs, ratio=0.8, seed=42)
        b = split_pairs(pairs, ratio=0.8, seed=42)
        assert a.train == b.train
        assert a.test == b.test

    def test_seed_changes_membership(self):
        pairs = make_pairs(100)
        a = split_pairs(pairs, ratio=0.5, seed=1)
        b = split_pairs(pairs, ratio=0.5, seed=2)
        assert {p.pair_id for p in a.train} != {p.pair_id for p in b.train}

    def test_partition_property(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 501))
            ratio = float(rng.uniform(0.05, 0.95))
            pairs = make_pairs(n)
            split = split_pairs(pairs, ratio=ratio, seed=int(rng.integers(0, 2**63)))
            train_ids = {p.pair_id for p in split.train}
            test_ids = {p.pair_id for p in split.test}
            assert len(split.train) == int(np.floor(ratio * n))
            assert len(split.train) + len(split.test) == n
            assert not train_ids & test_ids
            assert train_ids | test_ids == {p.pair_id for p in pairs}

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError):
            split_pairs(make_pairs(4), ratio=0.0, seed=0)
        with pytest.raises(ValueError):
            split_pairs(make_pairs(4), ratio=1.0, seed=0)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            split_pairs(make_pairs(1), ratio=0.5, seed=0)


class TestBuildQrels:
    """The qrels half of ``build_eval_set``."""

    def test_single_pair(self):
        pair = QAPair("p1", "q?", "c")
        assert build_eval_set([pair], [pair]).qrels == {"p1": {"p1"}}

    def test_empty(self):
        assert build_eval_set([], []).qrels == {}

    def test_duplicate_question_id(self):
        pairs = [QAPair("p1", "q?", "c1"), QAPair("p1", "q2?", "c2")]
        with pytest.raises(ValueError, match="duplicate"):
            build_eval_set(pairs, pairs)

    def test_every_query_has_one_relevant(self):
        pairs = make_pairs(25)
        qrels = build_eval_set(pairs, pairs).qrels
        assert len(qrels) == 25
        assert all(len(v) == 1 for v in qrels.values())


class TestBuildEvalSet:
    def test_distinct_contexts_keep_pair_ids(self):
        pairs = make_pairs(5)
        eval_set = build_eval_set(pairs, pairs[3:])
        assert eval_set.item_ids == tuple(p.pair_id for p in pairs)
        assert eval_set.item_texts == tuple(p.context for p in pairs)
        assert eval_set.queries == {"p0003": "question 3", "p0004": "question 4"}
        assert eval_set.qrels == {"p0003": {"p0003"}, "p0004": {"p0004"}}

    def test_shared_context_is_one_item_under_first_pair_id(self):
        pool = [
            QAPair("b", "q b?", "shared"),
            QAPair("x", "q x?", "other"),
            QAPair("a", "q a?", "shared"),
        ]
        eval_set = build_eval_set(pool, [pool[2], pool[0]])
        assert eval_set.item_ids == ("b", "x")
        assert eval_set.item_texts == ("shared", "other")
        assert list(eval_set.queries) == ["a", "b"]
        assert eval_set.qrels == {"a": {"b"}, "b": {"b"}}

    def test_pool_must_hold_test_contexts(self):
        pairs = make_pairs(4)
        with pytest.raises(ValueError, match="missing test contexts: \\['p0003'\\]"):
            build_eval_set(pairs[:3], pairs[3:])

    def test_test_context_held_by_another_pool_pair(self):
        pool = [QAPair("train", "q1?", "shared")]
        test = [QAPair("test", "q2?", "shared")]
        assert build_eval_set(pool, test).qrels == {"test": {"train"}}


class TestSynthDataset:
    @pytest.mark.parametrize(
        "args, problem",
        [((2.7, 3, 5), "n_clusters must be an integer >= 1, got 2.7"),
         ((2, 0, 5), "pairs_per_cluster must be an integer >= 1, got 0"),
         ((2, 3, True), "vocab_per_cluster must be an integer >= 1, got True")],
        ids=["float", "zero", "bool"],
    )
    def test_counts_must_be_positive_integers(self, args, problem):
        with pytest.raises(ValueError, match=problem):
            synth_dataset(*args, seed=1)

    def test_counts_and_cluster_tags(self):
        documents, pairs = synth_dataset(5, 100, 50, seed=7)
        assert len(pairs) == 500
        assert len(documents) == 5
        assert {p.doc_id for p in pairs} == {d.doc_id for d in documents}
        per_cluster = {}
        for pair in pairs:
            per_cluster[pair.doc_id] = per_cluster.get(pair.doc_id, 0) + 1
        assert set(per_cluster.values()) == {100}

    def test_degenerate_single_word(self):
        documents, pairs = synth_dataset(1, 1, 1, seed=99)
        assert len(pairs) == 1
        assert set(pairs[0].question.split()) == {"c00w000"}
        assert set(pairs[0].context.split()) == {"c00w000"}

    def test_byte_identical_under_seed(self, tmp_path):
        a_docs, a_pairs = synth_dataset(3, 10, 8, seed=5)
        b_docs, b_pairs = synth_dataset(3, 10, 8, seed=5)
        assert a_docs == b_docs
        assert a_pairs == b_pairs
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_qa_pairs(a_pairs, path_a)
        save_qa_pairs(b_pairs, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_questions_lean_on_own_cluster(self):
        _, pairs = synth_dataset(4, 25, 20, seed=3)
        for pair in pairs:
            cluster_tag = pair.doc_id.split("-")[1]
            own = sum(1 for t in pair.question.split() if t.startswith(f"c{cluster_tag}"))
            assert own >= 1  # quoted context tokens always come from the cluster

    # SHA-256 of the save_qa_pairs and save_documents bytes. They change if
    # the generator, or numpy's bounded draws and choice, draw differently.
    @pytest.mark.parametrize("clusters, pairs_digest, documents_digest", [
        (10, "112ec48de1922f86668a150c96895ac4a08fe718de5b62c7cacebe19f87ec9d1",
         "0a64d1cc45d2e3a63b3c8bcb70bd8a2520fe2ebc76319ef0df7741a3810075cf"),
        (30, "b08144d02e353b5ac62f431f9a75cbf7191169696baeeefcf349811e00bfd76b",
         "f47d95dc155fb1216ca544a063f8549958f6743b6fdce7a584e845f2c82a26ea"),
        (5, "65669c0438c630cd0aeca7f5ef184a04b66681165aaf785ef59bd57a713fbfa3",
         "01cde7de3a7c71ad8dfaf503fc9195d96804b343c00d445bbea303c768d7718d"),
    ])
    def test_pinned_corpus_bytes(self, tmp_path, clusters, pairs_digest, documents_digest):
        documents, pairs = synth_dataset(clusters, 100, 50, seed=7)
        save_qa_pairs(pairs, tmp_path / "pairs.jsonl")
        save_documents(documents, tmp_path / "documents.jsonl")
        assert hashlib.sha256((tmp_path / "pairs.jsonl").read_bytes()).hexdigest() == pairs_digest
        assert hashlib.sha256(
            (tmp_path / "documents.jsonl").read_bytes()
        ).hexdigest() == documents_digest

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 60), st.integers(0, 2**64 - 1))
    def test_matches_the_pair_by_pair_generator(self, clusters, pairs, vocab, seed):
        """Every vocabulary size, the shared-vocabulary ones (below 4 words)
        and content pools below 10 words included, one cluster (no cluster
        draws) and two (a one-value cluster draw)."""
        assert synth_dataset(clusters, pairs, vocab, seed) == reference_synth_dataset(
            clusters, pairs, vocab, seed
        )

    def test_blocks_split_clusters_alike(self):
        """Blocks of pairs that start and end inside a cluster, and more
        clusters than one block holds pairs."""
        for args in [(3, 1500, 14, 11), (1, 2100, 12, 3), (1100, 1, 9, 5)]:
            assert synth_dataset(*args) == reference_synth_dataset(*args)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 1, 1, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(1, 0, 1, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(1, 1, 0, seed=0)
