"""Rankings, dense search vs brute force, BM25, fusion, persistence."""

import json
import re
from unittest import mock

import numpy as np
import pytest

from riskrank import index as index_module
from riskrank.index import (
    DenseIndex,
    LexicalIndex,
    RankedList,
    build_dense_index,
    build_lexical_index,
    dense_search_many,
    lexical_search_many,
    load_index,
    ranked_list_from_scores,
    rrf_fuse,
    save_index,
)

from reference import (
    bm25_by_hand, bm25_score, bm25_term_weight, brute_force_dense, brute_force_rrf, check_ranking,
)


def ranked(query_id, *pairs):
    return ranked_list_from_scores(query_id, pairs)


def postings_of(index):
    """Each term's postings as ``(item_id, tf)`` pairs, in index order."""
    return {
        term: list(zip(
            [index.item_ids[d] for d in index.docs[index.starts[r]:index.starts[r + 1]]],
            index.tf[index.starts[r]:index.starts[r + 1]].tolist(),
        ))
        for term, r in index.terms.items()
    }


class TestRankedList:
    def test_tie_break_by_item_id(self):
        rl = ranked("q", ("b", 1.0), ("a", 1.0), ("c", 2.0))
        assert rl.item_ids == ["c", "a", "b"]
        assert rl.hits == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ranked("q", ("a", 1.0), ("a", 0.5))

    def test_validate_catches_repeated_ids(self):
        with pytest.raises(ValueError, match=r"'q' repeats item ids: \['a'\]"):
            RankedList("q", (("a", 1.0), ("b", 0.5), ("a", 0.5)))

    def test_validate_catches_increasing_scores(self):
        with pytest.raises(ValueError, match=r"'q': scores increase \(0.5 -> 1.0\)"):
            RankedList("q", (("a", 0.5), ("b", 1.0)))

    @pytest.mark.parametrize("scored", [
        [("a", 1.0), ("b", float("nan")), ("c", 2.0)],
        [("c", 2.0), ("b", float("nan")), ("a", 1.0)],
    ])
    def test_nan_score_rejected(self, scored):
        with pytest.raises(ValueError, match="'q7'.*NaN"):
            ranked_list_from_scores("q7", scored)

    def test_validate_catches_nan_score(self):
        with pytest.raises(ValueError, match="'q7'.*NaN"):
            RankedList("q7", (("a", 2.0), ("b", float("nan")), ("c", 1.0)))

    @pytest.mark.parametrize("hits", [
        (("a", float("nan")),),
        (("a", float("nan")), ("b", 1.0)),
        (("a", 1.0), ("b", 0.5), ("c", float("nan"))),
    ], ids=["one-hit", "first-of-two", "last-of-three"])
    def test_constructor_rejects_nan_anywhere(self, hits):
        with pytest.raises(ValueError, match="'q7' holds a NaN score"):
            RankedList("q7", hits)


class TestDenseIndex:
    def test_shape(self):
        index = build_dense_index(["a", "b", "c"], np.eye(4)[:3])
        assert index.count == 3
        assert index.matrix.shape == (3, 4)
        assert index.matrix.dtype == np.float32

    def test_rows_unit_or_zero(self, rng):
        vectors = rng.normal(size=(20, 6))
        vectors[7] = 0.0
        index = build_dense_index([f"i{i}" for i in range(20)], vectors)
        norms = np.linalg.norm(index.matrix.astype(np.float64), axis=1)
        assert norms[7] == 0.0
        others = np.delete(norms, 7)
        np.testing.assert_allclose(others, 1.0, atol=1e-6)

    def test_empty_index_searchable(self):
        index = build_dense_index([], [], dim=4)
        [result] = dense_search_many(index, [np.ones(4)], 5, ["q"])
        assert result.hits == ()

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_dense_index(["a", "a"], np.eye(2))

    def test_id_vector_count_mismatch(self):
        with pytest.raises(ValueError):
            build_dense_index(["a"], np.eye(2))

    def test_mixed_dims(self):
        with pytest.raises(ValueError):
            build_dense_index(["a", "b"], [np.ones(2), np.ones(3)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_dense_index(["a", "b"], np.eye(2)),
        lambda: build_lexical_index(["a", "b"], ["credit risk", "market risk"]),
    ],
    ids=["dense", "lexical"],
)
def test_indexes_compare_and_hash_by_identity(build):
    """Two indexes built alike are two objects: ``==`` answers False
    instead of asking an array for one truth value, and both hash."""
    first, second = build(), build()
    assert first == first
    assert first != second
    assert hash(first) != hash(second)
    assert len({first, second, first}) == 2


class TestDenseSearch:
    def test_exact_match_scores_one(self):
        basis = np.eye(5)
        index = build_dense_index([f"i{i}" for i in range(5)], basis)
        [result] = dense_search_many(index, [basis[2]], 3, ["q"])
        assert result.hits[0] == ("i2", 1.0)

    def test_identical_vectors_tie_by_id(self):
        v = np.array([1.0, 2.0, 3.0])
        index = build_dense_index(["beta", "alpha"], [v, v])
        [result] = dense_search_many(index, [v], 2, ["q"])
        assert result.item_ids == ["alpha", "beta"]

    def test_zero_item_scores_zero(self):
        index = build_dense_index(["zero", "one"], [np.zeros(3), np.ones(3)])
        [result] = dense_search_many(index, [np.ones(3)], 2, ["q"])
        assert result.item_ids == ["one", "zero"]
        assert result.hits[1][1] == 0.0

    def test_zero_query_scores_all_zero(self):
        index = build_dense_index(["b", "a"], [np.ones(3), 2 * np.ones(3)])
        [result] = dense_search_many(index, [np.zeros(3)], 2, ["q"])
        assert result.hits == (("a", 0.0), ("b", 0.0))
        assert result.item_ids == ["a", "b"]  # pure id tie-break

    def test_fewer_items_than_k(self):
        index = build_dense_index(["a"], [np.ones(2)])
        assert len(dense_search_many(index, [np.ones(2)], 10, ["q"])[0].hits) == 1

    def test_dim_mismatch(self):
        index = build_dense_index(["a"], [np.ones(3)])
        with pytest.raises(ValueError):
            dense_search_many(index, [np.ones(4)], 1, ["q"])

    def test_k_validation(self):
        index = build_dense_index(["a"], [np.ones(2)])
        with pytest.raises(ValueError):
            dense_search_many(index, [np.ones(2)], 0, ["q"])

    def test_non_finite_vector_names_item(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="'a'"):
                build_dense_index(["a", "b"], [[bad, 0.0], [0.0, 1.0]])

    def test_non_finite_query_names_query(self):
        index = build_dense_index(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="'q7'"):
                dense_search_many(index, [np.array([bad, 0.0])], 1, ["q7"])
            with pytest.raises(ValueError, match="'q8'"):
                dense_search_many(
                    index, np.array([[1.0, 0.0], [bad, 0.0]]), 1, ["q7", "q8"]
                )

    def test_non_finite_stored_row_names_item(self):
        matrix = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=np.float32)
        index = DenseIndex(item_ids=("a", "b"), matrix=matrix, dim=2)
        with pytest.raises(ValueError, match="'a'"):
            dense_search_many(index, [np.array([0.0, 1.0])], 1, ["q"])

    def test_matrix_must_match_ids_and_dim(self):
        with pytest.raises(ValueError, match=r"shape \(3, 3\).*\(1, 3\)"):
            DenseIndex(item_ids=("a",), matrix=np.eye(3, dtype=np.float32), dim=3)
        with pytest.raises(ValueError, match=r"shape \(3, 3\).*\(3, 4\)"):
            DenseIndex(item_ids=("a", "b", "c"), matrix=np.eye(3, dtype=np.float32), dim=4)

    def test_many_checks_shapes_and_ids(self):
        index = build_dense_index(["a"], [np.ones(3)])
        with pytest.raises(ValueError, match="dim"):
            dense_search_many(index, np.ones((2, 4)), 1, ["q1", "q2"])
        empty = build_dense_index([], [], dim=3)
        with pytest.raises(ValueError, match=r"queries have shape \(3,\)"):
            dense_search_many(empty, np.ones(3), 1, ["q1", "q2", "q3"])
        with pytest.raises(ValueError, match="query ids"):
            dense_search_many(index, np.ones((2, 3)), 1, ["q1"])
        with pytest.raises(ValueError, match="k must be"):
            dense_search_many(index, np.ones((1, 3)), 0, ["q1"])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 60))
            dim = int(rng.integers(2, 16))
            ids = [f"item-{i:03d}" for i in range(n)]
            vectors = rng.normal(size=(n, dim))
            if n > 3:  # plant exact duplicates to exercise the tie rule
                vectors[1] = vectors[0]
            query = rng.normal(size=dim)
            k = int(rng.integers(1, 12))
            expected = brute_force_dense(ids, vectors, query, k)
            [result] = dense_search_many(build_dense_index(ids, vectors), [query], k, ["q"])
            assert list(result.hits) == expected


class TestBM25:
    def test_hand_example(self):
        index = build_lexical_index(
            ["d1", "d2"], ["risk capital risk", "capital"], k1=1.2, b=0.75
        )
        scores = dict(lexical_search_many(index, ["risk"], 2, ["q"])[0].hits)
        # tf=2, df=1, N=2, len=3, avgdl=2 pushed through the formula
        assert scores["d1"] == pytest.approx(0.8355746834147286, abs=1e-12)
        assert "d2" not in scores  # BM25 0: zero scorers are dropped

    def test_absent_term_contributes_zero(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        assert lexical_search_many(index, ["liquidity"], 1, ["q"])[0].hits == ()

    def test_empty_query(self):
        index = build_lexical_index(["d1", "d2"], ["credit risk", "capital"])
        assert lexical_search_many(index, [""], 2, ["q"])[0].hits == ()

    def test_repeated_query_term_equals_deduplicated(self):
        index = build_lexical_index(
            ["d1", "d2"], ["risk capital risk", "capital returns"]
        )
        assert list(lexical_search_many(index, ["risk risk capital"], 2, ["q"])) == list(
            lexical_search_many(index, ["risk capital"], 2, ["q"])
        )

    def test_matches_hand_formula_on_random_corpora(self, rng):
        words = ["risk", "capital", "stress", "credit", "basel", "audit"]
        for _ in range(20):
            n = int(rng.integers(1, 8))
            texts = [
                " ".join(words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 12)))
                for _ in range(n)
            ]
            ids = [f"d{i}" for i in range(n)]
            index = build_lexical_index(ids, texts)
            term = words[int(rng.integers(0, len(words)))]
            df = sum(1 for t in texts if term in t.split())
            scores = dict(lexical_search_many(index, [term], n, ["q"])[0].hits)
            for item_id, text in zip(ids, texts):
                tokens = text.split()
                expected = bm25_by_hand(
                    tokens.count(term), df, n, len(tokens), index.avgdl, 1.2, 0.75
                )
                assert scores.get(item_id, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_tf_monotonicity_fixed_statistics(self):
        """One term in the first df of n_docs items, each of length doc_len,
        at every tf from 1 to 29: a search scores them alike, never less for
        a higher tf, and drops the items without the term."""
        for df, doc_len, n_docs in [(1, 5, 10), (4, 20, 30), (9, 3, 9)]:
            ids = tuple(f"d{i:02d}" for i in range(n_docs))
            weights = []
            for tf in range(1, 30):
                index = LexicalIndex(
                    item_ids=ids, terms={"risk": 0}, starts=np.array([0, df]),
                    docs=np.arange(df, dtype=np.int32), tf=np.full(df, tf, dtype=np.int32),
                    doc_len=np.full(n_docs, doc_len, dtype=np.int32), avgdl=10.0,
                )
                hits = lexical_search_many(index, ["risk"], n_docs, ["q"])[0].hits
                assert [item for item, _ in hits] == list(ids[:df])
                assert len({score for _, score in hits}) == 1
                weights.append(hits[0][1])
            assert all(b >= a for a, b in zip(weights, weights[1:]))
            assert weights[0] > 0.0

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"b": float("nan")}, "b must be a number in [0, 1], got nan"),
            ({"b": -0.25}, "b must be a number in [0, 1], got -0.25"),
            ({"b": 1.5}, "b must be a number in [0, 1], got 1.5"),
            ({"k1": -1.0}, "k1 must be a finite number >= 0, got -1.0"),
            ({"k1": float("inf")}, "k1 must be a finite number >= 0, got inf"),
            ({"k1": float("nan")}, "k1 must be a finite number >= 0, got nan"),
            ({"k1": True}, "k1 must be a finite number >= 0, got True"),
            ({"k1": "1.2"}, "k1 must be a finite number >= 0, got '1.2'"),
        ],
    )
    def test_parameters_out_of_range_are_refused(self, params, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_lexical_index(["a", "b"], ["risk x", "risk"], **params)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (1.2, 0.0), (1.2, 1.0), (0, 1)])
    def test_extreme_parameters_match_bm25_score(self, k1, b):
        texts = ["risk risk capital", "capital", "", "risk stress stress stress", "audit"]
        ids = [f"d{i}" for i in range(len(texts))]
        index = build_lexical_index(ids, texts, k1=k1, b=b)
        for query in ["risk", "risk capital stress", "audit nope"]:
            expected = sorted(
                ((item, bm25_score(index, query.split(), item)) for item in ids),
                key=lambda pair: (-pair[1], pair[0]),
            )
            result = lexical_search_many(index, [query], len(ids), ["q"])[0]
            assert list(result.hits) == [(i, s) for i, s in expected if s > 0.0]

    def test_empty_index(self):
        index = build_lexical_index([], [])
        assert (index.count, index.terms, index.avgdl) == (0, {}, 0.0)
        assert lexical_search_many(index, ["risk"], 3, ["q"])[0].hits == ()

    def test_item_without_tokens(self):
        index = build_lexical_index(["a", "b", "c"], ["risk capital", "-- !!", "risk"])
        assert index.doc_len.tolist() == [2, 0, 1]
        assert index.avgdl == 1.0
        assert lexical_search_many(index, ["risk capital"], 3, ["q"])[0].item_ids == ["a", "c"]
        assert lexical_search_many(index, ["liquidity zeta"], 3, ["q"])[0].hits == ()

    def test_all_texts_empty(self):
        index = build_lexical_index(["a", "b"], ["", "..."], b=0.75)
        assert index.avgdl == 0.0
        assert index.length_norm.tolist() == [0.25, 0.25]
        assert lexical_search_many(index, ["risk"], 2, ["q"])[0].hits == ()

    def test_average_length_zero_counts_every_length_as_zero(self, tmp_path):
        # Only a saved index can hold postings with avgdl 0: the rule of
        # bm25_term_weight holds for each posting of a search as well.
        save_index(tmp_path / "idx", lexical=build_lexical_index(
            ["a", "b", "c"], ["risk risk capital", "risk", "capital audit"]
        ))
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        meta["avgdl"] = 0.0
        (tmp_path / "idx" / "meta.json").write_text(json.dumps(meta))
        _, index = load_index(tmp_path / "idx")
        assert index.length_norm.tolist() == [0.25] * 3
        scores = dict(lexical_search_many(index, ["risk"], 3, ["q"])[0].hits)
        assert scores == {
            "a": bm25_term_weight(2, 2, 3, 0.0, 3, 1.2, 0.75),
            "b": bm25_term_weight(1, 2, 1, 0.0, 3, 1.2, 0.75),
        }


class TestLexicalSearch:
    def test_no_indexed_term_gives_empty(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        assert lexical_search_many(index, ["liquidity coverage"], 5, ["q"])[0].hits == ()

    def test_single_term_ranking_matches_full_scoring(self):
        texts = {
            "d1": "risk risk risk capital",
            "d2": "risk capital",
            "d3": "capital only here",
            "d4": "risk",
        }
        index = build_lexical_index(list(texts), list(texts.values()))
        result = lexical_search_many(index, ["risk"], 10, ["q"])[0]
        expected = sorted(
            (
                (item, bm25_score(index, ["risk"], item))
                for item in texts
                if bm25_score(index, ["risk"], item) > 0
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert list(result.hits) == expected

    def test_shared_vocabulary_matches_bm25_score(self, rng):
        """Long postings: every term occurs in most items, unlike the
        per-cluster vocabularies of the synthetic corpus."""
        words = ["risk", "capital", "stress", "credit", "basel", "audit", "liquidity"]
        texts = [
            " ".join(words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 40)))
            for _ in range(400)
        ]
        ids = [f"d{i:03d}" for i in rng.permutation(400)]
        index = build_lexical_index(ids, texts)
        assert min(len(postings_of(index)[w]) for w in words) > 200
        for query in ["risk", "capital risk stress", "audit audit basel credit", "risk nope"]:
            terms = query.split()
            scored = [(item, bm25_score(index, terms, item)) for item in ids]
            expected = sorted(
                ((item, s) for item, s in scored if s > 0.0),
                key=lambda pair: (-pair[1], pair[0]),
            )
            for k in (len(ids), 25):
                result = lexical_search_many(index, [query], k, ["q"])[0]
                assert list(result.hits) == expected[:k]

    def test_posting_for_unknown_item(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        for ghost in (1, -1):
            with pytest.raises(ValueError, match=f"item number {ghost}, but the index holds 1"):
                LexicalIndex(
                    item_ids=index.item_ids,
                    terms={"credit": 0, "risk": 1},
                    starts=np.array([0, 1, 3]),
                    docs=np.array([0, 0, ghost], dtype=np.int32),
                    tf=np.array([1, 1, 2], dtype=np.int32),
                    doc_len=index.doc_len,
                    avgdl=index.avgdl,
                )

    @pytest.mark.parametrize(
        "change",
        [
            {"starts": np.array([0, 1])},
            {"starts": np.array([1, 1, 2])},
            {"starts": np.array([0, 2, 1])},
            {"starts": np.array([0, 1, 3])},
            {"tf": np.array([1], dtype=np.int32)},
            {"doc_len": np.array([2, 2], dtype=np.int32)},
        ],
        ids=["too-few-starts", "not-from-0", "falling", "past-the-postings", "tf-size",
             "doc_len-size"],
    )
    def test_hand_built_arrays_must_agree(self, change):
        index = build_lexical_index(["d1"], ["credit risk"])
        fields = dict(
            item_ids=index.item_ids, terms=index.terms, starts=index.starts, docs=index.docs,
            tf=index.tf, doc_len=index.doc_len, avgdl=index.avgdl,
        )
        LexicalIndex(**fields)
        with pytest.raises(ValueError):
            LexicalIndex(**{**fields, **change})

    @pytest.mark.parametrize("avgdl", [float("nan"), float("inf"), -3.0, "2"], ids=repr)
    def test_hand_built_average_length_is_checked(self, avgdl):
        index = build_lexical_index(["d1"], ["credit risk"])
        message = f"avgdl must be a finite number >= 0, got {avgdl!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LexicalIndex(
                item_ids=index.item_ids, terms=index.terms, starts=index.starts,
                docs=index.docs, tf=index.tf, doc_len=index.doc_len, avgdl=avgdl,
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k1", [0.0, 1.2])
    def test_average_length_too_small_is_refused(self, tmp_path, k1):
        """A positive avgdl so small that a length over it overflows would
        make every length norm inf, each BM25 weight 0 (k1 > 0) or NaN
        (k1 = 0) and every ranking empty; it is refused, with no warning."""
        built = build_lexical_index(["a", "b", "c"], ["", "risk capital", "risk"], k1=k1)
        fields = dict(
            item_ids=built.item_ids, terms=built.terms, starts=built.starts, docs=built.docs,
            tf=built.tf, doc_len=built.doc_len, k1=k1,
        )
        message = "avgdl 5e-324 is too small: item 'b' of 2 tokens gets a length norm of inf"
        with pytest.raises(ValueError, match=re.escape(message)):
            LexicalIndex(**fields, avgdl=5e-324)
        assert LexicalIndex(**fields, avgdl=1e-300).length_norm[0] == 0.25
        save_index(tmp_path / "idx", lexical=built)
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["avgdl"] = 5e-324
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(f"{meta_path}: {message}")):
            load_index(tmp_path / "idx")

    def test_large_index_keeps_many_queries_per_block(self):
        """Past _BLOCK_ITEMS items, a block still holds _MIN_BLOCK_QUERIES queries."""
        index = build_lexical_index([f"d{i:02d}" for i in range(20)], ["risk capital"] * 20)
        texts = ["risk"] * (index_module._MIN_BLOCK_QUERIES + 1)
        with mock.patch.object(index_module, "_BLOCK_ITEMS", 10), mock.patch.object(
            index_module, "_top_k", wraps=index_module._top_k
        ) as tail:
            results = lexical_search_many(index, texts, 3, [f"q{i}" for i in range(len(texts))])
        assert tail.call_count == 2
        assert {r.item_ids == ["d00", "d01", "d02"] for r in results} == {True}

    def test_zero_queries(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        assert list(lexical_search_many(index, [], 3, [])) == []

    def test_k_is_checked_first(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        with pytest.raises(ValueError, match=re.escape("k must be an integer >= 1, got 0")):
            lexical_search_many(index, [], 0, [])
        with pytest.raises(ValueError, match=re.escape("k must be an integer >= 1, got 0")):
            lexical_search_many(index, ["risk"], 0, [])

    def test_lengths_must_agree(self):
        index = build_lexical_index(["d1"], ["credit risk"])
        with pytest.raises(ValueError, match="got 2 query texts but 1 query ids"):
            lexical_search_many(index, ["risk", "credit"], 3, ["q"])
        with pytest.raises(ValueError, match="got 0 query texts but 1 query ids"):
            lexical_search_many(index, [], 3, ["q"])

    def test_empty_index_ranks_every_query_empty(self):
        index = build_lexical_index([], [])
        results = lexical_search_many(index, ["risk", "", "capital risk"], 3, ["a", "b", "c"])
        assert [(r.query_id, r.hits) for r in results] == [("a", ()), ("b", ()), ("c", ())]

    def test_queries_without_indexed_terms_beside_others(self):
        index = build_lexical_index(["d1", "d2"], ["credit risk", "capital risk"])
        results = lexical_search_many(
            index, ["liquidity", "risk capital", "", "zeta zeta"], 5, ["a", "b", "c", "d"]
        )
        assert [results[i].hits for i in (0, 2, 3)] == [(), (), ()]
        assert results[1] == lexical_search_many(index, ["risk capital"], 5, ["b"])[0]
        assert results[1].item_ids == ["d2", "d1"]

    def test_same_text_twice(self):
        index = build_lexical_index(["d1", "d2"], ["risk capital risk", "capital returns"])
        first, second = lexical_search_many(index, ["risk capital"] * 2, 2, ["q1", "q2"])
        assert (first.query_id, second.query_id) == ("q1", "q2")
        assert first.hits == second.hits != ()

    def test_zero_scores_excluded(self):
        index = build_lexical_index(["d1", "d2"], ["risk", "capital"])
        result = lexical_search_many(index, ["risk"], 5, ["q"])[0]
        assert result.item_ids == ["d1"]

    def test_well_formed_output(self, rng):
        words = ["risk", "capital", "stress", "credit"]
        texts = [
            " ".join(words[i] for i in rng.integers(0, 4, size=6)) for _ in range(12)
        ]
        index = build_lexical_index([f"d{i}" for i in range(12)], texts)
        for query in ["risk capital", "stress", "credit credit risk"]:
            check_ranking(lexical_search_many(index, [query], 5, ["q"])[0].hits)


class TestRRF:
    def test_rank_one_in_both_lists(self):
        a = ranked("q", ("x", 9.0), ("y", 1.0))
        b = ranked("q", ("x", 0.8), ("z", 0.2))
        fused = rrf_fuse([a, b], k_rrf=60)
        assert fused.hits[0][0] == "x"
        assert fused.hits[0][1] == pytest.approx(2.0 / 61.0, abs=1e-15)

    def test_item_in_one_list_at_rank_three(self):
        a = ranked("q", ("x", 3.0), ("y", 2.0), ("z", 1.0))
        b = ranked("q", ("x", 5.0), ("y", 4.0))
        fused = rrf_fuse([a, b], k_rrf=60)
        z_score = dict(fused.hits)["z"]
        assert z_score == pytest.approx(1.0 / 63.0, abs=1e-15)

    def test_three_lists_sum_exactly(self):
        # x at ranks 1, 2 and 5 with k_rrf=1: 1/2 + 1/3 + 1/6, which a
        # running sum in list order rounds to 0.9999999999999999.
        lists = [
            ranked("q", ("x", 9.0)),
            ranked("q", ("a", 9.0), ("x", 8.0)),
            ranked("q", ("b", 9.0), ("c", 8.0), ("d", 7.0), ("e", 6.0), ("x", 5.0)),
        ]
        assert (1 / 2 + 1 / 3) + 1 / 6 == 0.9999999999999999
        assert dict(rrf_fuse(lists, k_rrf=1).hits)["x"] == 1.0

    def test_two_lists_equal_brute_force(self):
        a = ["x", "y", "z", "w", "v"]
        b = ["w", "u", "x", "t", "y", "z"]
        lists = [ranked("q", *[(i, float(9 - r)) for r, i in enumerate(ids)]) for ids in (a, b)]
        for k_rrf, depth in [(1, 100), (60, 100), (7, 3)]:
            fused = rrf_fuse(lists, k_rrf=k_rrf, depth=depth)
            assert dict(fused.hits) == brute_force_rrf([a, b], k_rrf, depth)
            check_ranking(fused.hits)

    def test_mismatched_query_ids(self):
        with pytest.raises(ValueError, match="query ids"):
            rrf_fuse([ranked("q1", ("x", 1.0)), ranked("q2", ("x", 1.0))])

    def test_depth_cuts_contributions(self):
        a = ranked("q", ("x", 3.0), ("y", 2.0), ("z", 1.0))
        fused = rrf_fuse([a], k_rrf=60, depth=2)
        assert set(fused.item_ids) == {"x", "y"}

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            universe = [f"i{i}" for i in range(20)]
            lists = []
            id_lists = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, 15))
                chosen = list(rng.choice(universe, size=size, replace=False))
                id_lists.append(chosen)
                lists.append(
                    ranked("q", *[(item, float(size - i)) for i, item in enumerate(chosen)])
                )
            depth = int(rng.integers(1, 20))
            k_rrf = int(rng.integers(1, 100))
            expected = brute_force_rrf(id_lists, k_rrf, depth)
            fused = rrf_fuse(lists, k_rrf=k_rrf, depth=depth)
            got = dict(fused.hits)
            assert got.keys() == expected.keys()
            for item, score in expected.items():
                assert got[item] == pytest.approx(score, abs=1e-15)
            check_ranking(fused.hits)

    def test_rank_one_everywhere_stays_first(self, rng):
        for _ in range(100):
            winner = "winner"
            others = [f"i{i}" for i in range(int(rng.integers(1, 10)))]
            lists = []
            for _ in range(int(rng.integers(1, 5))):
                tail = list(rng.permutation(others))
                order = [winner] + tail
                lists.append(
                    ranked("q", *[(item, float(len(order) - i)) for i, item in enumerate(order)])
                )
            fused = rrf_fuse(lists)
            assert fused.hits[0][0] == winner

    def test_improving_rank_never_decreases_score(self):
        base_a = ["x", "y", "z", "w"]
        base_b = ["w", "z", "x", "y"]
        for target in base_a:
            pos = base_a.index(target)
            if pos == 0:
                continue
            improved = list(base_a)
            improved[pos - 1], improved[pos] = improved[pos], improved[pos - 1]
            before = brute_force_rrf([base_a, base_b], 60, 100)[target]
            after_lists = [improved, base_b]
            after = brute_force_rrf(after_lists, 60, 100)[target]
            fused_before = dict(
                rrf_fuse(
                    [
                        ranked("q", *[(i, float(9 - r)) for r, i in enumerate(base_a)]),
                        ranked("q", *[(i, float(9 - r)) for r, i in enumerate(base_b)]),
                    ]
                ).hits
            )[target]
            fused_after = dict(
                rrf_fuse(
                    [
                        ranked("q", *[(i, float(9 - r)) for r, i in enumerate(improved)]),
                        ranked("q", *[(i, float(9 - r)) for r, i in enumerate(base_b)]),
                    ]
                ).hits
            )[target]
            assert after >= before
            assert fused_after >= fused_before

    def test_parameter_validation(self):
        a = ranked("q", ("x", 1.0))
        with pytest.raises(ValueError):
            rrf_fuse([])
        with pytest.raises(ValueError):
            rrf_fuse([a], k_rrf=0)
        with pytest.raises(ValueError):
            rrf_fuse([a], depth=0)
        with pytest.raises(ValueError, match="k must be an integer >= 1, got 0"):
            rrf_fuse([a], k=0)


def test_each_ranking_is_checked_once(rng):
    """Searches and fusion leave their rankings' checks to RankedList, which
    a run builds for each query as it is read; only ranked_list_from_scores
    checks its whole input first, as a cut at k can drop a repeat."""
    ids = [f"d{i}" for i in range(6)]
    dense = build_dense_index(ids, rng.normal(size=(6, 4)))
    lexical = build_lexical_index(ids, ["risk capital", "risk", "audit", "risk", "credit", "x"])
    a = ranked("q", ("x", 1.0), ("y", 0.5))
    b = ranked("q", ("y", 0.9), ("z", 0.1))
    calls = [
        (lambda: dense_search_many(dense, rng.normal(size=(3, 4)), 4, ["q1", "q2", "q3"]), 3),
        (lambda: lexical_search_many(lexical, ["risk", "capital", "audit credit"], 4,
                                     ["q1", "q2", "q3"]), 3),
        (lambda: [rrf_fuse([a, b])], 1),
        (lambda: [rrf_fuse([a, b, a], k=2)], 1),
        (lambda: [ranked_list_from_scores("q", [("a", 1.0), ("b", 2.0)], k=1)], 2),
    ]
    for call, checks in calls:
        with mock.patch.object(
            index_module, "_require_unique", wraps=index_module._require_unique
        ) as spy:
            rankings = list(call())
        assert all(ranking.hits for ranking in rankings)
        assert spy.call_count == checks


@pytest.mark.parametrize("value", [0, -2, 1.5, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "name, call",
    [
        ("k", lambda v: dense_search_many(
            build_dense_index(["a"], [np.ones(2)]), [np.ones(2)], v, ["q"])),
        ("k", lambda v: lexical_search_many(
            build_lexical_index(["a"], ["risk"]), ["risk"], v, ["q"])),
        ("k", lambda v: ranked_list_from_scores("q", [("a", 1.0)], k=v)),
        ("k_rrf", lambda v: rrf_fuse([ranked("q", ("a", 1.0))], k_rrf=v)),
        ("depth", lambda v: rrf_fuse([ranked("q", ("a", 1.0))], depth=v)),
        ("k", lambda v: rrf_fuse([ranked("q", ("a", 1.0))], k=v)),
    ],
    ids=["dense_search_many", "lexical_search", "ranked_list_from_scores", "rrf_fuse-k_rrf",
         "rrf_fuse-depth", "rrf_fuse-k"],
)
def test_counts_must_be_integers_of_at_least_one(name, call, value):
    message = f"{name} must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


class TestPersistence:
    def test_round_trip_dense_and_lexical(self, tmp_path, rng):
        ids = [f"i{i}" for i in range(7)]
        vectors = rng.normal(size=(7, 5))
        texts = [f"token{i} risk capital" for i in range(7)]
        dense = build_dense_index(ids, vectors)
        lexical = build_lexical_index(ids, texts)
        save_index(tmp_path / "idx", dense, lexical)
        dense2, lexical2 = load_index(tmp_path / "idx")
        assert dense2.item_ids == dense.item_ids
        assert dense2.matrix.tobytes() == dense.matrix.tobytes()
        assert lexical2.terms == lexical.terms
        for name in ("starts", "docs", "tf", "doc_len", "length_norm"):
            assert getattr(lexical2, name).tolist() == getattr(lexical, name).tolist()
        assert (lexical2.avgdl, lexical2.k1, lexical2.b) == (lexical.avgdl, lexical.k1, lexical.b)

    def test_shuffled_postings_load_rank_and_save_alike(self, tmp_path, rng):
        words = ["risk", "capital", "stress", "credit", "basel", "audit", "liquidity"]
        texts = [
            " ".join(words[i] for i in rng.integers(0, len(words), size=rng.integers(0, 15)))
            for _ in range(60)
        ]
        ids = [f"d{i:02d}" for i in rng.permutation(60)]
        built = build_lexical_index(ids, texts)
        save_index(tmp_path / "idx", lexical=built)
        path = tmp_path / "idx" / "postings.jsonl"
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record["postings"] = [record["postings"][i] for i in rng.permutation(
                len(record["postings"])
            )]
            lines.append(json.dumps(record, ensure_ascii=False))
        shuffled = "".join(line + "\n" for line in lines)
        assert shuffled != path.read_text(encoding="utf-8")
        path.write_text(shuffled, encoding="utf-8")
        _, loaded = load_index(tmp_path / "idx")
        for query in ["risk", "capital stress risk", "audit basel credit liquidity", "nope"]:
            for k in (1, 10, 60):
                assert list(lexical_search_many(loaded, [query], k, ["q"])) == list(
                    lexical_search_many(built, [query], k, ["q"])
                )
        save_index(tmp_path / "again", lexical=loaded)
        for name in ("postings.jsonl", "meta.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "idx" / name).read_bytes()

    def test_search_equivalence_after_reload(self, tmp_path, rng):
        ids = [f"i{i}" for i in range(10)]
        vectors = rng.normal(size=(10, 4))
        dense = build_dense_index(ids, vectors)
        save_index(tmp_path / "idx", dense)
        dense2, _ = load_index(tmp_path / "idx")
        query = rng.normal(size=4)
        a = dense_search_many(dense, [query], 5, ["q"])[0]
        b = dense_search_many(dense2, [query], 5, ["q"])[0]
        assert a.hits == b.hits

    def test_corrupt_vectors_file(self, tmp_path):
        dense = build_dense_index(["a"], [np.ones(3)])
        save_index(tmp_path / "idx", dense)
        blob = (tmp_path / "idx" / "vectors.bin").read_bytes()
        (tmp_path / "idx" / "vectors.bin").write_bytes(blob[:-1])
        with pytest.raises(ValueError, match="vectors.bin"):
            load_index(tmp_path / "idx")

    def saved_abc(self, tmp_path):
        ids = ["a", "b", "c"]
        save_index(
            tmp_path / "idx",
            build_dense_index(ids, np.eye(3)),
            build_lexical_index(ids, ["risk alpha", "risk beta", "gamma"]),
        )
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        return tmp_path / "idx", meta

    def test_item_ids_must_match_count(self, tmp_path):
        path, meta = self.saved_abc(tmp_path)
        meta["item_ids"] = ["a", "b"]
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"meta\.json: item_ids .* count is 3"):
            load_index(path)
        meta["item_ids"] = ["a", "b", "b"]
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"meta\.json: item_ids holds 2 distinct"):
            load_index(path)

    def test_doc_len_keys_must_match_item_ids(self, tmp_path):
        path, meta = self.saved_abc(tmp_path)
        meta["doc_len"] = {"a": 2, "b": 2, "z": 1}
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=r"meta\.json: doc_len"):
            load_index(path)

    def test_postings_must_name_known_ids(self, tmp_path):
        path, meta = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(postings.read_text().replace('"c"', '"z"'))
        with pytest.raises(ValueError, match=r"postings\.jsonl: line \d+: .*\['z'\]"):
            load_index(path)

    def test_postings_invalid_json_line(self, tmp_path):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(postings.read_text() + "{bad\n")
        lines = postings.read_text().count("\n")
        with pytest.raises(ValueError, match=rf"postings\.jsonl: line {lines}: invalid JSON"):
            load_index(path)

    def test_postings_item_listed_twice_in_a_term(self, tmp_path):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(
            postings.read_text().replace(
                json.dumps({"term": "risk", "postings": [["a", 1], ["b", 1]]}),
                json.dumps({"term": "risk", "postings": [["a", 1], ["a", 1], ["b", 1]]}),
            )
        )
        line = postings.read_text().splitlines().index(
            json.dumps({"term": "risk", "postings": [["a", 1], ["a", 1], ["b", 1]]})
        ) + 1
        with pytest.raises(
            ValueError, match=rf"postings\.jsonl: line {line}: postings of 'risk' .*\['a'\]"
        ):
            load_index(path)

    def test_postings_term_listed_twice(self, tmp_path):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(
            postings.read_text() + json.dumps({"term": "risk", "postings": [["c", 3]]}) + "\n"
        )
        lines = postings.read_text().count("\n")
        with pytest.raises(
            ValueError, match=rf"postings\.jsonl: line {lines}: term 'risk' is listed"
        ):
            load_index(path)

    @pytest.mark.parametrize("tf", [0, -3])
    def test_postings_tf_below_one(self, tmp_path, tf):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(
            json.dumps({"term": "delta", "postings": [["a", 1], ["c", tf]]}) + "\n"
            + postings.read_text()
        )
        with pytest.raises(
            ValueError,
            match=rf"postings\.jsonl: line 1: postings of 'delta' .*\[\('c', {tf}\)\]",
        ):
            load_index(path)

    def test_postings_tf_past_int32(self, tmp_path):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(
            json.dumps({"term": "delta", "postings": [["a", 2**31]]}) + "\n"
            + postings.read_text()
        )
        with pytest.raises(
            ValueError,
            match=r"postings\.jsonl: line 1: postings of 'delta' .*\[\('a', 2147483648\)\]",
        ):
            load_index(path)

    @pytest.mark.parametrize(
        "record,field",
        [
            ({"postings": [["a", 1]]}, "term"),
            ({"term": 7, "postings": [["a", 1]]}, "term"),
            ({"term": "risk"}, "postings"),
            ({"term": "risk", "postings": {"a": 1}}, "postings"),
            ({"term": "risk", "postings": [["a", "1"]]}, "postings"),
            ({"term": "risk", "postings": [["a"]]}, "postings"),
        ],
    )
    def test_postings_missing_or_mistyped_field(self, tmp_path, record, field):
        path, _ = self.saved_abc(tmp_path)
        postings = path / "postings.jsonl"
        postings.write_text(json.dumps(record) + "\n" + postings.read_text())
        with pytest.raises(ValueError, match=rf"postings\.jsonl: line 1: .*'{field}'"):
            load_index(path)

    @pytest.mark.parametrize(
        "damage, field",
        [
            ('{"count": 3,', "invalid JSON"),
            ("[3]", "expected a JSON object"),
            (lambda meta: meta.pop("count"), "missing field 'count'"),
            (lambda meta: meta.update(item_ids="abc"), "field 'item_ids'"),
            (lambda meta: meta.update(has_dense="no"), "field 'has_dense'"),
            (lambda meta: meta.update(dim="3"), "field 'dim'"),
            (lambda meta: meta.pop("avgdl"), "missing field 'avgdl'"),
            (lambda meta: meta.update(avgdl=float("nan")), "field 'avgdl' must be a finite"),
            (lambda meta: meta.update(avgdl=float("inf")), "field 'avgdl'"),
            (lambda meta: meta.update(avgdl=-float("inf")), "field 'avgdl'"),
            (lambda meta: meta.update(avgdl=-3.0), "field 'avgdl'"),
            (lambda meta: meta["doc_len"].update(a="2"), "field 'doc_len'"),
            (lambda meta: meta["doc_len"].update(a=2**31), "field 'doc_len'"),
            (lambda meta: meta.update(k1=-1.0), "field 'k1' must be a finite number >= 0"),
            (lambda meta: meta.update(k1=float("inf")), "field 'k1'"),
            (lambda meta: meta.update(b=float("nan")), "field 'b' must be a number in"),
            (lambda meta: meta.update(b=1.5), "field 'b'"),
            (lambda meta: meta.update(b="0.75"), "field 'b'"),
        ],
        ids=[
            "invalid-json", "not-an-object", "missing-count", "string-item_ids",
            "string-has_dense", "string-dim", "missing-avgdl", "nan-avgdl", "infinite-avgdl",
            "minus-infinite-avgdl", "negative-avgdl", "string-doc_len-value",
            "doc_len-past-int32", "negative-k1", "infinite-k1", "nan-b", "b-above-one",
            "string-b",
        ],
    )
    def test_malformed_meta_names_file_and_field(self, tmp_path, damage, field):
        # ``damage`` edits the parsed meta.json, or is the file's new text.
        path, meta = self.saved_abc(tmp_path)
        if isinstance(damage, str):
            (path / "meta.json").write_text(damage)
        else:
            damage(meta)
            (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path / 'meta.json'))}: {field}"):
            load_index(path)

    def test_non_ascii_terms_round_trip(self, tmp_path):
        ids = ["a", "b", "c"]
        texts = ["über risk", "日本 capital", "über 日本 über"]
        lexical = build_lexical_index(ids, texts)
        assert {"über", "日本"} <= set(lexical.terms)
        save_index(tmp_path / "idx", lexical=lexical)
        _, loaded = load_index(tmp_path / "idx")
        assert postings_of(loaded) == postings_of(lexical)
        # The ASCII-escaped form of the same lines loads to the same index.
        postings = tmp_path / "idx" / "postings.jsonl"
        postings.write_text("".join(
            json.dumps(json.loads(line)) + "\n" for line in postings.read_text().splitlines()
        ))
        assert postings_of(load_index(tmp_path / "idx")[1]) == postings_of(lexical)

    def test_nothing_to_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_index(tmp_path / "idx")
