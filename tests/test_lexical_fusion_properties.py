"""Property tests: rankings, RRF fusion and BM25 search against their oracles.

A ranking from scores is the pairs sorted by (-score, id), cut to k, with
Python float scores whatever number type came in. RRF cases share ids across lists, tie scores inside a list (ids break the
tie), cut lists at ``depth`` and fuse up to five lists, where a running sum
would depend on the order of the lists. BM25 cases draw tiny corpora over
a six-word vocabulary, so terms repeat within and across items, and queries
that repeat terms and use words no item holds, under BM25 parameters that
include the ends of their ranges (k1 = 0, b = 0 and b = 1); several
queries also go through one call in blocks of 1, 2 or all of them. The
oracle walks each term's postings one by one in Python, and weighs them
with the Okapi formula on Python numbers.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskrank import index as index_module
from riskrank.embedding import tokenize
from riskrank.index import (
    build_lexical_index,
    lexical_search_many,
    ranked_list_from_scores,
    rrf_fuse,
)

from reference import bm25_by_hand, bm25_score, brute_force_rrf, check_ranking

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

UNIVERSE = [f"i{i}" for i in range(8)]
WORDS = ["risk", "capital", "stress", "credit", "basel", "audit"]
MISSING = ["liquidity", "zeta"]


SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.floats(allow_nan=False),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-3, 3),
)


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.sampled_from(UNIVERSE), SCORES), unique_by=lambda p: p[0]),
    st.none() | st.integers(1, len(UNIVERSE) + 1),
)
def test_ranked_list_from_scores_sorts_and_cuts(scored, k):
    ranking = ranked_list_from_scores("q", scored, k=k)
    expected = sorted(((i, float(s)) for i, s in scored), key=lambda p: (-p[1], p[0]))[:k]
    assert list(ranking.hits) == expected
    assert all(type(score) is float for _, score in ranking.hits)
    check_ranking(ranking.hits)


@st.composite
def rrf_cases(draw):
    """Ranked lists for one query (scores from a small set, so ties are common)."""
    lists = []
    for _ in range(draw(st.integers(1, 5))):
        ids = draw(st.lists(st.sampled_from(UNIVERSE), max_size=len(UNIVERSE), unique=True))
        scores = draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=len(ids), max_size=len(ids)
        ))
        lists.append(ranked_list_from_scores("q", zip(ids, scores)))
    return lists, draw(st.integers(1, 100)), draw(st.integers(1, 10))


@PROPERTY_SETTINGS
@given(rrf_cases())
def test_rrf_matches_brute_force(case):
    lists, k_rrf, depth = case
    fused = rrf_fuse(lists, k_rrf=k_rrf, depth=depth)
    expected = brute_force_rrf([rl.item_ids for rl in lists], k_rrf, depth)
    assert dict(fused.hits) == expected
    assert fused.item_ids == sorted(expected, key=lambda item: (-expected[item], item))
    check_ranking(fused.hits)


@PROPERTY_SETTINGS
@given(rrf_cases(), st.randoms(use_true_random=False))
def test_rrf_ignores_the_order_of_its_lists(case, random):
    lists, k_rrf, depth = case
    shuffled = list(lists)
    random.shuffle(shuffled)
    assert (
        rrf_fuse(shuffled, k_rrf=k_rrf, depth=depth).hits
        == rrf_fuse(lists, k_rrf=k_rrf, depth=depth).hits
    )


@PROPERTY_SETTINGS
@given(rrf_cases(), st.integers(1, len(UNIVERSE) + 1))
def test_rrf_cut_at_k_is_the_head_of_the_full_fusion(case, k):
    lists, k_rrf, depth = case
    fused = rrf_fuse(lists, k_rrf=k_rrf, depth=depth, k=k)
    assert fused.hits == rrf_fuse(lists, k_rrf=k_rrf, depth=depth).hits[:k]


@st.composite
def bm25_cases(draw):
    texts = draw(st.lists(
        st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join), min_size=1, max_size=8
    ))
    query = draw(st.lists(st.sampled_from(WORDS + MISSING), max_size=8))
    return texts, query, draw(st.integers(1, len(texts) + 2))


K1 = st.sampled_from([0.0, 1.2, 2.0]) | st.floats(0.0, 10.0)
B = st.sampled_from([0.0, 0.75, 1.0]) | st.floats(0.0, 1.0)


@PROPERTY_SETTINGS
@given(bm25_cases(), K1, B)
def test_lexical_search_equals_bm25_score(case, k1, b):
    texts, query, k = case
    ids = [f"d{i}" for i in range(len(texts))]
    index = build_lexical_index(ids, texts, k1=k1, b=b)
    query_text = " ".join(query)
    scored = [(item, bm25_score(index, tokenize(query_text), item)) for item in ids]
    expected = sorted(((i, s) for i, s in scored if s > 0.0), key=lambda p: (-p[1], p[0]))[:k]
    result = lexical_search_many(index, [query_text], k, ["q"])[0]
    assert list(result.hits) == expected
    check_ranking(result.hits)


@PROPERTY_SETTINGS
@given(
    bm25_cases(),
    st.lists(st.lists(st.sampled_from(WORDS + MISSING), max_size=8), max_size=6),
    st.sampled_from([1, 2, None]),
    K1,
    B,
)
def test_lexical_search_many_equals_bm25_score_per_query(case, more_queries, block, k1, b):
    """Several queries at once, in blocks of 1, 2 or all of them."""
    texts, query, k = case
    ids = [f"d{i}" for i in range(len(texts))]
    index = build_lexical_index(ids, texts, k1=k1, b=b)
    query_texts = [" ".join(query)] + [" ".join(words) for words in more_queries]
    query_ids = [f"q{i}" for i in range(len(query_texts))]
    per_block = len(query_texts) if block is None else block
    with mock.patch.object(index_module, "_BLOCK_ITEMS", per_block * len(ids)), \
            mock.patch.object(index_module, "_MIN_BLOCK_QUERIES", 1), \
            mock.patch.object(index_module, "_top_k", wraps=index_module._top_k) as tail:
        results = lexical_search_many(index, query_texts, k, query_ids)
    assert tail.call_count == -(-len(query_texts) // per_block)
    assert [r.query_id for r in results] == query_ids
    for text, result in zip(query_texts, results):
        scored = [(item, bm25_score(index, tokenize(text), item)) for item in ids]
        expected = sorted(((i, s) for i, s in scored if s > 0.0), key=lambda p: (-p[1], p[0]))
        assert list(result.hits) == expected[:k]
        check_ranking(result.hits)


@PROPERTY_SETTINGS
@given(bm25_cases())
def test_bm25_score_matches_hand_formula(case):
    texts, query, _ = case
    ids = [f"d{i}" for i in range(len(texts))]
    index = build_lexical_index(ids, texts)
    docs = [text.split() for text in texts]
    for item, tokens in zip(ids, docs):
        expected = math.fsum(
            bm25_by_hand(
                tokens.count(term), sum(term in d for d in docs), len(docs),
                len(tokens), index.avgdl, index.k1, index.b,
            )
            for term in set(query)
        )
        score = bm25_score(index, query, item)
        assert math.isclose(score, expected, rel_tol=1e-12, abs_tol=1e-12)
