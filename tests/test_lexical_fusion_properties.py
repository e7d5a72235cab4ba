"""Property tests: RRF fusion and BM25 search against their oracles.

RRF cases share ids across lists, tie scores inside a list (ids break the
tie), cut lists at ``depth`` and fuse up to five lists, where a running sum
would depend on the order of the lists. BM25 cases draw tiny corpora over
a six-word vocabulary, so terms repeat within and across items, and queries
that repeat terms and use words no item holds.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskrank.embedding import tokenize
from riskrank.index import (
    build_lexical_index,
    bm25_score,
    lexical_search,
    ranked_list_from_scores,
    rrf_fuse,
    validate_ranked_list,
)

from reference import bm25_by_hand, brute_force_rrf

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

UNIVERSE = [f"i{i}" for i in range(8)]
WORDS = ["risk", "capital", "stress", "credit", "basel", "audit"]
MISSING = ["liquidity", "zeta"]


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


def hits(ranking):
    return [(h.item_id, h.score, h.rank) for h in ranking.hits]


@PROPERTY_SETTINGS
@given(rrf_cases())
def test_rrf_matches_brute_force(case):
    lists, k_rrf, depth = case
    fused = rrf_fuse(lists, k_rrf=k_rrf, depth=depth)
    expected = brute_force_rrf([rl.item_ids for rl in lists], k_rrf, depth)
    assert {h.item_id: h.score for h in fused.hits} == expected
    assert fused.item_ids == sorted(expected, key=lambda item: (-expected[item], item))
    validate_ranked_list(fused)


@PROPERTY_SETTINGS
@given(rrf_cases(), st.randoms(use_true_random=False))
def test_rrf_ignores_the_order_of_its_lists(case, random):
    lists, k_rrf, depth = case
    shuffled = list(lists)
    random.shuffle(shuffled)
    assert hits(rrf_fuse(shuffled, k_rrf=k_rrf, depth=depth)) == hits(
        rrf_fuse(lists, k_rrf=k_rrf, depth=depth)
    )


@st.composite
def bm25_cases(draw):
    texts = draw(st.lists(
        st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join), min_size=1, max_size=8
    ))
    query = draw(st.lists(st.sampled_from(WORDS + MISSING), max_size=8))
    return texts, query, draw(st.integers(1, len(texts) + 2))


@PROPERTY_SETTINGS
@given(bm25_cases())
def test_lexical_search_equals_bm25_score(case):
    texts, query, k = case
    ids = [f"d{i}" for i in range(len(texts))]
    index = build_lexical_index(ids, texts)
    query_text = " ".join(query)
    scored = [(item, bm25_score(index, tokenize(query_text), item)) for item in ids]
    expected = sorted(((i, s) for i, s in scored if s > 0.0), key=lambda p: (-p[1], p[0]))[:k]
    result = lexical_search(index, query_text, k=k, query_id="q")
    assert [(h.item_id, h.score) for h in result.hits] == expected
    validate_ranked_list(result)


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
