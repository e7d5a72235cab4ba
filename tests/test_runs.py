"""Property tests: runs against the list path they replaced.

``reference_rankings`` and ``reference_rrf_fuse`` (tests/reference.py) keep
the list path: (id, score) tuples sorted in two stable passes and cut at k,
and a dict of sums per fused item. Dense, BM25 and fused runs, and the
ranking tail itself, are compared with it id by id and score by score, by
``float.hex``, so the sign of a zero counts. Ids include ``"b"`` and
``"b\\x00"`` (a numpy string array drops trailing NULs and would take one
for the other), non-ASCII ids and the empty id. Scores come from small
sets, so ties at the cut are common, and 0.0 ties with -0.0; k runs past
the number of items, queries may hit nothing, and an index may be empty.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from riskrank import index as index_module
from riskrank.embedding import tokenize
from riskrank.index import (
    Run,
    build_dense_index,
    build_lexical_index,
    dense_search_many,
    lexical_search_many,
    rrf_fuse,
)

from reference import (
    bm25_score, reference_rankings, reference_rrf_fuse, reference_unit_rows,
)

PROPERTY_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ID_POOL = ["a", "b", "b\x00", "b\x00\x00", "\x00", "", "B", "\u00e9", "e\u0301", "ß", "日本", "zz"]
IDS = st.lists(st.sampled_from(ID_POOL), unique=True) | st.lists(
    st.text(max_size=3), unique=True, max_size=10
)
TIE_SCORES = st.sampled_from([0.0, -0.0, 1.0]) | st.sampled_from([-1.0, math.inf, -math.inf])
WORDS = ["risk", "capital", "stress", "credit"]
K = st.integers(1, 12)


def bits(hits):
    return [(item_id, score.hex()) for item_id, score in hits]


def listed(run):
    """Each ranking of a run as ``(query_id, [(id, score.hex()), ...])``."""
    return [(ranking.query_id, bits(ranking.hits)) for ranking in run]


def expected(query_ids, per_query, k):
    """``reference_rankings`` over each query's ``(id, score)`` pairs."""
    bounds = np.append(0, np.cumsum([len(pairs) for pairs in per_query])).tolist()
    pairs = [pair for query_pairs in per_query for pair in query_pairs]
    ranked = reference_rankings(
        query_ids, bounds, [i for i, _ in pairs], [float(s) for _, s in pairs], k
    )
    return [(query_id, bits(hits)) for query_id, hits in ranked]


@PROPERTY_SETTINGS
@given(IDS, st.data(), st.none() | K)
def test_tail_matches_the_list_path(ids, data, k):
    """Several queries' pairs, in any order, through ``_top_k`` into a run."""
    pair = st.tuples(st.integers(0, len(ids) - 1), TIE_SCORES) if ids else st.nothing()
    per_query = [
        data.draw(st.lists(pair, unique_by=lambda p: p[0]))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    query_ids = [f"q{i}" for i in range(len(per_query))]
    which = np.repeat(np.arange(len(per_query)), [len(p) for p in per_query]).astype(np.int64)
    items = np.array([i for p in per_query for i, _ in p], dtype=np.int64)
    scores = np.array([s for p in per_query for _, s in p], dtype=np.float64)
    shuffle = np.array(data.draw(st.permutations(range(len(items)))), dtype=np.int64)
    top = index_module._top_k(
        which[shuffle], items[shuffle], scores[shuffle], index_module._id_rank(ids),
        len(per_query), k,
    )
    run = index_module._run(query_ids, ids, [top])
    named = [[(ids[i], s) for i, s in p] for p in per_query]
    assert listed(run) == expected(query_ids, named, k)


@st.composite
def dense_cases(draw):
    """Rows and queries over a few small integers: duplicate rows tie
    exactly at the k-th score, zero rows score 0."""
    ids = draw(IDS)
    dim = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 1.0, -1.0, 2.0])
    rows = [draw(st.lists(values, min_size=dim, max_size=dim)) for _ in ids]
    queries = draw(st.lists(st.lists(values, min_size=dim, max_size=dim), max_size=4))
    return ids, np.array(rows).reshape(len(ids), dim), np.array(queries).reshape(-1, dim)


@PROPERTY_SETTINGS
@given(dense_cases(), K)
def test_dense_run_matches_the_list_path(case, k):
    ids, rows, queries = case
    query_ids = [f"q{i}" for i in range(len(queries))]
    run = dense_search_many(build_dense_index(ids, rows, dim=rows.shape[1]), queries, k, query_ids)
    stored = reference_unit_rows(rows).astype(np.float64) if ids else rows
    per_query = []
    for query in queries:
        norm = math.sqrt(math.fsum((query * query).tolist()))
        unit = query / norm if norm else query
        per_query.append([(i, math.fsum((row * unit).tolist())) for i, row in zip(ids, stored)])
    assert listed(run) == expected(query_ids, per_query, k)


def test_ids_a_numpy_string_array_would_confuse():
    """Zero rows all score 0.0, so the ids alone order them, in Python
    string order: a numpy string array reads ``"b\\x00"`` as ``"b"``."""
    ids = ["b\x00", "b", "\x00", "", "b\x00\x00"]
    index = build_dense_index(ids, np.zeros((5, 2)))
    for k in (3, 5, 9):
        (ranking,) = dense_search_many(index, np.ones((1, 2)), k, ["q"])
        assert ranking.item_ids == sorted(ids)[:k]


@st.composite
def lexical_cases(draw):
    ids = draw(IDS)
    texts = [" ".join(draw(st.lists(st.sampled_from(WORDS), max_size=6))) for _ in ids]
    queries = draw(st.lists(
        st.lists(st.sampled_from(WORDS + ["nope"]), max_size=4).map(" ".join), max_size=4
    ))
    return ids, texts, queries


@PROPERTY_SETTINGS
@given(lexical_cases(), K)
def test_lexical_run_matches_the_list_path(case, k):
    ids, texts, queries = case
    index = build_lexical_index(ids, texts)
    query_ids = [f"q{i}" for i in range(len(queries))]
    run = lexical_search_many(index, queries, k, query_ids)
    per_query = []
    for text in queries:
        scored = [(i, bm25_score(index, tokenize(text), i)) for i in ids]
        per_query.append([(i, s) for i, s in scored if s > 0.0])
    assert listed(run) == expected(query_ids, per_query, k)


@st.composite
def fusion_cases(draw):
    """One to four runs over the same ids and queries; each ranking is a
    drawn order of distinct ids with falling scores."""
    ids = draw(IDS)
    query_ids = [f"q{i}" for i in range(draw(st.integers(0, 3)))]
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        orders = [
            draw(st.lists(st.integers(0, len(ids) - 1), unique=True) if ids else st.just([]))
            for _ in query_ids
        ]
        items = [i for order in orders for i in order]
        bounds = np.append(0, np.cumsum([len(order) for order in orders]))
        scores = [float(-position) for order in orders for position in range(len(order))]
        runs.append(Run(query_ids, ids, bounds, items, scores))
    return runs, draw(st.integers(1, 80)), draw(st.integers(1, 12))


@PROPERTY_SETTINGS
@given(fusion_cases(), st.none() | K)
def test_fused_run_matches_the_list_path(case, k):
    runs, k_rrf, depth = case
    fused = rrf_fuse(runs, k_rrf=k_rrf, depth=depth, k=k)
    want = [
        (query_id, bits(reference_rrf_fuse([run[q].hits for run in runs], k_rrf, depth, k)))
        for q, query_id in enumerate(runs[0].query_ids)
    ]
    assert listed(fused) == want
    # A query's rankings fused alone give its row of the fused run.
    for q, query_id in enumerate(runs[0].query_ids):
        alone = rrf_fuse([run[q] for run in runs], k_rrf=k_rrf, depth=depth, k=k)
        assert (alone.query_id, bits(alone.hits)) == want[q]


def test_three_term_bin_is_summed_exactly():
    """``x`` at ranks 1, 2 and 5 of query ``p`` with k_rrf = 1: 1/2 + 1/3 +
    1/6, which a running sum in input order rounds to 0.9999999999999999."""
    ids = ("a", "b", "c", "d", "e", "x")

    def run(*orders):
        items = [ids.index(i) for order in orders for i in order]
        bounds = np.append(0, np.cumsum([len(order) for order in orders]))
        return Run(["p", "q"], ids, bounds, items, [-float(i) for i in range(len(items))])

    runs = [run("x", "a"), run("ax", "ab"), run("bcdex", "ba")]
    fused = rrf_fuse(runs, k_rrf=1)
    assert (1 / 2 + 1 / 3) + 1 / 6 == 0.9999999999999999
    assert dict(fused[0].hits)["x"] == 1.0
    assert listed(fused) == [
        (q, bits(reference_rrf_fuse([r[i].hits for r in runs], 1, 100, None)))
        for i, q in enumerate("pq")
    ]


def test_runs_to_fuse_must_agree():
    a = Run(["q"], ("x", "y"), [0, 1], [0], [1.0])
    with pytest.raises(ValueError, match="differing query ids"):
        rrf_fuse([a, Run(["r"], ("x", "y"), [0, 1], [0], [1.0])])
    with pytest.raises(ValueError, match="differing item ids"):
        rrf_fuse([a, Run(["q"], ("y", "x"), [0, 1], [0], [1.0])])
    with pytest.raises(TypeError, match="not a mix"):
        rrf_fuse([a, a[0]])


@pytest.mark.parametrize("arrays, message", [
    (([0, 2], [0, 1], [1.0, float("nan")]), "'q' holds a NaN score"),
    (([0, 2], [0, 1], [1.0, 2.0]), r"'q': scores increase \(1.0 -> 2.0\)"),
    (([0, 2], [0, 2], [2.0, 1.0]), r"item numbers must lie in \[0, 2\)"),
    (([0, 1], [0, 1], [2.0, 1.0]), "bounds of 1 rankings must rise from 0 to 2"),
    (([0, 2], [0, 1], [2.0]), "there are 1 scores"),
], ids=["nan", "rising", "unknown-item", "short-bounds", "short-scores"])
def test_run_checks_its_arrays(arrays, message):
    with pytest.raises(ValueError, match=message):
        Run(["q"], ("x", "y"), *arrays)


def test_run_is_a_sequence_of_rankings():
    run = Run(["p", "q", "r"], ("x", "y"), [0, 2, 2, 3], [1, 0, 0], [3.0, 3.0, -0.0])
    rankings = list(run)
    assert len(run) == 3
    assert [run[i] for i in range(3)] == rankings == run[:]
    assert run[-1] == rankings[2]
    assert rankings[0].hits == (("y", 3.0), ("x", 3.0))
    assert rankings[1].hits == ()
    assert run[1:] == rankings[1:]
    with pytest.raises(IndexError):
        run[3]
    # A run leaves the check for repeated ids to the RankedList it builds.
    with pytest.raises(ValueError, match="repeats item ids"):
        list(Run(["q"], ("x",), [0, 2], [0, 0], [1.0, 1.0]))
    assert json.dumps(rankings[2].hits) == '[["x", -0.0]]'
