"""Property tests: the filtered dense top-k against full-scan oracles.

The cases are built to sit where a filter on approximate scores could go
wrong: exact duplicates and rows one float32 ulp apart planted at the k-th
score, zero rows, zero queries, k above the item count, empty indexes, and
rows of any length and magnitude stored directly in a ``DenseIndex``.
Sparse cases sit where summing only a query's nonzero coordinates could go
wrong: rows whose products there are all zero or cancel exactly. Wide cases
give queries at least ``WIDE_NONZERO`` nonzero coordinates, and mixed cases
put sparse, wide and zero queries in one block, so that a block is verified
over its queries' nonzero coordinates or over full rows. Those tests also
check each ``_exact_dots`` call, row by row: the rows it passes to
``_exact_row_sums`` are its pairs' products, and a dense block's pairs are
the kept pairs of its queries. ``unit_rows`` is checked to pass each row's
power-of-two-scaled squares to ``_exact_row_sums`` once and in order, over
chunks of sparse rows and of wide rows. Scores are compared by their bits
(``float.hex``), so the sign of a zero counts: an exact zero score is +0.0
under either fsum convention in ``FSUMS``.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskrank import embedding as embedding_module
from riskrank.embedding import unit_rows
from riskrank.index import DenseIndex, RankedList, build_dense_index, dense_search_many
from riskrank.index import _MIN_BLOCK_QUERIES

from reference import FSUMS, brute_force_dense, fraction_dot, reference_unit_rows

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# Wide cases give each query at least this many nonzero coordinates: the
# dims up to WIDE_NONZERO + 40 put queries on either side of half their
# coordinates, and 256 and 300 below it, as hash vectors are.
WIDE_NONZERO = 32
wide_dims = st.one_of(st.integers(WIDE_NONZERO, WIDE_NONZERO + 40), st.sampled_from([256, 300]))

def exact_scan(ids, rows, query, k):
    """Rank stored rows as they are (no renormalization) by exact score,
    an exact zero being +0.0."""
    q64 = np.asarray(query, dtype=np.float64)
    qnorm = math.sqrt(math.fsum((q64 * q64).tolist()))
    qn = q64 / qnorm if qnorm != 0.0 else q64
    scored = [(item_id, fraction_dot(row, qn)) for item_id, row in zip(ids, rows)]
    scored.sort(key=lambda pair: pair[0])
    scored.sort(key=lambda pair: pair[1], reverse=True)
    return bits(scored[:k])


def bits(scored):
    return [(item_id, score.hex()) for item_id, score in scored]


def hits(ranking):
    return bits(ranking.hits)


def plant_near_ties(draw, rows, query, k):
    """Copy the k-th ranked row over others: exactly, one float32 ulp off,
    or with its components permuted (an exact tie under a constant query
    that BLAS may sum in a different order)."""
    n = len(rows)
    if n < 2:
        return rows
    rows = rows.copy()
    order = [i for _, i in sorted((-fraction_dot(r, query), i) for i, r in enumerate(rows))]
    anchor = rows[order[min(k, n) - 1]].copy()
    targets = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    for target in targets:
        copy = anchor.copy()
        variant = draw(st.sampled_from(["copy", "ulp", "permuted"]))
        if variant == "ulp":
            j = draw(st.integers(0, len(copy) - 1))
            toward = np.float32(np.inf) if draw(st.booleans()) else np.float32(-np.inf)
            copy[j] = np.nextafter(copy[j], toward)
        elif variant == "permuted":
            copy = copy[draw(st.permutations(range(len(copy))))]
        rows[target] = copy
    for target in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        rows[target] = 0.0
    return rows


@st.composite
def dense_cases(draw, elements, dims=st.integers(1, 8)):
    dim = draw(dims)
    n = draw(st.integers(0, 24))
    n_queries = draw(st.integers(1, 4))
    rows = draw(arrays(np.float32, (n, dim), elements=elements))
    queries = draw(arrays(np.float64, (n_queries, dim), elements=st.floats(-2, 2, width=32)))
    if dim >= WIDE_NONZERO:
        # Each query keeps at least WIDE_NONZERO nonzero coordinates.
        for query in queries:
            query[query == 0.0] = draw(st.floats(2.0**-20, 2, width=32))
            zeros = draw(st.lists(st.integers(0, dim - 1), max_size=dim - WIDE_NONZERO,
                                  unique=True))
            query[zeros] = 0.0
    first = draw(st.sampled_from(["as drawn", "zero", "constant"]))
    if first == "zero":
        queries[0] = 0.0
    elif first == "constant":
        queries[0] = queries[0][0]
    k = draw(st.integers(1, n + 3))
    rows = plant_near_ties(draw, rows, queries[0], k)
    ids = [f"item-{i:02d}" for i in range(n)]
    query_ids = [f"q{i}" for i in range(n_queries)]
    return ids, rows, queries, query_ids, k


@PROPERTY_SETTINGS
@given(dense_cases(st.floats(-1, 1, width=32)))
def test_many_matches_brute_force_on_built_index(case):
    ids, vectors, queries, query_ids, k = case
    index = build_dense_index(ids, vectors.astype(np.float64), dim=vectors.shape[1])
    got = dense_search_many(index, queries, k, query_ids)
    assert [r.query_id for r in got] == query_ids
    for query, ranking in zip(queries, got):
        assert hits(ranking) == bits(brute_force_dense(ids, vectors, query, k))


@PROPERTY_SETTINGS
@given(dense_cases(
    st.one_of(st.floats(-1e6, 1e6, width=32), st.floats(-(2.0**-100), 2.0**-100, width=32))
))
def test_many_matches_exact_scan_on_raw_rows(case):
    ids, rows, queries, query_ids, k = case
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    got = dense_search_many(index, queries, k, query_ids)
    for query, ranking in zip(queries, got):
        assert hits(ranking) == exact_scan(ids, rows, query, k)


@PROPERTY_SETTINGS
@given(dense_cases(st.floats(-1, 1, width=32)))
def test_many_equals_one_query_at_a_time(case):
    ids, rows, queries, query_ids, k = case
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    many = dense_search_many(index, queries, k, query_ids)
    single = [dense_search_many(index, [q], k, [qid])[0]
              for q, qid in zip(queries, query_ids)]
    assert list(many) == single


class DotsCall:
    """One ``_exact_dots`` call: its arguments and result, and the matrices
    it passed to ``_exact_row_sums``."""

    def __init__(self, rows, queries, row_of, query_of):
        self.rows, self.queries, self.row_of, self.query_of = rows, queries, row_of, query_of
        self.kernel, self.sums = [], None

    def check(self):
        """Kernel row t holds exactly the nonzero products of pair t, in
        some order, and a zero sum is +0.0."""
        inputs = np.concatenate(self.kernel) if self.kernel else np.zeros((0, 0))
        assert len(inputs) == len(self.row_of) == len(self.sums)
        for products, r, q, total in zip(inputs, self.row_of, self.query_of, self.sums):
            full = self.rows[r] * self.queries[q]
            assert sorted(products[products != 0.0]) == sorted(full[full != 0.0])
            if total == 0.0:
                assert total.hex() == "0x0.0p+0"


def exact_dots_calls(run):
    """``run()`` and a checked ``DotsCall`` for every ``_exact_dots`` call
    it made; kernel calls made outside ``_exact_dots`` pass unrecorded."""
    dots, kernel = embedding_module._exact_dots, embedding_module._exact_row_sums
    calls, active = [], []

    def record_dots(rows, queries, row_of, query_of):
        call = DotsCall(rows, queries, row_of, query_of)
        calls.append(call)
        active.append(call)
        try:
            call.sums = dots(rows, queries, row_of, query_of)
        finally:
            active.pop()
        call.check()
        return call.sums

    def record_kernel(products):
        if active:
            active[-1].kernel.append(products)
        return kernel(products)

    with mock.patch.object(embedding_module, "_exact_dots", record_dots), \
            mock.patch.object(embedding_module, "_exact_row_sums", record_kernel):
        got = run()
    return got, calls


def kept_pairs_reach_the_kernel(search, index):
    """``search()`` and every matrix its blocks passed to ``_exact_row_sums``,
    checking each ``_exact_dots`` call row by row, and that a block's pairs
    are kept pairs of its queries, each once and by query then row, that
    hold every hit of every query."""
    got, blocks = exact_dots_calls(search)
    assert sum(len(block.queries) for block in blocks) == (len(got) if index.count else 0)
    position = {item_id: i for i, item_id in enumerate(index.item_ids)}
    rankings = iter(got)
    for block in blocks:
        pairs = list(zip(block.query_of.tolist(), block.row_of.tolist()))
        assert pairs == sorted(set(pairs))
        kept = set(pairs)
        for q, ranking in zip(range(len(block.queries)), rankings):
            assert all((q, position[item_id]) in kept for item_id in ranking.item_ids)
    return got, [products for block in blocks for products in block.kernel]


@PROPERTY_SETTINGS
@given(dense_cases(st.floats(-1, 1, width=32), wide_dims))
def test_wide_queries_match_brute_force_bits(case):
    ids, vectors, queries, query_ids, k = case
    index = build_dense_index(ids, vectors.astype(np.float64), dim=vectors.shape[1])
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [bits(brute_force_dense(ids, vectors, q, k)) for q in queries]
        assert [hits(ranking) for ranking in got] == want


@PROPERTY_SETTINGS
@given(dense_cases(
    st.one_of(st.floats(-1e6, 1e6, width=32), st.floats(-(2.0**-100), 2.0**-100, width=32)),
    wide_dims,
))
def test_wide_queries_match_exact_scan_bits(case):
    ids, rows, queries, query_ids, k = case
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [exact_scan(ids, rows, q, k) for q in queries]
        assert [hits(ranking) for ranking in got] == want


def test_exact_ties_that_blas_splits():
    """Permutations of one row tie exactly, yet a fixed summation order
    rounds some of them differently; whichever holds the smallest id must
    still win."""
    tiny = 2.0**-53
    perms = sorted({p for p in itertools.permutations([1.0, tiny, tiny, -1.0])})
    rows = np.array(perms, dtype=np.float32)
    query = np.ones(4)
    for first in range(len(perms)):
        ids = [f"item-{(i - first) % len(perms):02d}" for i in range(len(perms))]
        index = DenseIndex(item_ids=tuple(ids), matrix=rows)
        for k in (1, 3):
            (got,) = dense_search_many(index, query[None, :], k, ["q"])
            assert hits(got) == exact_scan(ids, rows, query, k)
            assert got.item_ids == [f"item-{i:02d}" for i in range(k)]


def test_negative_zero_products_score_plus_zero_under_both_conventions():
    """Every product of the row and the query is -0.0, a sum that fsum may
    sign either way; the score is +0.0 under both conventions."""
    rows = np.array([[0.0, 0.0]], dtype=np.float32)
    query = np.array([[-0.0, -0.0]])
    for index in (DenseIndex(item_ids=("item-00",), matrix=rows),
                  build_dense_index(["item-00"], rows)):
        for fsum in FSUMS:
            with mock.patch.object(math, "fsum", fsum):
                (got,) = dense_search_many(index, query, 1, ["q"])
            assert hits(got) == [("item-00", "0x0.0p+0")]


def test_a_zero_query_makes_no_fsum_call():
    """Each score of a zero query is an exact zero that the kernel
    certifies, so no pair, and not the query's norm, goes to fsum."""
    rng = np.random.default_rng(3)
    n, dim = 40, 16
    ids = [f"item-{i:02d}" for i in range(n)]
    index = build_dense_index(ids, rng.normal(size=(n, dim)))
    with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        (got,) = dense_search_many(index, np.zeros((1, dim)), n, ["q"])
    assert fsum.call_count == 0
    assert hits(got) == [(item_id, "0x0.0p+0") for item_id in ids]


def test_a_zero_query_verifies_only_its_k_first_ids():
    """A zero query (+0.0 or -0.0 everywhere) scores +0.0 on every row, so
    at most k of its pairs reach ``_exact_dots`` and its ranking is the
    full scan's, the k first ids, whatever the other queries of its block.
    Ids are out of order in the index."""
    rng = np.random.default_rng(5)
    n, dim = 300, 16
    ids = [f"item-{i:03d}" for i in rng.permutation(n)]
    vectors = rng.normal(size=(n, dim))
    index = build_dense_index(ids, vectors)
    nonzero = rng.normal(size=(3, dim))
    nonzero[1, :12] = 0.0  # a sparse query
    blocks = [
        np.zeros((1, dim)),
        np.vstack([nonzero[0], np.zeros(dim), nonzero[1], np.full(dim, -0.0), nonzero[2]]),
        np.zeros((_MIN_BLOCK_QUERIES + 3, dim)),  # two blocks of zero queries
    ]
    for queries in blocks:
        zero = ~queries.any(axis=1)
        for k in (1, 7, n, n + 3):
            query_ids = [f"q{i}" for i in range(len(queries))]
            got, calls = exact_dots_calls(
                lambda: dense_search_many(index, queries, k, query_ids)
            )
            sent = np.zeros(len(queries), dtype=np.int64)
            start = 0
            for call in calls:
                sent[start:start + len(call.queries)] += np.bincount(
                    call.query_of, minlength=len(call.queries)
                )
                start += len(call.queries)
            assert (sent[zero] <= k).all()
            for query, ranking in zip(queries, got):
                assert hits(ranking) == bits(brute_force_dense(ids, vectors, query, k))
            assert all(r.item_ids == sorted(ids)[:k] for r, z in zip(got, zero) if z)


def test_query_blocks_and_wide_ties():
    """More queries than one block holds, and a tie band wider than k."""
    rng = np.random.default_rng(7)
    n, dim, k = 4_000, 6, 5
    vectors = rng.normal(size=(n, dim))
    vectors[: n // 2] = vectors[0]  # 2 000 rows tie at the top score
    ids = [f"item-{i:04d}" for i in range(n)]
    index = build_dense_index(ids, vectors)
    queries = np.vstack([vectors[0], rng.normal(size=(_MIN_BLOCK_QUERIES + 5, dim))])
    queries[1::3, :4] = 0.0  # every third query is sparse
    query_ids = [f"q{i}" for i in range(len(queries))]
    got = dense_search_many(index, queries, k, query_ids)
    assert [r.query_id for r in got] == query_ids
    for query, ranking in zip(queries, got):
        assert hits(ranking) == bits(brute_force_dense(ids, vectors, query, k))
    assert got[0].item_ids == ids[:k]


@st.composite
def sparse_cases(draw, elements):
    """Queries with one to three nonzero coordinates and +0 or -0 elsewhere.

    The first query's nonzero coordinates share one magnitude, and some rows
    are planted to hold, at those coordinates, either only zeros of either
    sign or values whose products cancel exactly (negative components
    included); their other coordinates are drawn as usual.
    """
    dim = draw(st.integers(2, 10))
    n = draw(st.integers(1, 24))
    n_queries = draw(st.integers(1, 4))
    rows = draw(arrays(np.float32, (n, dim), elements=elements))
    queries = np.where(draw(arrays(np.bool_, (n_queries, dim))), -0.0, 0.0)
    for i, query in enumerate(queries):
        nonzero = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=3, unique=True))
        if i == 0:
            scale = draw(st.floats(2.0**-20, 2.0, width=32))
            values = [scale * draw(st.sampled_from([-1.0, 1.0])) for _ in nonzero]
        else:
            values = [draw(st.floats(-2, 2, width=32).filter(bool)) for _ in nonzero]
        query[nonzero] = values
    first = queries[0]
    support = np.flatnonzero(first)
    for target in draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)):
        if draw(st.booleans()):
            rows[target, support] = draw(arrays(
                np.float32, len(support), elements=st.sampled_from([0.0, -0.0])
            ))
        else:
            magnitude = draw(st.floats(2.0**-30, 1, width=32))
            signs = draw(st.permutations([1.0, -1.0] * (len(support) // 2)))
            planted = [magnitude * s * math.copysign(1.0, first[j]) for s, j in zip(signs, support)]
            if len(support) % 2:  # the unpaired last coordinate holds a zero
                planted.append(draw(st.sampled_from([0.0, -0.0])))
            rows[target, support] = planted
    k = draw(st.integers(1, n + 3))
    ids = [f"item-{i:02d}" for i in range(n)]
    query_ids = [f"q{i}" for i in range(n_queries)]
    return ids, rows, queries, query_ids, k


@PROPERTY_SETTINGS
@given(sparse_cases(st.floats(-1, 1, width=32)))
def test_sparse_queries_match_brute_force_bits(case):
    ids, vectors, queries, query_ids, k = case
    index = build_dense_index(ids, vectors.astype(np.float64))
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [bits(brute_force_dense(ids, vectors, q, k)) for q in queries]
        assert [hits(ranking) for ranking in got] == want


@PROPERTY_SETTINGS
@given(sparse_cases(
    st.one_of(st.floats(-1e6, 1e6, width=32), st.floats(-(2.0**-100), 2.0**-100, width=32))
))
def test_sparse_queries_match_exact_scan_bits(case):
    ids, rows, queries, query_ids, k = case
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [exact_scan(ids, rows, q, k) for q in queries]
        assert [hits(ranking) for ranking in got] == want


@st.composite
def mixed_blocks(draw, elements):
    """One block of sparse, wide and zero queries, in any order, with zeros
    of either sign: a sparse query holds at most half its coordinates
    nonzero and a wide one more than half, so a block holding a wide query
    is verified over full rows and any other over its widest query's
    nonzero count. The last value is the products per kernel call that the
    verify aims at, small ones splitting a block's pairs over many calls."""
    dim = draw(st.one_of(st.integers(2, 12), st.sampled_from([64, 256])))
    n = draw(st.integers(1, 24))
    rows = draw(arrays(np.float32, (n, dim), elements=elements))
    kinds = draw(st.lists(st.sampled_from(["sparse", "wide", "zero"]), min_size=1, max_size=6))
    queries = np.where(draw(arrays(np.bool_, (len(kinds), dim))), -0.0, 0.0)
    for query, kind in zip(queries, kinds):
        if kind == "zero":
            continue
        count = draw(st.integers(1, dim // 2) if kind == "sparse" else st.integers(dim // 2 + 1, dim))
        nonzero = draw(st.permutations(range(dim)))[:count]
        query[nonzero] = [draw(st.floats(-2, 2, width=32).filter(bool)) for _ in nonzero]
    k = draw(st.integers(1, n + 3))
    rows = plant_near_ties(draw, rows, queries[0], k)
    ids = [f"item-{i:02d}" for i in range(n)]
    query_ids = [f"q{i}" for i in range(len(kinds))]
    return ids, rows, queries, query_ids, k, draw(st.sampled_from([1, 16, 16_384]))


def products_per_call(count):
    return mock.patch.object(embedding_module, "_TERMS_PER_CALL", count)


@PROPERTY_SETTINGS
@given(mixed_blocks(st.floats(-1, 1, width=32)))
def test_mixed_blocks_match_brute_force_bits(case):
    ids, vectors, queries, query_ids, k, per_call = case
    index = build_dense_index(ids, vectors.astype(np.float64))
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum), products_per_call(per_call):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [bits(brute_force_dense(ids, vectors, q, k)) for q in queries]
        assert [hits(ranking) for ranking in got] == want


@PROPERTY_SETTINGS
@given(mixed_blocks(
    st.one_of(st.floats(-1e6, 1e6, width=32), st.floats(-(2.0**-100), 2.0**-100, width=32))
))
def test_mixed_blocks_match_exact_scan_bits(case):
    ids, rows, queries, query_ids, k, per_call = case
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum), products_per_call(per_call):
            got, _ = kept_pairs_reach_the_kernel(
                lambda: dense_search_many(index, queries, k, query_ids), index
            )
            want = [exact_scan(ids, rows, q, k) for q in queries]
        assert [hits(ranking) for ranking in got] == want


def test_one_row_sends_a_whole_kernel_call_to_fsum():
    """A row whose product reaches 2**1023 fails the range check of
    ``_exact_row_sums``, so every row of its call goes to fsum, over the
    nonzero coordinates of one-hot queries and over full rows for a block
    with a wide query. Float32 rows cannot get there, so this index stores
    float64 rows."""
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(30, 8))
    rows[7] = 0.0
    rows[7, 0] = 1.5 * 2.0**1023
    rows[9, 3] = -0.0
    ids = [f"item-{i:02d}" for i in range(len(rows))]
    index = DenseIndex(item_ids=tuple(ids), matrix=rows)
    one_hot = np.eye(8)[[0, 3]]
    blocks = [one_hot, np.vstack([one_hot, rng.normal(size=8), np.zeros(8)])]
    for queries, k in itertools.product(blocks, (1, 5, 40)):
        query_ids = [f"q{i}" for i in range(len(queries))]
        for fsum in FSUMS:
            with mock.patch.object(math, "fsum", fsum):
                got, calls = kept_pairs_reach_the_kernel(
                    lambda: dense_search_many(index, queries, k, query_ids), index
                )
                want = [exact_scan(ids, rows, q, k) for q in queries]
            assert [hits(ranking) for ranking in got] == want
            assert any(float(np.abs(p).max()) * p.shape[1] >= 2.0**1023 for p in calls)


vector_components = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e150, 1e150),
    st.floats(-(2.0**-1022), 2.0**-1022),  # subnormals: their squares underflow
)


@st.composite
def raw_vectors(draw, dims=st.integers(1, 12)):
    """float64 rows up to 1e150 or float32 rows over the full finite range,
    with subnormal components and some rows set to zeros of either sign."""
    shape = (draw(st.integers(1, 10)), draw(dims))
    if draw(st.booleans()):
        vectors = draw(arrays(np.float64, shape, elements=vector_components))
    else:
        finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
        vectors = draw(arrays(np.float32, shape, elements=finite32))
    for target in draw(st.lists(st.integers(0, shape[0] - 1), max_size=2, unique=True)):
        vectors[target] = draw(st.sampled_from([0.0, -0.0]))
    return vectors


@PROPERTY_SETTINGS
@given(raw_vectors())
def test_built_rows_match_reference_bits(vectors):
    ids = [f"item-{i:02d}" for i in range(len(vectors))]
    index = build_dense_index(ids, vectors)
    want = reference_unit_rows(vectors)
    assert index.matrix.dtype == want.dtype == np.float32
    assert np.array_equal(index.matrix.view(np.uint32), want.view(np.uint32))


@PROPERTY_SETTINGS
@given(raw_vectors(wide_dims))
def test_dense_unit_rows_match_reference_bits(vectors):
    ids = [f"item-{i:02d}" for i in range(len(vectors))]
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            got = unit_rows(vectors, ids).astype(np.float32)
            want = reference_unit_rows(vectors)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@st.composite
def sparse_or_wide_rows(draw):
    """``raw_vectors`` whose rows are all sparse (at most half their
    coordinates nonzero), all as drawn, or each one or the other, and the
    squares per kernel call that ``unit_rows`` aims at."""
    vectors = draw(raw_vectors(st.one_of(st.integers(1, 12), wide_dims)))
    kind = draw(st.sampled_from(["sparse", "as drawn", "mixed"]))
    dim = vectors.shape[1]
    for row in vectors:
        if kind == "sparse" or kind == "mixed" and draw(st.booleans()):
            zeros = draw(st.permutations(range(dim)))[:dim - draw(st.integers(0, dim // 2))]
            row[zeros] = draw(st.sampled_from([0.0, -0.0]))
    return vectors, draw(st.sampled_from([1, 16, 16_384]))


@PROPERTY_SETTINGS
@given(sparse_or_wide_rows())
def test_unit_rows_reach_the_kernel_row_by_row(case):
    """``unit_rows`` passes the squares of each row, scaled by the power of
    two that brings its largest entry into [2**(top-1), 2**top), to
    ``_exact_row_sums``, every row once and in order, and makes no
    ``_exact_dots`` call."""
    vectors, per_call = case
    ids = [f"item-{i:02d}" for i in range(len(vectors))]
    sent = []

    def record_kernel(products, kernel=embedding_module._exact_row_sums):
        sent.append(products.copy())
        return kernel(products)

    with products_per_call(per_call), \
            mock.patch.object(embedding_module, "_exact_row_sums", record_kernel):
        got, calls = exact_dots_calls(lambda: unit_rows(vectors, ids))
    want = reference_unit_rows(vectors)
    assert np.array_equal(got.astype(np.float32).view(np.uint32), want.view(np.uint32))
    assert calls == []
    rows = vectors.astype(np.float64)
    top = (1023 - rows.shape[1].bit_length()) // 2
    _, exponents = np.frexp(np.abs(rows).max(axis=1))
    scaled = np.ldexp(rows, (top - exponents)[:, None])
    assert np.array_equal(np.concatenate(sent).view(np.uint64), (scaled * scaled).view(np.uint64))


def test_empty_inputs():
    empty = build_dense_index([], [], dim=3)
    assert list(dense_search_many(empty, np.ones((2, 3)), 4, ["a", "b"])) == [
        RankedList(query_id="a", hits=()),
        RankedList(query_id="b", hits=()),
    ]
    index = build_dense_index(["x"], [np.ones(3)])
    assert list(dense_search_many(index, np.zeros((0, 3)), 4, [])) == []
    assert list(dense_search_many(index, [], 4, [])) == []
