"""Property tests: ``_exact_row_sums`` against ``math.fsum``, row by row.

The kernel must return fsum's bits for every row, an exact zero as +0.0
(compared by ``float.hex``, so the sign of a zero counts), and raise what
fsum raises, under either fsum convention in ``FSUMS``.
The rows sit where a certified sum could go wrong: sums that cancel to +-0,
sums that land exactly on a rounding midpoint or next to one, sums at and
around a power of two (where the float gap halves), subnormal terms, and
terms near the float64 maximum, where fsum itself overflows. Widths run
from 1 through sizes that are not powers of two up to 300.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskrank.embedding import _exact_row_sums

from reference import FSUMS, fraction_dot

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
widths = st.one_of(st.just(1), st.integers(2, 40), st.integers(41, 300))


def fsum_or_error(row):
    """fsum's bits for ``row``, an exact zero as +0.0, or the type of the
    exception it raises."""
    try:
        return (math.fsum(row) + 0.0).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def check(rows):
    """The kernel over ``rows``, under each fsum convention, gives each
    row's fsum bits, or raises the exception fsum raises on the first row
    that raises one."""
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    want = [fsum_or_error(row) for row in matrix.tolist()]
    errors = [w for w in want if isinstance(w, type)]
    for fsum in FSUMS:
        with mock.patch.object(math, "fsum", fsum):
            try:
                got = [score.hex() for score in _exact_row_sums(matrix)]
            except (OverflowError, ValueError) as exc:
                assert errors and type(exc) is errors[0]
                continue
        assert not errors
        assert got == want


def permuted(draw, terms):
    return [terms[i] for i in draw(st.permutations(range(len(terms))))]


@st.composite
def random_matrices(draw):
    """Rows of one width with terms from one magnitude class, or mixed."""
    shape = (draw(st.integers(1, 5)), draw(widths))
    elements = draw(st.sampled_from([
        st.floats(-1, 1),
        finite,
        st.floats(-(2.0**-1000), 2.0**-1000),  # subnormals and tiny normals
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)),
        st.one_of(st.floats(1e300, 1.7e308), st.floats(-1.7e308, -1e300)),
    ]))
    return draw(arrays(np.float64, shape, elements=elements))


@st.composite
def cancelling_rows(draw):
    """Terms and their negatives, zeros of either sign, and at most one
    small term left over: the sum is +-0, or that term, or near it."""
    values = draw(st.lists(finite.filter(lambda v: abs(v) < 1e300), min_size=0, max_size=120))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=4))
    rest = draw(st.sampled_from([[], [2.0**-1074], [-(2.0**-1074)], [1e-300], [1.0]]))
    terms = values + [-v for v in values] + zeros + rest
    return permuted(draw, terms or [-0.0])


def split(draw, value, parts):
    """``value`` as ``parts`` terms that add up to it exactly: pairs x, -x
    of unrelated magnitudes join it."""
    terms = [value]
    for _ in range(parts - 1):
        other = draw(st.floats(-1e10, 1e10).filter(bool))
        terms += [other, -other]
    return terms


@st.composite
def midpoint_rows(draw):
    """Exact sums on the midpoint between two neighbouring floats, or one
    tiny term off it: round half to even, or away from the midpoint."""
    h = draw(st.floats(-1e100, 1e100).filter(lambda v: abs(v) > 1e-200))
    up = np.nextafter(h, math.copysign(math.inf, h))
    half = (up - h) / 2
    quarters = draw(st.booleans())
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * abs(half) * 2.0**-60
    terms = [h] + ([half / 2, half / 2] if quarters else [half])
    if nudge:
        terms.append(nudge)
    return permuted(draw, split(draw, 0.0, draw(st.integers(1, 20)))[1:] + terms)


@st.composite
def power_of_two_rows(draw):
    """Sums at 2**k or a few fractions of the gap below it away, where the
    gap below 2**k is half the gap above, or one tiny term off those."""
    k = draw(st.integers(-900, 900))
    step = draw(st.sampled_from([-3, -2, -1.5, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * 2.0 ** (k - 130)
    terms = [sign * 2.0**k, sign * step * 2.0 ** (k - 54)] + ([nudge] if nudge else [])
    return permuted(draw, split(draw, 0.0, draw(st.integers(1, 30)))[1:] + terms)


@st.composite
def subnormal_rows(draw):
    """Subnormal terms, with sums that stay subnormal or reach the normal range."""
    size = draw(st.integers(1, 300))
    scale = draw(st.sampled_from([1, 2**20, 2**52, 2**60]))
    ints = draw(st.lists(st.integers(-(2**20), 2**20), min_size=size, max_size=size))
    return [math.ldexp(i * scale, -1074) if abs(i * scale) < 2**53 else 0.0 for i in ints]


@st.composite
def overflow_rows(draw):
    """Terms near the float64 maximum: some prefixes of the row overflow
    while the whole sum may not."""
    big = st.floats(1e307, 1.7e308)
    terms = draw(st.lists(big, min_size=1, max_size=6))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=len(terms), max_size=len(terms)))
    extra = draw(st.lists(st.floats(-1, 1), max_size=10))
    return permuted(draw, [t * s for t, s in zip(terms, signs)] + extra + [0.0])


@PROPERTY_SETTINGS
@given(random_matrices())
def test_random_rows(matrix):
    check(matrix)


@PROPERTY_SETTINGS
@given(st.lists(
    st.one_of(cancelling_rows(), midpoint_rows(), power_of_two_rows(), subnormal_rows()),
    min_size=1, max_size=4,
))
def test_adversarial_rows(rows):
    # Rows of one call share a width: shorter rows are padded with +0.0,
    # which changes no sum, an exact zero being +0.0 either way.
    width = max(len(row) for row in rows)
    check([row + [0.0] * (width - len(row)) for row in rows])


@PROPERTY_SETTINGS
@given(st.lists(cancelling_rows(), min_size=1, max_size=3))
def test_each_cancelling_row_alone(rows):
    for row in rows:
        check([row])


@PROPERTY_SETTINGS
@given(st.lists(overflow_rows(), min_size=1, max_size=3), st.booleans())
def test_rows_near_overflow(rows, with_plain_row):
    width = max(len(row) for row in rows)
    rows = [row + [0.0] * (width - len(row)) for row in rows]
    if with_plain_row:
        rows.insert(0, [0.5] * width)
    check(rows)


def test_fsum_overflow_is_kept():
    # A prefix of each row overflows; the tree sums of the first row do not.
    check([[1e308, 0.0, 1e308, -1e308]])
    check([[1e308, 1e308, -1e308, -1e308], [1.0, 2.0, 3.0, 4.0]])
    check([[math.inf, 1.0], [1.0, 1.0]])
    check([[math.inf, -math.inf]])
    check([[math.nan, 1.0]])


def test_just_past_the_midpoint_below_a_power_of_two():
    # The tree's errors -2**-54 and -2**-130 do not add up exactly, and the
    # rounded sum 1 - 2**-54 sits on the midpoint below 1, where the gap is
    # half the gap above 1; the exact sum is past it and rounds down.
    check([[1.0, 0.0, -(2.0**-54), -(2.0**-130)]])
    check([[-1.0, 0.0, 2.0**-54, 2.0**-130]])


def test_one_error_term_is_certified_on_a_midpoint():
    """Each sum is a rounding tie, where the rounding test cannot pass, but
    the tree leaves one nonzero error term, so the error sum is exact and
    the kernel certifies every row without calling fsum."""
    rows = [
        [1.0, 2.0**-53, 0.0, 0.0],
        [1.0 + 2.0**-52, 2.0**-53, 0.0, 0.0],
        [-1.0, 0.0, -(2.0**-53), 0.0],
        [float.fromhex("0x1.302c60266fe63p-3"), float.fromhex("0x1.95907f1c8d4dbp-4"), 0.0, 0.0],
    ]
    want = [math.fsum(row).hex() for row in rows]
    with mock.patch.object(math, "fsum", side_effect=AssertionError("fsum called")):
        got = [total.hex() for total in _exact_row_sums(np.array(rows))]
    assert got == want


def test_edge_shapes():
    check([[3.0]])
    check([[-0.0]])
    assert _exact_row_sums(np.zeros((2, 0))).tolist() == [0.0, 0.0]
    assert _exact_row_sums(np.zeros((0, 5))).tolist() == []


def test_few_rows_fall_back():
    """Dot products of unit rows, as dense search scores them: the kernel
    certifies at least 99% of them (a kernel that sent every row to fsum
    would pass every other test here)."""
    rng = np.random.default_rng(2024)
    rows = rng.normal(size=(1000, 256))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows = rows.astype(np.float32).astype(np.float64)
    query = rng.normal(size=256)
    query /= np.linalg.norm(query)
    products = rows * query
    with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        sums = _exact_row_sums(products)
    assert fsum.call_count < 10
    assert [s.hex() for s in sums] == [math.fsum(p).hex() for p in products.tolist()]


def sum_of_fractions_dot(u, v) -> float:
    """``fraction_dot`` as it was first written: one Fraction per product."""
    products = np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64)
    return float(sum(Fraction(p) for p in products.tolist()))


def outcome(dot, u, v):
    """The bits of ``dot(u, v)``, or the type of the exception it raises (a
    product that overflows warns, and the suite makes warnings errors)."""
    try:
        return dot(u, v).hex()
    except (OverflowError, ValueError, RuntimeWarning) as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(st.one_of(
    random_matrices().map(lambda matrix: matrix[0].tolist()),
    cancelling_rows(), midpoint_rows(), power_of_two_rows(), subnormal_rows(), overflow_rows(),
), st.one_of(st.just(1.0), finite, st.floats(-(2.0**-500), 2.0**-500), st.just(-0.0)))
def test_fraction_dot_matches_a_sum_of_fractions(row, scale):
    """``fraction_dot``'s one integer sum gives the bits of a sum of one
    Fraction per product, or raises what it raises, on rows across the
    exponent range, subnormal and cancelling rows, rounding ties and sums
    that overflow; products of ``scale`` round, underflow and overflow."""
    others = [scale] * len(row)
    assert outcome(fraction_dot, row, others) == outcome(sum_of_fractions_dot, row, others)
