"""Tokenizer, hashed embedder, and vector-math contracts."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riskrank.embedding import (
    HashEmbedder,
    tokenize,
    unit_rows,
)
from riskrank.embedding import _ROW_CHUNK, _hash_rows
from riskrank.index import build_dense_index, dense_search_many

from reference import exact_norm, reference_hash_embed, reference_tokenize, reference_unit_rows


class TestTokenize:
    def test_basic(self):
        assert tokenize("Credit exposure!") == ["credit", "exposure"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_and_digits(self):
        assert tokenize("VaR-99.5%") == ["var", "99", "5"]

    def test_underscore_splits(self):
        assert tokenize("loss_given_default") == ["loss", "given", "default"]

    @pytest.mark.parametrize(
        "text",
        [
            "\x1c\x1d\x1e\x1f",  # separators that str.split() splits on
            "A\x0bB\x0cC\x85D",  # vertical tab, form feed, next line
            "\u212a",  # Kelvin sign: lowercases to an ASCII "k"
            "İstanbul",  # lowercases to "i" plus a combining dot
            "ＡＢ１２",  # full-width letters and digits
            "loss_given_default",
            "",
        ],
    )
    def test_matches_reference_on_edge_cases(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestL2Normalize:
    """``unit_rows``: each row over its exact norm, zero rows kept."""

    def test_three_four_five(self):
        out = unit_rows(np.array([[3.0, 4.0]]), ["a"])
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)
        assert out.dtype == np.float64

    def test_zero_vector_unchanged(self):
        out = unit_rows(np.array([[0.0, -0.0], [1.0, 0.0]]), ["z", "x"])
        assert out[0].tobytes() == np.array([0.0, -0.0]).tobytes()

    def test_symmetry(self):
        out = unit_rows(np.ones((1, 4)), ["a"])
        np.testing.assert_allclose(out, [[0.5, 0.5, 0.5, 0.5]], rtol=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="row 'b' has non-finite"):
            unit_rows(np.array([[1.0, 0.0], [1.0, np.nan]]), ["a", "b"])
        with pytest.raises(ValueError, match="query 'q' has non-finite"):
            unit_rows(np.array([[np.inf, 0.0]]), ["q"], "query")

    def test_norm_is_zero_or_one(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            dim = int(rng.integers(1, 64))
            v = rng.normal(scale=rng.uniform(1e-3, 1e3), size=(1, dim))
            norm = float(np.linalg.norm(unit_rows(v, ["v"]).astype(np.float32).astype(np.float64)))
            assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0

    def test_input_is_not_modified(self):
        v = np.array([[3.0, 4.0]])
        unit_rows(v, ["a"])
        assert v.tolist() == [[3.0, 4.0]]


class TestExactArithmetic:
    """The norm is the square root of the exactly rounded sum of squares."""

    def test_exact_norm_definition(self):
        v = np.array([3.0, 4.0])
        assert exact_norm(v) == 5.0


class TestHashEmbed:
    """The hash kernel ``_hash_rows`` on token lists."""

    def test_empty_tokens_zero_vector(self):
        out = _hash_rows([[]], dim=16, seed=0)
        assert np.array_equal(out, np.zeros((1, 16), dtype=np.float32))

    def test_deterministic(self):
        tokens = ["credit", "risk", "credit"]
        a = _hash_rows([tokens], dim=32, seed=9)
        b = _hash_rows([tokens], dim=32, seed=9)
        assert np.array_equal(a, b)

    def test_single_token_unit_coordinate(self):
        out = _hash_rows([["risk"]], dim=8, seed=0)[0]
        nonzero = np.nonzero(out)[0]
        assert len(nonzero) == 1
        assert abs(out[nonzero[0]]) == 1.0

    def test_seed_changes_layout(self):
        a = _hash_rows([["risk", "capital"]], dim=64, seed=0)
        b = _hash_rows([["risk", "capital"]], dim=64, seed=1)
        assert not np.array_equal(a, b)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            _hash_rows([["x"]], dim=0, seed=0)

    def test_purity_over_random_token_lists(self):
        rng = np.random.default_rng(23)
        words = [f"w{i}" for i in range(200)]
        for _ in range(1000):
            tokens = [words[i] for i in rng.integers(0, len(words), size=rng.integers(0, 12))]
            dim = int(rng.integers(1, 48))
            seed = int(rng.integers(0, 2**63))
            first = _hash_rows([tokens], dim, seed)
            again = _hash_rows([tokens], dim, seed)
            assert first.dtype == again.dtype == np.float32
            assert np.array_equal(first, again)


class TestHashEmbedder:
    def test_batch_matches_single(self):
        embedder = HashEmbedder(dim=32, seed=2)
        texts = ["credit exposure", "stress testing", ""]
        matrix = embedder.embed(texts)
        assert matrix.shape == (3, 32)
        for row, text in zip(matrix, texts):
            assert np.array_equal(row, embedder(text))

    def test_model_id_carries_parameters(self):
        assert HashEmbedder(dim=8, seed=3).model_id == "hash-d8-s3"

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashEmbedder(dim=0)


GOLDEN_TEXTS = (
    [
        "",
        "   ",
        "Credit exposure at default",
        "VaR-99.5% stressed VaR",
        "risk risk risk risk capital risk",
        "loss_given_default LGD lgd Lgd",
        "Ünïcödé Straße STRASSE naïve café",
        "信用风险 市场风险 δ-hedge Ω",
        "!!! --- ???",
        "a b c d e f g h i j k l m n o p q r s t u v w x y z",
    ]
    + [f"context {i} liquidity coverage ratio {i % 7} tier {i % 13} risk" for i in range(300)]
    + ["capital " * 40 + "buffer"]
)

# SHA-256 of HashEmbedder(dim, seed).embed(GOLDEN_TEXTS).tobytes(), recorded
# from the token-at-a-time embedder that the batch kernel replaced.
GOLDEN_SHA256 = {
    (1, 0): "963ad352b7f6bfe9c8b43e69faa2db218fb5c767ca5e550b8fd4f32c570dadf0",
    (7, 3): "de8736057677d28a60e4668b7098add3d35fb83dea6646cfecbcde0dec194d18",
    (64, 2**63): "b5e8a03addcb23c5363316166b52c8ee627f5538768da455b88f91a901da5324",
    (256, 0): "b73613d6d729bcfc94eeb9ad4bebc3d9b5170510acba1ca0c82bc44c8a80b53f",
    (300, 2**64 - 1): "ad49190a232b72dfa120ae35098b7454c71b2c586340e37cb9b9f5cef303ed76",
}


class TestHashVectorPin:
    """Every entry point reproduces the pinned vector bytes."""

    @pytest.mark.parametrize("dim,seed", sorted(GOLDEN_SHA256))
    def test_embed_bytes(self, dim, seed):
        matrix = HashEmbedder(dim, seed).embed(GOLDEN_TEXTS)
        assert matrix.shape == (len(GOLDEN_TEXTS), dim)
        assert matrix.dtype == np.float32
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == GOLDEN_SHA256[dim, seed]

    @pytest.mark.parametrize("dim,seed", sorted(GOLDEN_SHA256))
    def test_single_text_paths_match_rows(self, dim, seed):
        embedder = HashEmbedder(dim, seed)
        matrix = embedder.embed(GOLDEN_TEXTS)
        for row, text in zip(matrix, GOLDEN_TEXTS):
            assert row.tobytes() == _hash_rows([tokenize(text)], dim, seed)[0].tobytes()
            assert row.tobytes() == embedder(text).tobytes()


PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

WORDS = ["risk", "capital", "Risk", "VaR", "信用", "straße", "99"]

texts = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
)


@st.composite
def hash_batches(draw):
    """A batch of texts: random unicode and repeated words, either a handful
    or a batch that runs just under, onto or past a row-chunk boundary."""
    pool = draw(st.lists(texts, min_size=1, max_size=6))
    size = draw(st.one_of(
        st.integers(0, len(pool)),
        st.sampled_from([_ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 3]),
    ))
    if size <= len(pool):
        return pool[:size]
    return [f"{pool[i % len(pool)]} n{i % 5}" for i in range(size)]


seeds = st.one_of(
    st.integers(0, 2**16),
    st.integers(2**63 - 2, 2**64 + 2),
    st.integers(-(2**70), 2**70),
)


class TestHashKernelProperties:
    """The batch kernel against the token-at-a-time definition, bit for bit."""

    @PROPERTY_SETTINGS
    @given(hash_batches(), st.integers(1, 300), seeds)
    def test_embed_matches_reference(self, batch, dim, seed):
        matrix = HashEmbedder(dim, seed).embed(batch)
        assert matrix.shape == (len(batch), dim)
        assert matrix.dtype == np.float32
        expected = (
            np.stack([reference_hash_embed(tokenize(t), dim, seed) for t in batch])
            if batch
            else np.zeros((0, dim), dtype=np.float32)
        )
        assert np.array_equal(matrix.view(np.uint32), expected.view(np.uint32))

    @PROPERTY_SETTINGS
    @given(texts, st.integers(1, 300), seeds)
    def test_single_text_paths_match_reference(self, text, dim, seed):
        expected = reference_hash_embed(tokenize(text), dim, seed).view(np.uint32)
        assert np.array_equal(_hash_rows([tokenize(text)], dim, seed)[0].view(np.uint32), expected)
        assert np.array_equal(HashEmbedder(dim, seed)(text).view(np.uint32), expected)

    @pytest.mark.parametrize("dim", [1, 7, 256])
    def test_empty_batch_shape(self, dim):
        matrix = HashEmbedder(dim).embed([])
        assert matrix.shape == (0, dim)
        assert matrix.dtype == np.float32


norm_vectors = st.one_of(
    arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e150, 1e150),
        st.floats(-(2.0**-1022), 2.0**-1022),  # subnormals: their squares underflow
    )),
    arrays(np.float32, st.integers(0, 40),
           elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
)


@PROPERTY_SETTINGS
@given(norm_vectors)
def test_exact_norm_equals_full_sum_of_squares(v):
    v64 = v.astype(np.float64)
    assert exact_norm(v).hex() == math.sqrt(math.fsum((v64 * v64).tolist())).hex()


# float64 components up to 1e153 (12 squares still sum below the float64
# maximum) with subnormals, or float32 over its full finite range.
unit_row_matrices = st.integers(1, 12).flatmap(lambda dim: st.one_of(
    arrays(np.float64, st.tuples(st.integers(0, 8), st.just(dim)), elements=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(-1e153, 1e153),
        st.floats(-(2.0**-1022), 2.0**-1022),
    )),
    arrays(np.float32, st.tuples(st.integers(0, 8), st.just(dim)),
           elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
))


@PROPERTY_SETTINGS
@given(unit_row_matrices, st.data())
def test_unit_rows_match_reference_bits(matrix, data):
    for target in data.draw(st.lists(st.integers(0, 7), max_size=2, unique=True)):
        if target < len(matrix):
            matrix[target] = data.draw(st.sampled_from([0.0, -0.0]))
    ids = [f"r{i}" for i in range(len(matrix))]
    out = unit_rows(matrix, ids)
    assert out.dtype == np.float64 and out.shape == matrix.shape
    want = (
        reference_unit_rows(matrix)
        if len(matrix)
        else np.zeros(matrix.shape, dtype=np.float32)
    )
    assert np.array_equal(out.astype(np.float32).view(np.uint32), want.view(np.uint32))
    if len(matrix):
        bad = data.draw(st.integers(0, len(matrix) - 1))
        matrix[bad, data.draw(st.integers(0, matrix.shape[1] - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
        with pytest.raises(ValueError, match=rf"row 'r{bad}' has non-finite values"):
            unit_rows(matrix, ids)


# Entries 0 or of magnitude 2**-200 to 2**200: every square and every sum of
# 12 squares is a normal float64, so scaling by 2**k for |k| <= 800 must
# leave the normalized rows' bits unchanged: k up to 800 drives squares and
# sums up to 2**2000, past overflow, and k down to -800 drives squares down
# to 2**-2000, below the normal range, while every entry stays normal.
scalable_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(2.0**-200, 2.0**200),
        st.floats(-(2.0**200), -(2.0**-200)),
    ),
)


@PROPERTY_SETTINGS
@given(scalable_matrices, st.integers(-800, 800))
def test_unit_rows_ignore_power_of_two_scale(matrix, k):
    ids = [f"r{i}" for i in range(len(matrix))]
    scaled = unit_rows(np.ldexp(matrix, k), ids)
    assert scaled.tobytes() == unit_rows(matrix, ids).tobytes()


def test_unit_rows_whose_squares_overflow():
    # 1e154**2 is finite but two of them overflow fsum; 1e200**2 is inf.
    rows = np.array([[1e154, 1e154], [1e200, 1.0]])
    out = unit_rows(rows, ["a", "b"])
    assert out.tobytes() == unit_rows(np.ldexp(rows, -600), ["a", "b"]).tobytes()
    assert out[1].tolist() == [1.0, 1.0 / 1e200]
    assert build_dense_index(["b"], [rows[1]]).matrix.tolist() == [[1.0, 0.0]]


def test_unit_rows_whose_squares_underflow():
    # 1e-200**2 is below the smallest subnormal, so the unscaled norm is 0.
    rows = np.array([[1e-200, 2e-200]])
    out = unit_rows(rows, ["a"])
    assert out.tobytes() == unit_rows(np.ldexp(rows, 600), ["a"]).tobytes()
    assert np.array_equal(out.astype(np.float32), reference_unit_rows(rows))
    index = build_dense_index(["x"], [np.array([0.0, 1.0])])
    [ranking] = dense_search_many(index, rows, 1, ["q"])
    assert ranking.hits == (("x", out[0, 1]),)
    assert out[0, 1] == pytest.approx(2 / math.sqrt(5), rel=1e-15)
