"""Tokenization, deterministic hashed embeddings, and vector math.

Vectors are 1-D float32 numpy arrays. All norms and dot products are
computed in float64 with exactly-rounded summation (``math.fsum`` over
IEEE-rounded products), so similarity scores are reproducible bit-for-bit
across platforms, BLAS builds, and re-implementations of the same
arithmetic.

``unit_rows`` is the one L2 normalizer for vectors that come from outside
the hash kernel (index rows, queries, remote vectors): each row is divided
in float64 by ``sqrt`` of its exactly rounded sum of squares, after an
exact power-of-two scaling that keeps its squares in range, and zero rows
stay zero. The exact scores of dense search come from ``_exact_dots``:
``math.fsum`` of the products of (row, query) pairs, bit for bit, an exact
zero as +0.0, summed over the queries' nonzero coordinates when they are
sparse. ``unit_rows`` passes its squares, and ``_exact_dots`` its products,
to ``_exact_row_sums``, a vectorized kernel that certifies almost every sum
from an error-free summation tree, sends the rest to ``math.fsum``, and is
the one place that signs a zero sum.

The hashed embedder is a fast, fully deterministic stand-in for a frozen
sentence encoder: each token is hashed to a coordinate and a sign, signed
counts are accumulated, and the result is L2-normalized. One batch kernel,
``_hash_rows``, serves ``HashEmbedder.embed`` (and ``__call__``, a batch of
one): it hashes each distinct token once per call, scatters a block of
rows' signed counts with one ``np.bincount`` and writes the normalized rows
into one float32 matrix, with the same bits as normalizing one text at a
time.
"""

from __future__ import annotations

import hashlib
import math
import re
from array import array
from itertools import chain
from typing import Protocol, Sequence

import numpy as np

from .cache import INTEGER, POSITIVE_INTEGER, check_values

__all__ = [
    "tokenize",
    "unit_rows",
    "Embedder",
    "HashEmbedder",
    "checked_embed",
]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII bytes as ``tokenize`` sees them: letters lowercased, digits kept,
# every other byte a space.
_ASCII_TOKEN_BYTES = bytes(
    ord(ch.lower()) if ch.isalnum() else 0x20 for ch in map(chr, range(128))
) + b" " * 128
_U64 = 0xFFFFFFFFFFFFFFFF

# Terms per ``_exact_row_sums`` call: a call's temporaries are a few MB,
# and each call pays some 40 us of fixed numpy overhead, so rows of 256
# products summed 1.25x slower in calls of 16 384 terms.
_TERMS_PER_CALL = 50_000


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split on runs of non-alphanumeric characters.

    Empty tokens are dropped: ``"VaR-99.5%"`` -> ``["var", "99", "5"]``.
    The tokens are the runs of ``[^\\W_]`` in ``text.lower()``. ASCII text
    takes a faster path to the same tokens: one byte table maps its letters
    to lowercase, keeps its digits and turns every other byte into a space,
    and the result is split on spaces. Given an ASCII character, ``[^\\W_]``
    matches exactly the ASCII letters and digits, so both paths agree.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_BYTES).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


# Certified exact row sums.  For a row p_1..p_n of finite float64 terms,
# with u = 2^-53 and T the real sum, ``_exact_row_sums`` returns the
# correctly rounded T, which is what ``math.fsum`` returns, or asks fsum;
# an exact zero sum is +0.0.
#
# Tree.  The row, padded with +0.0 to a power of two N, is summed by a
# balanced tree of TwoSum steps (Knuth; Ogita, Rump & Oishi, "Accurate Sum
# and Dot Product", SISC 2005): s = a + b, z = s - a, e = (a - (s - z)) +
# (b - z) gives a + b = s + e exactly for any floats a and b whose sum does
# not overflow.  This holds under gradual underflow too: a sum that falls
# below the normal range is exact, and e, a difference of nearby floats, is
# a float.  So the root S and the N - 1 error terms e_i satisfy T = S + sum
# e_i exactly.  The +0.0 padding changes no sum; Sign below sets a zero's.
#
# Error sum.  np.sum adds the N - 1 terms e_i in some order, N - 2 roundings,
# so its result sigma is within gamma_{N-2}*E of sum e_i, E = sum |e_i|,
# gamma_m = m*u/(1 - m*u) (Higham, "Accuracy and Stability of Numerical
# Algorithms", ch. 4); additions that underflow are exact, so no absolute
# term joins.  The computed E, a sum of non-negative terms, is low by at most
# a factor 1 - gamma_{N-2}.  So B = fl((N+2)*2^-52 * E) + 2^-1074, about
# 2(N+2)*u*E, is still above gamma_{N-2}*E (by about a factor 2) for
# N < 2^40; the 2^-1074 covers a product that rounds below the normal range.
#
# Rounding test (Rump, Ogita & Oishi, "Accurate Floating-Point Summation
# Part II", SISC 2008).  With h + l = S + sigma exactly (one more TwoSum),
# |T - h| <= |l| + B.  Let g be the smaller gap between h and its float
# neighbours; below |h| it is |h| - nextafter(|h|, 0), and g/2 is exact or,
# in the subnormal range, rounds down.  If fl(|l| + B) < g/2 (strict), then
# |l| + B < g/2 too, as rounding is monotone and g/2 is a float; so T lies
# strictly inside h's rounding interval, not on its edge, and every
# correctly rounded sum of the row, fsum's included, is h.
#
# One error term.  If the tree leaves at most one nonzero e_i, sigma is
# exact, so h = fl(S + sigma) is T rounded to nearest, ties to even, as fsum
# rounds it: such a row is certified even on a rounding midpoint (|l| = g/2),
# where the test above cannot pass, and h = 0 only when T = 0, as T is a
# multiple of 2^-1074.  A row with h = 0 and more error terms cannot pass
# the rounding test (g = 0) and falls back, as does a non-finite h.
#
# Sign.  Every return path adds +0.0, which turns -0.0 into +0.0 and leaves
# every other value, NaN and infinities included, as it is: an exact zero
# sum is +0.0 whatever the terms' signs and fsum's own convention.
#
# Range.  When every |p_j| is at most P and n*P < 2^1023, every tree node,
# TwoSum temporary, S, sigma, h and B stays within a few ulps of sum |p_j|
# or below, so finite.  fsum is safe there too: each of its TwoSum steps
# turns two values it holds into hi and lo with |hi| + |lo| <= |x| + |y| +
# 2u|hi|, so for n < 2^30 (a row of 8 GiB) all it holds stays below
# (1 + 2^-10) * sum |p_j| and it cannot raise "intermediate overflow".  A
# call whose terms are not all in that range (NaN, infinities, values near
# the float64 maximum) sends every row to fsum, which returns or raises as
# it always did.
def _exact_row_sums(products: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of the float64 matrix ``products``, bit for
    bit, an exact zero as +0.0, as a float64 array.

    Rows it cannot certify (see the comment above) go to
    ``math.fsum``, looked up at call time. Temporaries are about three
    times the size of ``products``.
    """
    m, n = products.shape
    width = 1 << max(n - 1, 0).bit_length()
    peak = float(max(products.max(initial=0.0), -products.min(initial=0.0)))
    if not peak * n < 2.0**1023:
        return np.array([math.fsum(row) for row in products.tolist()], dtype=np.float64) + 0.0
    # Column j holds row j's terms, so each tree level adds two contiguous halves.
    level = np.zeros((width, m))
    level[:n] = products.T
    errors = np.empty((width - 1, m))
    used = 0
    while width > 1:
        width //= 2
        a, b = level[:width], level[width:]
        s = a + b
        z = s - a
        e = errors[used:used + width]
        np.subtract(s, z, out=e)
        np.subtract(a, e, out=e)
        np.subtract(b, z, out=z)
        e += z
        level = s
        used += width
    total = level[0]
    sigma = errors.sum(axis=0)
    bound = np.abs(errors, out=errors).sum(axis=0)
    bound *= (len(errors) + 3) * 2.0**-52
    bound += 2.0**-1074
    h = total + sigma
    z = h - total
    low = (total - (h - z)) + (sigma - z)
    magnitude = np.abs(h)
    half_gap = (magnitude - np.nextafter(magnitude, 0.0)) * 0.5
    certified = np.abs(low) + bound < half_gap
    # Rows with one nonzero error term pass too (see "One error term" above).
    ties = np.flatnonzero(~certified)
    certified[ties] = np.count_nonzero(errors[:, ties], axis=0) <= 1
    certified &= np.isfinite(h)
    for i in np.flatnonzero(~certified).tolist():
        h[i] = math.fsum(products[i].tolist())
    return h + 0.0


# Exact dot products.  ``_exact_dots`` sums the products of each (row,
# query) pair it is given, with certified ``_exact_row_sums`` calls.  When
# the widest of its queries has w <= d/2 nonzero coordinates (hash
# vectors), it sums, for each pair, only the w products at that query's
# nonzero coordinates and, for a narrower query, at some of its zero ones;
# with a wider query (model vectors, adapter outputs) it sums the d
# products of each pair.  Each dropped or padding product is x_j * (+-0) =
# +-0 with x_j finite, and adding zeros does not change the real value of a
# sum, so the exactly rounded sum is the same float, in any order of the
# terms, a zero sum being +0.0 either way.
def _exact_dots(
    rows: np.ndarray, queries: np.ndarray, row_of: np.ndarray, query_of: np.ndarray
) -> np.ndarray:
    """``math.fsum((rows[row_of[t]] * queries[query_of[t]]).tolist())`` for
    each t, bit for bit, an exact zero as +0.0, as a float64 array, for
    finite float64 ``rows`` and ``queries`` of one width (see the comment
    above)."""
    dim = queries.shape[1]
    width = max(int(np.count_nonzero(queries, axis=1).max(initial=0)), 1)
    gather = 2 * width <= dim
    if gather:
        # Each query's nonzero coordinates, then enough of its zero ones to
        # fill the width.
        columns = np.argpartition(queries == 0.0, width - 1, axis=1)[:, :width]
        values = np.take_along_axis(queries, columns, axis=1)
    step = max(1, _TERMS_PER_CALL // (width if gather else max(dim, 1)))
    sums = np.empty(len(row_of))
    for start in range(0, len(row_of), step):
        r, q = row_of[start:start + step], query_of[start:start + step]
        products = rows[r[:, None], columns[q]] * values[q] if gather else rows[r] * queries[q]
        sums[start:start + step] = _exact_row_sums(products)
    return sums


def unit_rows(matrix: np.ndarray, ids: Sequence[str], kind: str = "row") -> np.ndarray:
    """Each row of the ``(n, dim)`` ``matrix`` divided by its Euclidean norm.

    Returns a new float64 matrix; the division is IEEE float64, done in
    place on that copy. Zero rows stay zero. Each row is first scaled by
    the power of two that puts its largest entry just below where the sum
    of its squares could overflow, so it normalizes as its power-of-two
    copies do, and a row whose squares would underflow is not taken for
    zero. A row holding NaN or Inf raises ValueError ``"<kind> <id> has
    non-finite values"``, with the row's id from ``ids``. Each norm is
    ``sqrt`` of the row's exactly rounded sum of squares, ``math.fsum``'s
    bits, from one ``_exact_row_sums`` call on the squares of each chunk of
    about ``_TERMS_PER_CALL`` entries.
    """
    rows = np.array(matrix, dtype=np.float64)
    # Each row's largest magnitude; NaN or Inf if the row holds one.
    peak = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
    finite = np.isfinite(peak)
    if not finite.all():
        bad = ids[int(np.flatnonzero(~finite)[0])]
        raise ValueError(f"{kind} {bad!r} has non-finite values")
    # With every entry below 2**top, each square is below 2**(1023 - b),
    # b = dim.bit_length(), so the sum of dim < 2**b squares stays below
    # 2**1023.  Each row is scaled by the power of two that brings its
    # largest entry into [2**(top-1), 2**top): that is as far from
    # underflow as overflow allows, so the squares of entries within
    # 2**-1020 of the largest stay normal.  A power of two changes no
    # significand and the division by the norm cancels it, so a row
    # normalizes bit for bit as its power-of-two copies do, unless an entry
    # or a square falls below the normal range.
    top = (1023 - rows.shape[1].bit_length()) // 2
    _, exponents = np.frexp(peak)
    np.ldexp(rows, (top - exponents)[:, None], out=rows)
    step = max(1, _TERMS_PER_CALL // max(rows.shape[1], 1))
    sums = np.empty(len(rows))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        sums[start:start + step] = _exact_row_sums(chunk * chunk)
    norms = np.sqrt(sums)
    rows /= np.where(norms != 0.0, norms, 1.0)[:, None]
    return rows


# Rows per bincount block: bounds the float64 count block (rows x dim) that
# one scatter fills, so batch embedding does not raise peak memory.
_ROW_CHUNK = 256


# Equal bit for bit to adding each token's sign into a float64 vector and
# dividing by sqrt of its exactly rounded sum of squares: counts and the sum
# of squared counts are small integers in float64 (exact below 2**53, i.e.
# below ~9.5e7 tokens a text), so every summation order gives the same exact
# values; ``np.sqrt`` and ``math.sqrt`` are both correctly rounded; the
# division is elementwise IEEE in float64 and the cast to float32 is the
# same single rounding.
def _hash_rows(token_lists: list[list[str]], dim: int, seed: int) -> np.ndarray:
    """Hash-embed each token list into one row of an ``(n, dim)`` float32 matrix.

    Each distinct token is hashed once per call; the table is not kept.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    key = (seed & _U64).to_bytes(8, "little")
    slot_of: dict[str, int] = {}
    # Grown in place, one entry per distinct token; each block reads them as
    # numpy views, released before the next block appends.
    buckets = array("q")
    signs = array("d")
    out = np.empty((len(token_lists), dim), dtype=np.float32)
    for start in range(0, len(token_lists), _ROW_CHUNK):
        block = token_lists[start : start + _ROW_CHUNK]
        flat = list(chain.from_iterable(block))
        for token in set(flat).difference(slot_of):
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9, key=key).digest()
            slot_of[token] = len(buckets)
            buckets.append(int.from_bytes(digest[:8], "little") % dim)
            signs.append(1.0 if digest[8] & 1 else -1.0)
        slots = np.fromiter(map(slot_of.__getitem__, flat), dtype=np.intp, count=len(flat))
        rows = np.repeat(np.arange(len(block)), [len(tokens) for tokens in block])
        counts = np.bincount(
            rows * dim + np.frombuffer(buckets, dtype=np.int64)[slots],
            weights=np.frombuffer(signs)[slots],
            minlength=len(block) * dim,
        ).reshape(len(block), dim)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        norms[norms == 0.0] = 1.0
        np.divide(counts, norms[:, None], out=out[start : start + len(block)], casting="unsafe")
    return out


class Embedder(Protocol):
    """What riskrank embeds text through: one batch call, one row per text."""

    dim: int

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(len(texts), dim)`` float32 matrix."""


def checked_embed(embedder: Embedder, texts: Sequence[str], what: str) -> np.ndarray:
    """``embedder.embed(texts)``; ValueError ``"embedder returned <m> vectors
    for <n> <what>"`` unless it holds one row per text."""
    matrix = embedder.embed(list(texts))
    if matrix.shape[0] != len(texts):
        raise ValueError(f"embedder returned {matrix.shape[0]} vectors for {len(texts)} {what}")
    return matrix


class HashEmbedder:
    """Deterministic local text embedder: ``tokenize`` then the hash kernel.

    Carries ``provider_id``/``model_id`` so its vectors can share the same
    content-addressed cache as remote providers.
    """

    provider_id = "local"

    def __init__(self, dim: int = 256, seed: int = 0):
        self.dim = dim
        self.seed = seed
        check_values(self, {"dim": POSITIVE_INTEGER, "seed": INTEGER})
        self.model_id = f"hash-d{dim}-s{seed}"

    def __call__(self, text: str) -> np.ndarray:
        """One text's row of ``embed``."""
        return self.embed([text])[0]

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of texts into an ``(n, dim)`` float32 matrix."""
        return _hash_rows([tokenize(text) for text in texts], self.dim, self.seed)

    # The vector cache keeps hash vectors as embedded: fetching is embedding.
    fetch = embed

    def __repr__(self) -> str:
        return f"HashEmbedder(dim={self.dim}, seed={self.seed})"
