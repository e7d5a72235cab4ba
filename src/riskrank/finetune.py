"""Linear adapter training over frozen base embeddings.

The trainable part is a single linear map (optionally with bias) applied to
both question and context embeddings. Training minimizes the in-batch
ranking loss

    L = -sum_i log( exp(S[i,i]) / sum_j exp(S[i,j]) )

where ``S[i,j] = scale * cos(adapt(q_i), adapt(p_j))``: each row's softmax
is pushed toward its own diagonal, so every other context in the batch acts
as a negative and the denominator's off-diagonal terms exclude the positive.
All training math runs in float64; gradients are analytic and validated by
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cache import (
    BOOLEAN, INTEGER, POSITIVE_INTEGER, check_values, json_text, read_json, read_rkv1,
    write_file, write_jsonl, write_rkv1,
)
from .corpus import QAPair
from .embedding import Embedder, checked_embed

__all__ = [
    "AdapterParams",
    "TrainingConfig",
    "BatchStats",
    "LossReport",
    "apply_adapter",
    "mnr_loss",
    "train_adapter",
    "save_adapter",
    "load_adapter",
]


@dataclass(frozen=True, eq=False)
class AdapterParams:
    """A (d_out, d_in) linear map with optional bias, checked once when made.

    ``train_pair_ids`` records which pairs the adapter saw during training,
    so evaluation harnesses can refuse leaked test pairs.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    train_pair_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        if self.weight.ndim != 2 or min(self.weight.shape) < 1:
            raise ValueError(f"weight must be a 2-D matrix, got shape {self.weight.shape}")
        if not np.all(np.isfinite(self.weight)):
            raise ValueError("adapter weight contains non-finite entries")
        if self.bias is not None:
            object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
            if self.bias.shape != (self.weight.shape[0],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match d_out {self.weight.shape[0]}"
                )
            if not np.all(np.isfinite(self.bias)):
                raise ValueError("adapter bias contains non-finite entries")

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def use_bias(self) -> bool:
        return self.bias is not None

    @classmethod
    def identity(cls, dim: int, use_bias: bool = False) -> "AdapterParams":
        """Identity map: the adapted model equals the base model exactly."""
        return cls(
            weight=np.eye(dim, dtype=np.float64),
            bias=np.zeros(dim, dtype=np.float64) if use_bias else None,
        )


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 12
    epochs: int = 2
    learning_rate: float = 0.05
    scale: float = 20.0
    seed: int = 0
    shuffle_each_epoch: bool = True
    use_bias: bool = False

    def __post_init__(self) -> None:
        check_values(self, _TRAINING_CHECKS)


_TRAINING_CHECKS = {
    "batch_size": (lambda v: type(v) is int and v >= 2, "an integer >= 2 (in-batch negatives)"),
    "epochs": POSITIVE_INTEGER,
    "learning_rate": (lambda v: type(v) in (int, float) and np.isfinite(v), "a finite number"),
    "scale": (lambda v: type(v) in (int, float) and v > 0, "a number > 0"),
    "seed": INTEGER,
    "shuffle_each_epoch": BOOLEAN,
    "use_bias": BOOLEAN,
}


@dataclass(frozen=True)
class BatchStats:
    epoch: int
    batch: int
    loss: float
    in_batch_accuracy: float
    batch_size: int


@dataclass
class LossReport:
    """Per-batch losses and per-epoch summaries from one training run."""

    batches: list[BatchStats] = field(default_factory=list)
    epoch_mean_loss: list[float] = field(default_factory=list)  # per pair, per epoch
    epoch_accuracy: list[float] = field(default_factory=list)

    def write_jsonl(self, path: Path | str) -> None:
        write_jsonl(path, map(asdict, self.batches))


def apply_adapter(adapter: AdapterParams, x: np.ndarray) -> np.ndarray:
    """``x @ weight.T (+ bias)``, in float64 and not normalized.

    ``x`` is one ``(d_in,)`` vector or an ``(n, d_in)`` matrix of rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != adapter.d_in:
        raise ValueError(f"input has shape {x.shape}, adapter expects d_in={adapter.d_in}")
    return _adapt(x, adapter.weight, adapter.bias)


def _adapt(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """``x @ weight.T``, then ``+ bias``: the adapter's one map, in training and after."""
    out = x @ weight.T
    return out if bias is None else out + bias


def _normalize_rows(rows: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.any(norms == 0.0):
        bad = int(np.nonzero(norms == 0.0)[0][0])
        raise ValueError(f"adapter maps {what} row {bad} to the zero vector")
    return rows / norms[:, None], norms


def mnr_loss(similarity: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum over rows of softmax cross-entropy against the diagonal, and d(loss)/dS.

    Computed with max subtraction for stability. The gradient is the
    row-wise softmax minus the identity, so its rows sum to 0. A 1x1 matrix
    has no negatives and yields exactly 0.
    """
    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity matrix contains non-finite entries")
    row_max = s.max(axis=1, keepdims=True)
    shifted = np.exp(s - row_max)
    totals = shifted.sum(axis=1)
    logsumexp = np.log(totals) + row_max[:, 0]
    loss = float(np.sum(logsumexp - np.diagonal(s)))
    return loss, shifted / totals[:, None] - np.eye(s.shape[0])


def _loss_and_param_grads(
    weight: np.ndarray, bias: np.ndarray | None, questions: np.ndarray, positives: np.ndarray,
    scale: float,
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Forward pass plus analytic (loss, accuracy, dW, db) for one batch.

    Row i of the float64 ``questions`` pairs with row i of ``positives``.
    Rows are adapted as ``apply_adapter`` adapts them, and the forward
    pass builds ``S[i, j] = scale * cos(adapt(q_i), adapt(p_j))``: the
    diagonal holds each question's positive and the off-diagonal entries are
    its in-batch negatives. Backpropagates through the scale, the row
    normalization, and the linear map: for a = W q,
    d(loss)/da = (g - u (u . g)) / |a| with u = a/|a|.
    """
    unit_q, norm_q = _normalize_rows(_adapt(questions, weight, bias), "query")
    unit_p, norm_p = _normalize_rows(_adapt(positives, weight, bias), "positive")
    similarity = scale * (unit_q @ unit_p.T)

    loss, grad_s = mnr_loss(similarity)
    accuracy = float(np.mean(np.diagonal(similarity) == similarity.max(axis=1)))

    grad_unit_q = scale * (grad_s @ unit_p)
    grad_unit_p = scale * (grad_s.T @ unit_q)
    grad_adapted_q = (
        grad_unit_q - unit_q * np.einsum("ij,ij->i", unit_q, grad_unit_q)[:, None]
    ) / norm_q[:, None]
    grad_adapted_p = (
        grad_unit_p - unit_p * np.einsum("ij,ij->i", unit_p, grad_unit_p)[:, None]
    ) / norm_p[:, None]

    grad_weight = grad_adapted_q.T @ questions + grad_adapted_p.T @ positives
    grad_bias = None
    if bias is not None:
        grad_bias = grad_adapted_q.sum(axis=0) + grad_adapted_p.sum(axis=0)
    return loss, accuracy, grad_weight, grad_bias


EpochCallback = Callable[[int, AdapterParams], None]


def _batches(order: np.ndarray, contexts: Sequence[str], size: int) -> list[list[int]]:
    """Cut ``order`` into batches of at most ``size`` rows with distinct contexts.

    Each row joins the first batch that has room and lacks its context, as in
    sentence-transformers' ``NoDuplicatesDataLoader``; without repeated
    contexts the batches are consecutive slices of ``order``.
    """
    batches: list[dict[str, int]] = []  # context -> row, in order of joining
    first_open = 0
    for row in order.tolist():
        b = first_open
        while b < len(batches) and (len(batches[b]) == size or contexts[row] in batches[b]):
            b += 1
        if b == len(batches):
            batches.append({})
        batches[b][contexts[row]] = row
        while first_open < len(batches) and len(batches[first_open]) == size:
            first_open += 1
    return [list(batch.values()) for batch in batches]


def train_adapter(
    pairs: Sequence[QAPair],
    base_embed: Embedder,
    config: TrainingConfig,
    epoch_callback: EpochCallback | None = None,
) -> tuple[AdapterParams, LossReport]:
    """Gradient-descent training of a linear adapter on question-context pairs.

    Base embeddings come from two batch calls, ``base_embed.embed`` of all
    questions and of all contexts, each checked by ``checked_embed`` to hold
    one row per text; a pair either of which embeds to zero is rejected by
    id. The weight starts at identity, so the epoch-0 model equals the base
    model; each epoch fills batches in a fresh seeded shuffle (or in the
    pairs' order without ``shuffle_each_epoch``), moving a pair whose context
    the batch already holds on to a later batch, so no pair's positive is
    another's negative; a batch is kept only if it still contains a negative
    (size >= 2), as the first batch always does. The run is deterministic
    under (pairs, embedder, config).
    ``epoch_callback`` receives a snapshot of the parameters after every
    epoch, e.g. to record per-epoch retrieval quality on a held-out set.
    """
    if len(pairs) < config.batch_size:
        raise ValueError(
            f"need at least batch_size={config.batch_size} pairs, got {len(pairs)}"
        )
    context_texts = [p.context for p in pairs]
    if len(set(context_texts)) < 2:
        raise ValueError("need at least 2 distinct contexts for in-batch negatives")
    questions = np.asarray(
        checked_embed(base_embed, [p.question for p in pairs], "questions"), dtype=np.float64
    )
    contexts = np.asarray(checked_embed(base_embed, context_texts, "contexts"), dtype=np.float64)
    zero_question = ~questions.any(axis=1)
    zero = np.flatnonzero(zero_question | ~contexts.any(axis=1))
    if len(zero):
        i = int(zero[0])
        part = "question" if zero_question[i] else "context"
        raise ValueError(f"pair {pairs[i].pair_id}: base embedding of {part} is all-zero")

    weight = np.eye(questions.shape[1], dtype=np.float64)
    bias = np.zeros(questions.shape[1], dtype=np.float64) if config.use_bias else None
    train_pair_ids = tuple(pair.pair_id for pair in pairs)
    rng = np.random.default_rng(config.seed)
    report = LossReport()

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs)) if config.shuffle_each_epoch else np.arange(len(pairs))
        epoch_loss = 0.0
        epoch_pairs = 0
        accuracies = []
        for rows in _batches(order, context_texts, config.batch_size):
            if len(rows) < 2:
                continue  # a single-pair batch has no negatives
            loss, accuracy, grad_weight, grad_bias = _loss_and_param_grads(
                weight, bias, questions[rows], contexts[rows], config.scale
            )
            weight = weight - config.learning_rate * grad_weight
            if bias is not None:
                bias = bias - config.learning_rate * grad_bias
            epoch_loss += loss
            epoch_pairs += len(rows)
            accuracies.append(accuracy)
            report.batches.append(BatchStats(epoch, len(accuracies), loss, accuracy, len(rows)))
        report.epoch_mean_loss.append(epoch_loss / epoch_pairs)
        report.epoch_accuracy.append(float(np.mean(accuracies)))
        if epoch_callback is not None:
            bias_copy = None if bias is None else bias.copy()
            epoch_callback(epoch, AdapterParams(weight.copy(), bias_copy, train_pair_ids))
    return AdapterParams(weight, bias, train_pair_ids), report


# ---------------------------------------------------------------------------
# Persistence: adapter.json (dims, use_bias, config echo, train pair ids),
# adapter.bin (the d_out x d_in weight) and, with a bias, bias.bin (one row
# of d_out values); both .bin files are RKV1 (see cache.py).
# ---------------------------------------------------------------------------


def save_adapter(
    path: Path | str, adapter: AdapterParams, config: TrainingConfig
) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "d_out": adapter.d_out,
        "d_in": adapter.d_in,
        "use_bias": adapter.use_bias,
        "config": asdict(config),
        "train_pair_ids": (
            list(adapter.train_pair_ids) if adapter.train_pair_ids is not None else None
        ),
    }
    write_file(path / "adapter.json", json_text(meta))
    write_rkv1(path / "adapter.bin", adapter.weight)
    if adapter.bias is not None:
        write_rkv1(path / "bias.bin", adapter.bias)


# adapter.json field -> (check, what the check asks for)
_META_FIELDS = {
    "d_out": POSITIVE_INTEGER,
    "d_in": POSITIVE_INTEGER,
    "use_bias": BOOLEAN,
    "config": (lambda v: type(v) is dict, "an object"),
    "train_pair_ids": (
        lambda v: v is None or (type(v) is list and all(type(i) is str for i in v)),
        "null or a list of strings",
    ),
}


def load_adapter(path: Path | str) -> tuple[AdapterParams, TrainingConfig]:
    """Read an adapter directory written by ``save_adapter``.

    A malformed ``adapter.json`` raises ValueError naming the file and the
    field; a damaged ``adapter.bin`` or ``bias.bin``, or one whose dimension
    disagrees with ``adapter.json``, raises CorruptCacheError naming the file.
    """
    path = Path(path)
    meta_path = path / "adapter.json"
    meta = read_json(meta_path, _META_FIELDS)
    try:
        config = TrainingConfig(**meta["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: field 'config': {exc}") from exc
    weight = read_rkv1(path / "adapter.bin", meta["d_out"], meta["d_in"])
    bias = read_rkv1(path / "bias.bin", 1, meta["d_out"])[0] if meta["use_bias"] else None
    ids = meta["train_pair_ids"]
    adapter = AdapterParams(
        weight=weight, bias=bias, train_pair_ids=tuple(ids) if ids is not None else None
    )
    return adapter, config
