"""Central-difference gradient check for the finetune tests."""

from typing import Callable

import numpy as np


def finite_diff_check(
    loss_fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    analytic_grad: np.ndarray,
    *,
    eps: float,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between central differences and an analytic gradient.

    Coordinates are sampled without replacement when ``max_coords`` is set.
    Relative error uses ``|num - ana| / max(|num|, |ana|, 1e-6)`` so
    near-zero coordinates cannot blow up the ratio.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    theta = np.asarray(params, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.shape != theta.shape:
        raise ValueError(
            f"gradient shape {analytic.shape} does not match params {theta.shape}"
        )
    flat_indices = np.arange(theta.size)
    if max_coords is not None and max_coords < theta.size:
        flat_indices = np.random.default_rng(seed).choice(
            theta.size, size=max_coords, replace=False
        )
    worst = 0.0
    flat = theta.ravel().copy()
    for idx in flat_indices:
        original = flat[idx]
        flat[idx] = original + eps
        plus = loss_fn(flat.reshape(theta.shape))
        flat[idx] = original - eps
        minus = loss_fn(flat.reshape(theta.shape))
        flat[idx] = original
        numeric = (plus - minus) / (2.0 * eps)
        ana = analytic.ravel()[idx]
        err = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-6)
        worst = max(worst, err)
    return worst
