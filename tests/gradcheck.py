"""Test oracles for analytic gradients: central differences and relative error."""

import numpy as np


def finite_diff_grad(loss_fn, inputs: list[np.ndarray], epsilon: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of a scalar function of ndarray inputs.

    Perturbs every scalar entry of every input by +/- epsilon, so a perturbed
    input leaves any constraint, such as unit-norm rows: loss_fn must be smooth
    off it too, or apply the constraint itself.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    grads = []
    work = [np.array(x, dtype=np.float64) for x in inputs]
    for x in work:
        g = np.zeros_like(x)
        flat_x = x.reshape(-1)
        flat_g = g.reshape(-1)
        for k in range(flat_x.size):
            orig = flat_x[k]
            flat_x[k] = orig + epsilon
            hi = loss_fn(*work)
            flat_x[k] = orig - epsilon
            lo = loss_fn(*work)
            flat_x[k] = orig
            flat_g[k] = (hi - lo) / (2.0 * epsilon)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Max entrywise |a - f| / max(|a|, |f|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return float(np.max(np.abs(a - f) / denom))
