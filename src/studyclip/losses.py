"""One contrastive primitive and a table of weighted view pairings, with analytic gradients.

The primitive is the symmetric contrastive loss over a batch of n paired
embeddings,

    L(a, b) = -1/(2n) * sum_i [ log softmax_j(s_ij / tau)|_{j=i}      (row direction)
                              + log softmax_j(s_ji / tau)|_{j=i} ]    (column direction)

where s_ij is the inner product between row i of a and row j of b. Views are
plain (n, d) arrays of unit-norm rows, as the encoders give them: the encoder
head owns the normalization and its gradient, so the loss checks only that
the views it pairs are 2-d arrays of one shape. The temperature enters as
log(tau), the parameter training learns.

A batch has up to four views: the text views u1, u2 and the image views v1,
v2. Every objective is a table of rows (view_a, view_b, weight, component),
and its value is the sum over rows of weight * L(view_a, view_b):

- ``paper_table``: the paper's six rows, the four text-image cross pairings
  at 1/4 each (MVS, the multi-view mean), (v1, v2) at lambda_icl (ICL) and
  (u1, u2) at lambda_tcl (TCL);
- ``CLIP_TABLE``: one row, (u1, v1) at weight 1, for the single-pair
  baselines.

Each component is logged as the mean of its rows' unweighted terms. The 1/4
weights are a power of two, so the weighted MVS rows sum to exactly the
mean of the four terms. Gradients with respect to every view and to
log(tau) are derived by hand and returned alongside the value; no autodiff.
A value-only call (``with_grads=False``, as validation makes) runs the same
two log-softmaxes and returns before the gradient, so its value and
components are those of the full call, bit for bit.

The table is scored as one stacked batch: each row's two views, stacked to
(rows, n, d), give one batched matmul for the (rows, n, n) logits, one
log-softmax per direction, one trace per direction and one batched gradient
pass, where a row at a time would pay numpy's call overhead six times over on
these small arrays. Each slice runs the per-row arithmetic, so every row's
term and gradients match the row scored alone bit for bit; the weighting, the
component means and the order in which gradients accumulate stay per row. A
one-row table stacks its views without a copy.

All arithmetic is float64 with max-subtracted log-sum-exp and row-major
accumulation, so results are deterministic and gradient checks are tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ShapeMismatch(ValueError):
    """Input batches disagree in batch size or embedding dimension."""


class Pairing(NamedTuple):
    """One row of a loss table: weight * L(view_a, view_b), logged under component."""

    view_a: str
    view_b: str
    weight: float
    component: str


CLIP_TABLE = (Pairing("u1", "v1", 1.0, "mvs"),)


def paper_table(lambda_icl: float, lambda_tcl: float) -> tuple[Pairing, ...]:
    """The paper's objective: MVS over the four text-image pairings, plus ICL and TCL."""
    if lambda_icl < 0 or lambda_tcl < 0:
        raise ValueError("loss weights must be non-negative")
    return (
        Pairing("u1", "v1", 0.25, "mvs"),
        Pairing("u2", "v1", 0.25, "mvs"),
        Pairing("u1", "v2", 0.25, "mvs"),
        Pairing("u2", "v2", 0.25, "mvs"),
        Pairing("v1", "v2", lambda_icl, "icl"),
        Pairing("u1", "u2", lambda_tcl, "tcl"),
    )


@dataclass
class LossOutput:
    """Scalar loss with the gradient for each view the table names, plus d/d log(tau).

    components maps each component to the mean of its rows' unweighted terms.
    A value-only ``total_loss`` leaves both gradients None.
    """

    value: float
    grad_views: dict[str, np.ndarray] | None
    grad_log_tau: float | None
    components: dict[str, float]


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    out = logits - np.max(logits, axis=axis, keepdims=True)
    out -= np.log(np.sum(np.exp(out), axis=axis, keepdims=True))
    return out


# Kept apart from the k = 1 branch of training._batch_loss: one view path for both kept every digest but cut
# clip_single train_studies_per_s in 5 of 6 alternating 8 s pairs on a 2-CPU x86-64 VM (median 19,060 -> 18,437).
def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The (rows, n, d) stack of one view per row; a single row is its view with a leading axis, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def total_loss(
    views: dict[str, np.ndarray], log_tau: float, table: tuple[Pairing, ...], with_grads: bool = True
) -> LossOutput:
    """Weighted sum of symmetric InfoNCE terms over the table's view pairings.

    value = sum over rows of weight * L(view_a, view_b), rows in table order.
    Every row is evaluated, zero-weight rows included, so each component's
    value is available for logging whatever its weight. Without ``with_grads``
    only the value and components are computed.
    """
    shapes = {views[name].shape for row in table for name in row[:2]}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ShapeMismatch(f"views must be 2-d arrays of one shape, got shapes {sorted(shapes)}")
    a = _stacked([views[row.view_a] for row in table])
    b = _stacked([views[row.view_b] for row in table])
    rows, n = a.shape[:2]
    tau = math.exp(log_tau)
    logits = a @ b.transpose(0, 2, 1)  # logits[r, i, j] = s_ij of row r
    logits /= tau

    p_rows = _log_softmax(logits, axis=2)  # softmax over b for each a_i
    p_cols = _log_softmax(logits, axis=1)  # softmax over a for each b_j
    terms = (-(np.trace(p_rows, axis1=1, axis2=2) + np.trace(p_cols, axis1=1, axis2=2)) / (2.0 * n)).tolist()
    value = 0.0
    by_component: dict[str, list[float]] = {}
    for (_, _, weight, component), term in zip(table, terms):
        value += weight * term
        by_component.setdefault(component, []).append(term)
    components = {name: sum(values) / len(values) for name, values in by_component.items()}
    if not with_grads:
        return LossOutput(value=value, grad_views=None, grad_log_tau=None, components=components)

    # d term / d logits = (row softmax + column softmax - 2 I) / (2n), built over the row softmax
    grad_logits = np.exp(p_rows, out=p_rows)
    grad_logits += np.exp(p_cols, out=p_cols)
    grad_logits.reshape(rows, n * n)[:, :: n + 1] -= 2.0
    grad_logits /= 2.0 * n

    weights = np.array([row.weight for row in table])[:, None, None]
    grad_a = grad_logits @ b
    grad_a /= tau
    grad_a *= weights
    grad_b = grad_logits.transpose(0, 2, 1) @ a
    grad_b /= tau
    grad_b *= weights
    # logits = sims * exp(-log tau)  =>  d logits / d log tau = -logits
    np.multiply(grad_logits, logits, out=p_cols)
    grad_lt = 0.0
    for (_, _, weight, _), total in zip(table, np.add.reduce(p_cols.reshape(rows, n * n), axis=1).tolist()):
        grad_lt += weight * -total
    grads: dict[str, np.ndarray] = {}
    for r, (view_a, view_b, _, _) in enumerate(table):
        for name, grad in ((view_a, grad_a[r]), (view_b, grad_b[r])):
            if name in grads:
                grads[name] += grad
            else:
                grads[name] = grad
    return LossOutput(value=value, grad_views=grads, grad_log_tau=grad_lt, components=components)
