"""One contrastive primitive and a table of weighted view pairings, with analytic gradients.

The primitive is the symmetric contrastive loss over a batch of n paired
embeddings,

    L(a, b) = -1/(2n) * sum_i [ log softmax_j(s_ij / tau)|_{j=i}      (row direction)
                              + log softmax_j(s_ji / tau)|_{j=i} ]    (column direction)

where s_ij is the inner product between row i of a and row j of b. A batch
has up to four views: the text views u1, u2 and the image views v1, v2. Every
objective is a table of rows (view_a, view_b, weight, component), and its
value is the sum over rows of weight * L(view_a, view_b):

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

All arithmetic is float64 with max-subtracted log-sum-exp and row-major
accumulation, so results are deterministic and gradient checks are tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ZeroRow(ValueError):
    """A row with (near-)zero Euclidean norm cannot be normalized."""


class ShapeMismatch(ValueError):
    """Input batches disagree in batch size or embedding dimension."""


ROW_NORM_TOL = 1e-6


@dataclass
class EmbeddingBatch:
    """n x d matrix of unit-norm row embeddings, tagged image or text.

    Row i of an image batch pairs with row i of the corresponding text batch.
    """

    rows: np.ndarray
    role: str = "image"

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ShapeMismatch(f"expected 2-d matrix, got shape {self.rows.shape}")
        n, d = self.rows.shape
        if n < 1 or d < 2:
            raise ShapeMismatch(f"need n >= 1 and d >= 2, got {self.rows.shape}")
        if self.role not in ("image", "text"):
            raise ValueError(f"role must be 'image' or 'text', got {self.role!r}")
        norms = np.linalg.norm(self.rows, axis=1)
        if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"rows must be unit-norm within {ROW_NORM_TOL}, off by {worst:g}")


@dataclass
class Temperature:
    """Learnable softmax temperature, parameterized as log(tau) so tau > 0."""

    log_tau: float

    TAU_MIN = 1e-3
    TAU_MAX = 10.0

    @classmethod
    def from_tau(cls, tau: float) -> "Temperature":
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        return cls(log_tau=math.log(tau))

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)

    def clamped(self) -> "Temperature":
        """Return a copy with tau clamped into [TAU_MIN, TAU_MAX]."""
        lo, hi = math.log(self.TAU_MIN), math.log(self.TAU_MAX)
        return Temperature(log_tau=min(max(self.log_tau, lo), hi))


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


def l2_normalize(matrix: np.ndarray, role: str = "image") -> EmbeddingBatch:
    """Divide each row by its Euclidean norm. Raises ZeroRow on degenerate rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeMismatch(f"expected 2-d matrix, got shape {matrix.shape}")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise ZeroRow("cannot normalize a row with norm <= 1e-12")
    return EmbeddingBatch(rows=matrix / norms, role=role)


def l2_normalize_vjp(raw: np.ndarray, grad_normalized: np.ndarray) -> np.ndarray:
    """Backpropagate a gradient through row-wise normalization.

    For y = x / |x| per row: dx = (g - y * (y . g)) / |x|.
    """
    raw = np.asarray(raw, dtype=np.float64)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        raise ZeroRow("cannot normalize a row with norm <= 1e-12")
    y = raw / norms
    inner = np.sum(y * grad_normalized, axis=1, keepdims=True)
    return (grad_normalized - y * inner) / norms


def _require_same_shape(*batches: EmbeddingBatch) -> None:
    shapes = {b.rows.shape for b in batches}
    if len(shapes) != 1:
        raise ShapeMismatch(f"batches must share n and d, got shapes {sorted(shapes)}")


def _log_softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    out = logits - np.max(logits, axis=axis, keepdims=True)
    out -= np.log(np.sum(np.exp(out), axis=axis, keepdims=True))
    return out


def _symmetric_infonce(a: np.ndarray, b: np.ndarray, temp: Temperature, with_grads: bool = True):
    """Value and raw gradients of the symmetric contrastive loss.

    Returns (value, grad_a, grad_b, grad_log_tau) for unit-norm row matrices
    a, b of identical shape, where similarity s_ij = a_i . b_j; without
    ``with_grads``, the value and three Nones.
    """
    n = a.shape[0]
    tau = temp.tau
    logits = a @ b.T
    logits /= tau

    p_rows = _log_softmax(logits, axis=1)  # softmax over b for each a_i
    p_cols = _log_softmax(logits, axis=0)  # softmax over a for each b_j
    value = -(np.trace(p_rows) + np.trace(p_cols)) / (2.0 * n)
    if not with_grads:
        return float(value), None, None, None

    # d value / d logits = (row softmax + column softmax - 2 I) / (2n), built over the row softmax
    grad_logits = np.exp(p_rows, out=p_rows)
    grad_logits += np.exp(p_cols, out=p_cols)
    grad_logits.flat[:: n + 1] -= 2.0
    grad_logits /= 2.0 * n

    grad_a = grad_logits @ b
    grad_a /= tau
    grad_b = grad_logits.T @ a
    grad_b /= tau
    # logits = sims * exp(-log tau)  =>  d logits / d log tau = -logits
    grad_log_tau = -float(np.sum(np.multiply(grad_logits, logits, out=p_cols)))
    return float(value), grad_a, grad_b, grad_log_tau


def total_loss(
    views: dict[str, EmbeddingBatch], temp: Temperature, table: tuple[Pairing, ...], with_grads: bool = True
) -> LossOutput:
    """Weighted sum of symmetric InfoNCE terms over the table's view pairings.

    value = sum over rows of weight * L(view_a, view_b), rows in table order.
    Every row is evaluated, zero-weight rows included, so each component's
    value is available for logging whatever its weight. Without ``with_grads``
    only the value and components are computed.
    """
    _require_same_shape(*(views[name] for row in table for name in row[:2]))
    value = 0.0
    grad_lt = 0.0
    grads: dict[str, np.ndarray] = {}
    terms: dict[str, list[float]] = {}
    for view_a, view_b, weight, component in table:
        term, grad_a, grad_b, glt = _symmetric_infonce(views[view_a].rows, views[view_b].rows, temp, with_grads)
        value += weight * term
        terms.setdefault(component, []).append(term)
        if not with_grads:
            continue
        grad_lt += weight * glt
        for name, grad in ((view_a, grad_a), (view_b, grad_b)):
            grad *= weight
            if name in grads:
                grads[name] += grad
            else:
                grads[name] = grad
    return LossOutput(
        value=value,
        grad_views=grads if with_grads else None,
        grad_log_tau=grad_lt if with_grads else None,
        components={name: sum(values) / len(values) for name, values in terms.items()},
    )
