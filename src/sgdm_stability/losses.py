"""Per-example convex losses, empirical risk, and smoothness constants.

Two loss kinds are supported:

* ``logistic``: l(w; (x, y)) = log(1 + exp(-y <w, x>)), per-example
  smoothness ||x||^2 / 4.
* ``squared``:  l(w; (x, y)) = (<w, x> - y)^2 / 2, per-example
  smoothness ||x||^2.

Both gradients are a scalar multiple of the feature vector, which the
optimizer exploits for sparse updates.  `losses` and `grad_scales` hold the
two formulas as functions of the margin <w, x> and the label; every other
loss computation in the package goes through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import Dataset

LOSS_KINDS = ("logistic", "squared")


def _check_kind(kind: str) -> str:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
    return kind


def losses(margins, y, kind: str):
    """Loss at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        # log(1 + exp(-y m)) without overflow for large |m|.
        return np.logaddexp(0.0, -y * margins)
    return 0.5 * (margins - y) ** 2


def grad_scales(margins, y, kind: str):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        ny = -y
        return ny * expit(ny * margins)
    return margins - y


def _row_margin(w: np.ndarray, d: Dataset, i: int):
    """(indices, values, label, <w, x>) of row i (0-based) of `d`."""
    if w.shape[-1] < d.dim:
        raise ValueError(f"weight vector of length {w.shape[-1]} cannot cover dataset dim {d.dim}")
    idx, vals, y = d.row(i)
    return idx, vals, y, float(np.dot(w[idx], vals))


def loss_value(w: np.ndarray, d: Dataset, i: int, kind: str) -> float:
    """Loss of row i (0-based) of `d` at `w`."""
    _, _, y, m = _row_margin(w, d, i)
    return float(losses(m, y, kind))


def grad_scale(w: np.ndarray, d: Dataset, i: int, kind: str) -> float:
    """Scalar s such that the gradient of row i's loss equals s * x_i."""
    _, _, y, m = _row_margin(w, d, i)
    return float(grad_scales(m, y, kind))


def loss_grad(w: np.ndarray, d: Dataset, i: int, kind: str) -> np.ndarray:
    """Dense gradient of row i's loss, supported on the row's feature indices."""
    idx, vals, y, m = _row_margin(w, d, i)
    s = float(grad_scales(m, y, kind))
    g = np.zeros_like(w)
    # overflow here means the iterate already blew up; the optimizer
    # detects the resulting non-finite gradient and raises
    with np.errstate(over="ignore", invalid="ignore"):
        g[idx] = s * vals
    return g


def empirical_risk(w: np.ndarray, d: Dataset, kind: str) -> float:
    return float(empirical_risk_many(w[None, :], d, kind)[0])


def empirical_risk_many(w_rows: np.ndarray, d: Dataset, kind: str) -> np.ndarray:
    """Empirical risk of each weight row, in one sparse matrix product."""
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.float64))
    if w_rows.shape[1] != d.dim:
        raise ValueError(f"weight rows have dim {w_rows.shape[1]}, dataset has {d.dim}")
    return losses(d.matrix @ w_rows.T, d.labels[:, None], kind).mean(axis=0)


@dataclass(frozen=True)
class SmoothnessReport:
    """Per-example smoothness constants and their max over the dataset."""

    alpha: float
    per_example: np.ndarray

    def __post_init__(self):
        if self.per_example.size and not np.isclose(self.alpha, self.per_example.max()):
            raise ValueError("alpha must equal the max per-example constant")


def smoothness(d: Dataset, kind: str) -> SmoothnessReport:
    _check_kind(kind)
    per_example = d.norm_sq / 4.0 if kind == "logistic" else d.norm_sq
    return SmoothnessReport(alpha=float(per_example.max()), per_example=per_example)
