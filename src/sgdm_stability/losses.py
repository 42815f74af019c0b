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

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import Dataset

LOSS_KINDS = ("logistic", "squared")

# Weight rows `empirical_risk_many` evaluates per task, and its thread count:
# one per CPU this process may run on.  numpy and scipy release the GIL in the
# matrix product and the loss ufuncs, so the blocks run in parallel.
RISK_COLUMNS = 256
RISK_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_kind(kind: str) -> str:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
    return kind


def losses(margins, y, kind: str):
    """Loss at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        # log(1 + exp(z)), z = -y m, as log1p(exp(-|z|)) + max(z, 0): it cannot
        # overflow, and is computed in z and t in place (`out=` keeps 0-d arrays)
        z = np.asarray(-y * margins, dtype=np.float64)
        t = np.empty_like(z)
        np.log1p(np.exp(np.negative(np.abs(z, out=t), out=t), out=t), out=t)
        return np.add(np.maximum(z, 0.0, out=z), t, out=z)
    return 0.5 * (margins - y) ** 2


def grad_scales(margins, y, kind: str):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        ny = -y
        return ny * expit(ny * margins)
    return margins - y


def _row_margin(w: np.ndarray, d: Dataset, i: int):
    """(indices, values, label, <w, x>) of row i (0-based) of `d`.  A blown-up
    w overflows here: callers ignore it in an errstate and check the result."""
    if w.shape[-1] < d.dim:
        raise ValueError(f"weight vector of length {w.shape[-1]} cannot cover dataset dim {d.dim}")
    idx, vals, y = d.row(i)
    return idx, vals, y, float(np.dot(w[idx], vals))


def _row_grad(g: np.ndarray, w: np.ndarray, d: Dataset, i: int, kind: str) -> None:
    """Write row i's loss gradient at `w` into `g`, which is zero off the row."""
    idx, vals, y, m = _row_margin(w, d, i)
    g[idx] = float(grad_scales(m, y, kind)) * vals


def loss_value(w: np.ndarray, d: Dataset, i: int, kind: str) -> float:
    """Loss of row i (0-based) of `d` at `w`."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, y, m = _row_margin(w, d, i)
    return float(losses(m, y, kind))


def loss_grad(w: np.ndarray, d: Dataset, i: int, kind: str) -> np.ndarray:
    """Dense gradient of row i's loss, supported on the row's feature indices."""
    g = np.zeros_like(w)
    # overflow here means the iterate already blew up; the caller detects
    # the resulting non-finite gradient
    with np.errstate(over="ignore", invalid="ignore"):
        _row_grad(g, w, d, i, kind)
    return g


def empirical_risk(w: np.ndarray, d: Dataset, kind: str) -> float:
    return float(empirical_risk_many(w[None, :], d, kind)[0])


def risk_blocks(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Bounds (lo, hi) of consecutive blocks of at most `width` weight rows
    that cover rows 0..count, for `width` >= 3, one at a time.

    numpy sums a lone column of losses pairwise but each column of a wider
    block in row order, so no block holds exactly one row unless `count` is 1:
    a block that would leave one row over ends a row early.  Evaluated block
    by block over these bounds, `empirical_risk_many` gives the same bits as
    one call on all `count` rows.
    """
    lo = 0
    while lo < count:
        hi = min(lo + width, count)
        if count - hi == 1:
            hi -= 1
        yield lo, hi
        lo = hi


def empirical_risk_many(w_rows: np.ndarray, d: Dataset, kind: str) -> np.ndarray:
    """Empirical risk of each weight row.

    The rows go through the sparse matrix product in blocks of RISK_COLUMNS,
    one block per task on RISK_WORKERS threads, so the (n, block) margins
    and losses are all that is held at once.  A row's risk does not depend on
    the thread count or, within the blocks `risk_blocks` cuts, on the block it
    falls in: the product and the mean accumulate each column on its own.
    """
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.float64))
    if w_rows.shape[1] != d.dim:
        raise ValueError(f"weight rows have dim {w_rows.shape[1]}, dataset has {d.dim}")
    # resolved here: the workers touch no Dataset attribute
    matrix, labels = d.matrix, d.labels[:, None]

    def block(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        return losses(matrix @ w_rows[lo:hi].T, labels, kind).mean(axis=0)

    blocks = list(risk_blocks(w_rows.shape[0], RISK_COLUMNS))
    with ThreadPoolExecutor(max_workers=min(RISK_WORKERS, len(blocks))) as pool:
        return np.concatenate(list(pool.map(block, blocks)))


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
