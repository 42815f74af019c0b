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

The logistic gradient scale is -y * sigmoid(-y m) with sigmoid(z) =
1 / (1 + exp(-z)), and its exp is the C library's, through `math.exp`:
that is exactly what `scipy.special.expit` computes, bit for bit, without
importing scipy.  numpy's `np.exp` is not used there, because its SIMD loops
differ from the C library in the last bit on some inputs, and the coupled
runs amplify a one-ulp change in a gradient.  Only `empirical_risk_many`
needs scipy, for the sparse product of `Dataset.matrix`.  It takes that
product in tiles of RISK_ROWS data rows by RISK_COLUMNS weight rows and sums
each tile's losses into a running total in row order, so its memory does not
grow with n and its risks are bit for bit the mean over all n losses.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset

LOSS_KINDS = ("logistic", "squared")

# Weight rows `empirical_risk_many` evaluates per task, the data rows each
# task takes at a time, and its thread count: one per CPU this process may run
# on.  A tile of RISK_ROWS x RISK_COLUMNS margins is 512 KB, so a task's
# temporaries stay near the cache and do not grow with n; 128-row bands were
# slower when each band cost a scipy slice, and each still costs a dozen
# numpy calls under the GIL.
# numpy and scipy release the GIL in the matrix product and the loss ufuncs,
# so the blocks run in parallel.
RISK_COLUMNS = 256
RISK_ROWS = 256
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


def _exp(t: float) -> float:
    """The C library's exp(t), inf where it leaves float range."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def grad_scales(margins, y, kind: str):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        # ny * expit(ny m), with expit(z) = 1 / (1 + exp(-z)) spelled out
        ny = -y
        t = -(ny * margins)
        if isinstance(t, float):
            return ny * (1.0 / (1.0 + _exp(t)))
        flat = t.ravel().tolist()
        try:
            e = np.fromiter(map(math.exp, flat), np.float64, len(flat))
        except OverflowError:
            e = np.fromiter(map(_exp, flat), np.float64, len(flat))
        e = e.reshape(t.shape)
        np.add(e, 1.0, out=e)
        np.divide(1.0, e, out=e)
        return np.multiply(ny, e, out=e)
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


def _bands(matrix, rows: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    """`matrix` (CSR) in bands of `rows` rows, each a function of a
    C-contiguous dense `wt` that returns the band's product with it, with
    the bits of `matrix @ wt`.  A band runs `csr_matvecs`, the routine
    scipy's CSR @ dense product runs, on slices of the matrix's own arrays,
    so only its row pointers are new.  A scipy row slice copies the band's
    entries and checks them again, about 40 us with the GIL held, and so
    does a CSR matrix built over the slices: scipy copies a view that small
    of a larger array into its own.  `csr_matvecs` is private to scipy;
    where it is missing, the bands are scipy's own slices."""
    try:
        from scipy.sparse._sparsetools import csr_matvecs
    except ImportError:
        return [matrix[r : r + rows].__matmul__ for r in range(0, matrix.shape[0], rows)]
    bands = []
    for r in range(0, matrix.shape[0], rows):
        ptr = matrix.indptr[r : r + rows + 1]
        lo, hi = ptr[0], ptr[-1]
        band = (ptr - lo, matrix.indices[lo:hi], matrix.data[lo:hi])
        bands.append(functools.partial(_band_product, csr_matvecs, *band))
    return bands


def _band_product(matvecs, ptr: np.ndarray, indices: np.ndarray, values: np.ndarray, wt: np.ndarray) -> np.ndarray:
    out = np.zeros((ptr.size - 1, wt.shape[1]))
    matvecs(ptr.size - 1, wt.shape[0], wt.shape[1], ptr, indices, values, wt.ravel(), out.ravel())
    return out


def empirical_risk_many(w_rows: np.ndarray, d: Dataset, kind: str) -> np.ndarray:
    """Empirical risk of each weight row, bit for bit
    `losses(d.matrix @ w_rows.T, d.labels[:, None], kind).mean(axis=0)`.

    The rows go through the sparse matrix product in blocks of RISK_COLUMNS,
    one block per task on RISK_WORKERS threads.  A task walks the data in
    bands of RISK_ROWS rows and keeps a running sum per weight row, so one
    (band, block) tile of margins and losses per thread is all that is held
    at once, whatever n is.  The product accumulates each column on its own,
    and numpy sums each column of a tile wider than one in row order; the
    running sum enters each band as the first term of that order.  So a row's
    risk depends neither on the thread count, the band height nor, within the
    blocks `risk_blocks` cuts, on the block it falls in.  A lone row, whose
    column numpy sums pairwise, is evaluated over all n data rows at once, and
    so is data of at most one band.
    """
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.float64))
    if w_rows.shape[1] != d.dim:
        raise ValueError(f"weight rows have dim {w_rows.shape[1]}, dataset has {d.dim}")
    # resolved here: the workers touch no Dataset attribute
    matrix, labels, n = d.matrix, d.labels[:, None], d.n
    # the bands, cut once and shared by every block
    bands = _bands(matrix, RISK_ROWS) if n > RISK_ROWS and w_rows.shape[0] > 1 else []

    def block(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        # contiguous, so the product does not copy it once per band
        wt = np.ascontiguousarray(w_rows[lo:hi].T)
        if hi - lo == 1 or n <= RISK_ROWS:
            # a lone row, or data of one band, which a slice would only copy
            return losses(matrix @ wt, labels, kind).mean(axis=0)
        acc = None
        for r, band in zip(range(0, n, RISK_ROWS), bands):
            tile = losses(band(wt), labels[r : r + RISK_ROWS], kind)
            if acc is not None:
                # in place of the band's first row: the sum so far plus that row,
                # the addition numpy's row-order sum makes next
                np.add(acc, tile[0], out=tile[0])
            acc = tile.sum(axis=0)
        return acc / n

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
    """Raises DataError when a row's squared norm, and so alpha, overflows."""
    _check_kind(kind)
    per_example = d.norm_sq / 4.0 if kind == "logistic" else d.norm_sq
    alpha = float(per_example.max())
    if alpha == math.inf:
        raise DataError("alpha overflows: a row's squared norm exceeds the float range; rescale the features")
    return SmoothnessReport(alpha=alpha, per_example=per_example)
