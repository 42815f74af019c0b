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
1 / (1 + exp(-z)), and its exp is the C library's.  numpy's float `np.exp`
is not used there, because its SIMD loops differ from the C library in the
last bit on some inputs, and the coupled runs amplify a one-ulp change in a
gradient.  A Python float goes through `math.exp`.  An array goes through
scipy's `expit` ufunc, which computes 1 / (1 + exp(-z)) with the C library's
exp: the scalar path's bits at every margin, in one compiled call.  `_expit`
loads it from the `special/_special_ufuncs` extension file alone, and the
CSR products of `margins`, `empirical_risk_many` and the batched kernel's
writes call routines that `_sparsetools` loads from the `sparse/_sparsetools`
extension file: a few milliseconds each, against about a quarter of a second
to import `scipy.special` or `scipy.sparse`.  The
risk sum takes the CSR product in tiles of RISK_ROWS data rows by RISK_COLUMNS
weight rows and adds each tile's losses to a running total in row order, so
its memory does not grow with n and each risk is the n losses added in row
order from the first, divided by n, whatever block the row is evaluated in.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset

LOSS_KINDS = ("logistic", "squared")

# Weight rows `empirical_risk_many` evaluates per task, the data rows each
# task takes at a time, and its thread count: one per CPU this process may run
# on.  A tile of RISK_ROWS x RISK_COLUMNS margins is 512 KB, so a task's
# temporaries stay near the cache and do not grow with n; each band costs a
# dozen numpy calls under the GIL.  The matrix product and the loss ufuncs
# release the GIL, so the blocks run in parallel.
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


def grad_scales(margins, y, kind: str, ny=None, out=None):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise.

    Python floats take `math.exp`; arrays take one `expit` call, with the
    bits of the scalar path.  A caller may pass `ny` = -y when it has it, and
    `out`, an array of the broadcast shape, for the result.
    """
    if _check_kind(kind) == "logistic":
        # ny * expit(ny m), with expit(z) = 1 / (1 + exp(-z))
        if ny is None:
            ny = -y
        if isinstance(margins, float) and isinstance(ny, float):
            return ny * (1.0 / (1.0 + _exp(-(ny * margins))))
        s = _expit()(np.multiply(ny, margins, out=out), out=out)
        return np.multiply(ny, s, out=out)
    return margins - y if out is None else np.subtract(margins, y, out=out)


def _row_margin(w: np.ndarray, d: Dataset, i: int):
    """(indices, values, label, <w, x>) of row i (0-based) of `d`.  A blown-up
    w overflows here: `loss_value` and `loss_grad` call it in an errstate that
    ignores it.  The reference loop (`optimizer._reference_loop`) does
    `_row_grad`'s arithmetic inline, bit for bit, and checks its results."""
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


def _scipy_extension(subpackage: str, name: str):
    """scipy's private extension module `scipy.<subpackage>.<name>`, loaded
    from its extension file alone: no scipy package module runs.  None where
    the file is missing or fails to load."""
    try:
        folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], subpackage)
        loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(folder, loaders).find_spec(f"scipy.{subpackage}.{name}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (AttributeError, ImportError, TypeError, ValueError):
        return None


@functools.cache
def _sparsetools():
    """scipy's `_sparsetools` extension, whose routines its sparse products
    run; where its file does not load, imported the plain way, which imports
    `scipy.sparse`."""
    return _scipy_extension("sparse", "_sparsetools") or importlib.import_module("scipy.sparse._sparsetools")


@functools.cache
def _expit():
    """scipy's `expit` ufunc from its `_special_ufuncs` extension; where that
    file is missing (an older scipy) or does not load, `scipy.special.expit`,
    which imports `scipy.special`."""
    expit = getattr(_scipy_extension("special", "_special_ufuncs"), "expit", None)
    return expit or importlib.import_module("scipy.special").expit


def _band_products(d: Dataset, height: int) -> Callable[[int, np.ndarray], np.ndarray]:
    """The product of rows r:r+height of `d` with a C-contiguous `wt`, as a
    function of (r, wt), with the bits of scipy's CSR @ dense product:
    `csr_matvecs`, the routine that product runs, reads row i at
    ptr[i]:ptr[i+1] of `d`'s own index and value arrays, so a band is a view
    of `indptr`."""
    matvecs, indptr, indices, values = _sparsetools().csr_matvecs, d.indptr, d.indices, d.values

    def product(r: int, wt: np.ndarray) -> np.ndarray:
        ptr = indptr[r : r + height + 1]
        out = np.zeros((ptr.size - 1, wt.shape[1]))
        matvecs(ptr.size - 1, wt.shape[0], wt.shape[1], ptr, indices, values, wt.ravel(), out.ravel())
        return out

    return product


def margins(d: Dataset, W: np.ndarray) -> np.ndarray:
    """The (n, len(W)) margins <w, x> of every row of `d` under every weight
    row of `W`, with the bits of scipy's CSR @ dense product, in one band."""
    return _band_products(d, d.n)(0, np.ascontiguousarray(W.T))


def empirical_risk_many(w_rows: np.ndarray, d: Dataset, kind: str) -> np.ndarray:
    """Empirical risk of each weight row: the n losses at the margins scipy's
    CSR @ dense product gives, added in row order from the first, divided
    by n.

    The rows go through the sparse matrix product in blocks of RISK_COLUMNS,
    one block per task on RISK_WORKERS threads.  A task walks the data in
    bands of RISK_ROWS rows and keeps a running sum per weight row, so one
    (band, block) tile of margins and losses per thread is all that is held
    at once, whatever n is.  The product accumulates each column on its own,
    and numpy sums each column of a tile wider than one in row order; the
    running sum enters each band as the first term of that order.  A block
    of one row, whose lone column numpy would sum pairwise, is evaluated as
    two identical columns and the first is kept.  So a row's risk depends
    neither on the thread count, the band height nor the block it falls in.
    """
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.float64))
    if w_rows.shape[1] != d.dim:
        raise ValueError(f"weight rows have dim {w_rows.shape[1]}, dataset has {d.dim}")
    # resolved here: the workers touch no Dataset attribute
    labels, n, height, width = d.labels[:, None], d.n, RISK_ROWS, RISK_COLUMNS
    product = _band_products(d, height)

    # pool threads start from numpy's default error state: each task enters the caller's
    @np.errstate(**np.geterr())
    def block(lo: int) -> np.ndarray:
        rows = w_rows[lo : lo + width]
        # contiguous, so the product does not copy it once per band
        wt = np.ascontiguousarray((rows if len(rows) > 1 else rows[[0, 0]]).T)
        acc = None
        for r in range(0, n, height):
            tile = losses(product(r, wt), labels[r : r + height], kind)
            if acc is not None:
                # in place of the band's first row: the sum so far plus that row,
                # the addition numpy's row-order sum makes next
                np.add(acc, tile[0], out=tile[0])
            acc = tile.sum(axis=0)
        return acc[: len(rows)] / n

    # imported here: only the risk sum runs threads, and concurrent.futures
    # would load logging and queue into every verb
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, w_rows.shape[0], width)
    with ThreadPoolExecutor(max_workers=min(RISK_WORKERS, len(starts))) as pool:
        return np.concatenate(list(pool.map(block, starts)))


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
