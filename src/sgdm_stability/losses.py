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
1 / (1 + exp(-z)), and its exp is the C library's: that is exactly what
`scipy.special.expit` computes, bit for bit, without importing scipy.
numpy's float `np.exp` is not used there, because its SIMD loops differ from
the C library in the last bit on some inputs, and the coupled runs amplify a
one-ulp change in a gradient.  A Python float goes through `math.exp`.  An
array goes through numpy's complex `np.exp` at imaginary part 0, one compiled
call into the C library's `cexp`, whose real part glibc computes as exp(t) * 1
up to t = EXP_EXACT_MAX = 709; above that it rescales, as exp(709) *
exp(t - 709), which can differ in the last bit (at t = 709.0000362545957, for
one).  So the entries above 709, and NaN, still take `math.exp` one at a
time.  Only `margins`,
`empirical_risk_many` and the batched kernel's writes need scipy: they call
routines of its `_sparsetools` extension, which `_sparsetools` loads from
the extension file, in 1 ms against 0.26 s to import `scipy.sparse`.  The
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


# The largest t at which the real part of glibc's cexp(t + 0i) is exp(t) with
# the bits of `math.exp`: above it cexp computes exp(709) * exp(t - 709).
EXP_EXACT_MAX = 709.0


class ScaleBuffers:
    """The arrays `grad_scales` writes for margins of one shape, for a caller
    that repeats the call at that shape.  After each call, `bounded` tells
    whether every |y m| was at most EXP_EXACT_MAX, which implies that every
    margin was finite; it is always False for the squared loss."""

    def __init__(self, shape: tuple[int, ...]):
        self.t = np.empty(shape)
        # t + 0i and its exp; the imaginary part of `z` stays 0
        self.z = np.zeros(shape, dtype=np.complex128)
        self.exp = np.empty(shape, dtype=np.complex128)
        self.scales = np.empty(shape)
        self.bounded = False


def grad_scales(margins, y, kind: str, ny=None, buffers: ScaleBuffers | None = None):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise.

    Python floats take `math.exp`.  Arrays take one complex `np.exp` call,
    the C library's `cexp`, where every |y m| is at most EXP_EXACT_MAX, and
    `math.exp` entry by entry above it and at NaN: the bits of the scalar
    path either way.  A caller may pass `ny` = -y when it has it, and
    `buffers` for the arrays to write; the result is then `buffers.scales`.
    """
    if _check_kind(kind) == "logistic":
        # ny * expit(ny m), with expit(z) = 1 / (1 + exp(-z)) spelled out
        if ny is None:
            ny = -y
        if isinstance(margins, float) and isinstance(ny, float):
            return ny * (1.0 / (1.0 + _exp(-(ny * margins))))
        b = buffers or ScaleBuffers(np.broadcast_shapes(np.shape(margins), np.shape(y)))
        # y m is -((-y) m), bit for bit up to the sign of a NaN
        t, e, s = np.multiply(y, margins, out=b.t), b.exp.real, b.scales
        # `s` holds |t| until the scales overwrite it
        b.bounded = not t.size or np.maximum.reduce(np.abs(t, out=s), None) <= EXP_EXACT_MAX
        b.z.real = t
        if b.bounded:
            np.exp(b.z, out=b.exp)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                np.exp(b.z, out=b.exp)
                # above EXP_EXACT_MAX, and at NaN, math.exp of -((-y) m): the
                # bits of the scalar path, NaN signs included
                over = ~(t <= EXP_EXACT_MAX)
                if over.any():
                    e[over] = list(map(_exp, np.negative(ny * margins)[over].tolist()))
        s[...] = e
        np.add(s, 1.0, out=s)
        np.divide(1.0, s, out=s)
        return np.multiply(ny, s, out=s)
    if buffers is None:
        return margins - y
    buffers.bounded = False
    return np.subtract(margins, y, out=buffers.scales)


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


@functools.cache
def _sparsetools():
    """scipy's private `_sparsetools` extension, whose routines its sparse
    products run, loaded from the `sparse/_sparsetools` extension file alone:
    no scipy package module runs.  Where that fails, imported the plain way,
    which imports `scipy.sparse`."""
    try:
        folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
        loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
        spec = importlib.machinery.FileFinder(folder, loaders).find_spec("scipy.sparse._sparsetools")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except (AttributeError, ImportError, TypeError, ValueError):
        return importlib.import_module("scipy.sparse._sparsetools")


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
