"""Per-example convex losses, empirical risk, and smoothness constants.

Two loss kinds are supported:

* ``logistic``: l(w; (x, y)) = log(1 + exp(-y <w, x>)), per-example
  smoothness ||x||^2 / 4.
* ``squared``:  l(w; (x, y)) = (<w, x> - y)^2 / 2, per-example
  smoothness ||x||^2.

Both gradients are a scalar multiple of the feature vector, which the
optimizer exploits for sparse updates.  `losses` and `grad_scales` hold the
two formulas as functions of the margin <w, x> and the label, and
`signed_losses` and `signed_scales` the logistic ones as functions of the
signed margin z = -y <w, x>; `losses` and `grad_scales` go through them, the
squared loss goes through `_squared_losses`, and every other loss
computation in the package goes through these.  For a
label of +-1, z is the margin of the signed row -y x bit for bit (negating
is exact and rounding to nearest is symmetric), up to the sign of a zero
margin, which neither formula reads: `Dataset.signed_values` and
`Dataset.signed_padded` hold those rows, and the risk sum and the coupled
kernel take z straight from their products.  The logistic gradient of a
signed row is expit(z) * (-y x), the bits of (-y expit(z)) * x.

The logistic gradient scale is -y * sigmoid(-y m) with sigmoid(z) =
1 / (1 + exp(-z)), and its exp is the C library's.  numpy's float `np.exp`
is not used there, because its SIMD loops differ from the C library in the
last bit on some inputs, and the coupled runs amplify a one-ulp change in a
gradient.  A Python float goes through `math.exp`.  An array goes through
scipy's `expit` ufunc, which computes 1 / (1 + exp(-z)) with the C library's
exp: the scalar path's bits at every margin, in one compiled call.  `_expit`
loads it from the `special/_special_ufuncs` extension file alone, and the
CSR products of `margins` and `empirical_risk_many` and the batched kernel's
writes call routines that `_sparsetools` loads from the `sparse/_sparsetools`
extension file: a few milliseconds each, against about a quarter of a second
to import `scipy.special` or `scipy.sparse`.  The risk sum takes the CSR
product in tiles of RISK_ROWS data rows by RISK_COLUMNS weight rows, computed
in place in two buffers per thread, and adds each tile's losses to a running
total in row order, so its memory does not grow with n and each risk is the
n losses added in row order from the first, divided by n, whatever block the
row is evaluated in.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset

LOSS_KINDS = ("logistic", "squared")

# Weight rows `empirical_risk_many` evaluates per block, the data rows a
# block takes at a time, and its thread count: one per CPU this process may
# run on.  A tile of RISK_ROWS x RISK_COLUMNS margins is 512 KB, so a
# thread's two tile buffers stay near the cache and do not grow with n; each
# band costs about ten numpy calls under the GIL.  The matrix product and the
# loss ufuncs release the GIL, so the blocks run in parallel.
RISK_COLUMNS = 256
RISK_ROWS = 256
RISK_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_kind(kind: str) -> str:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}, expected one of {LOSS_KINDS}")
    return kind


# the sign bit of a float64, as an int64
_SIGN_BIT = np.int64(-(2**63))


def signed_losses(z, t):
    """Logistic loss log(1 + exp(z)) at signed margins z = -y <w, x>, written
    into z; `t` is a float64 buffer of z's shape.  Computed as
    log1p(exp(-|z|)) + max(z, 0), it cannot overflow.  -|z| is z with its
    sign bit set, NaN and zeros included: one integer pass, where numpy's
    `copysign` loop costs about three and `negative(abs(z))` two."""
    np.bitwise_or(z.view(np.int64), _SIGN_BIT, out=t.view(np.int64))
    np.log1p(np.exp(t, out=t), out=t)
    return np.add(np.maximum(z, 0.0, out=z), t, out=z)


def signed_scales(z, out=None):
    """Scalar s with gradient s * (-y x) at signed margins z = -y <w, x>:
    expit(z), in one compiled call, written into `out` if given."""
    return _expit()(z, out=out)


def _squared_losses(r):
    """Squared loss r^2 / 2 at residuals r = <w, x> - y, written into r."""
    return np.multiply(np.square(r, out=r), 0.5, out=r)


def losses(margins, y, kind: str):
    """Loss at margin <w, x> and label y, elementwise."""
    if _check_kind(kind) == "logistic":
        # `out=` keeps 0-d arrays
        z = np.asarray(-y * margins, dtype=np.float64)
        return signed_losses(z, np.empty_like(z))
    return _squared_losses(np.asarray(margins - y, dtype=np.float64))


def _exp(t: float) -> float:
    """The C library's exp(t), inf where it leaves float range."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def grad_scales(margins, y, kind: str, ny=None, out=None):
    """Scalar s with gradient s * x at margin <w, x> and label y, elementwise.

    Python floats take `math.exp`; arrays take `signed_scales`, with the
    bits of the scalar path.  A caller may pass `ny` = -y when it has it, and
    `out`, an array of the broadcast shape, for the result.
    """
    if _check_kind(kind) == "logistic":
        # ny * expit(ny m), with expit(z) = 1 / (1 + exp(-z))
        if ny is None:
            ny = -y
        if isinstance(margins, float) and isinstance(ny, float):
            return ny * (1.0 / (1.0 + _exp(-(ny * margins))))
        s = signed_scales(np.multiply(ny, margins, out=out), out=out)
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


def margins(d: Dataset, W: np.ndarray) -> np.ndarray:
    """The (n, len(W)) margins <w, x> of every row of `d` under every weight
    row of `W`, with the bits of scipy's CSR @ dense product: `csr_matvecs`,
    the routine that product runs, on `d`'s own arrays."""
    wt = np.ascontiguousarray(W.T)
    out = np.zeros((d.n, wt.shape[1]))
    _sparsetools().csr_matvecs(d.n, wt.shape[0], wt.shape[1], d.indptr, d.indices, d.values, wt.ravel(), out.ravel())
    return out


def empirical_risk_many(w_rows: np.ndarray, d: Dataset, kind: str) -> np.ndarray:
    """Empirical risk of each weight row: the n losses at the margins scipy's
    CSR @ dense product gives, added in row order from the first, divided
    by n.

    The rows go through the sparse matrix product in blocks of RISK_COLUMNS.
    RISK_WORKERS threads, the caller's among them, take the block numbers
    from one shared iterator; a call of one block, or RISK_WORKERS = 1, runs
    in the caller's thread alone, and the first exception a thread meets
    reaches the caller.  A block walks the data in bands of RISK_ROWS rows
    and keeps a running sum per weight row.  Each band's tile of margins and
    losses is computed in place in two buffers its thread holds for the
    whole call, so the memory does not grow with n.  For the logistic loss
    on labels +-1, the product reads `Dataset.signed_values` and gives z =
    -y <w, x> at once (`signed_losses`); other labels, and the squared loss,
    take the product of the plain values.  The product accumulates each
    column on its own, and numpy sums each column of a tile wider than one
    in row order; the running sum enters each band as the first term of that
    order.  A block of one row, whose lone column numpy would sum pairwise,
    is evaluated as two identical columns and the first is kept.  So a row's
    risk depends neither on the thread count, the band height nor the block
    it falls in.
    """
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.float64))
    if w_rows.shape[1] != d.dim:
        raise ValueError(f"weight rows have dim {w_rows.shape[1]}, dataset has {d.dim}")
    logistic = _check_kind(kind) == "logistic"
    # resolved here: the threads touch no Dataset attribute
    signed = d.signed_values if logistic else None
    values = d.values if signed is None else signed
    labels, negated = d.labels[:, None], -d.labels[:, None]
    matvecs, indptr, indices = _sparsetools().csr_matvecs, d.indptr, d.indices
    n, height, width = d.n, RISK_ROWS, RISK_COLUMNS
    risks = np.empty(w_rows.shape[0])

    def block(lo: int, z: np.ndarray, t: np.ndarray) -> None:
        rows = w_rows[lo : lo + width]
        # contiguous, so the product does not copy it once per band
        wt = np.ascontiguousarray((rows if len(rows) > 1 else rows[[0, 0]]).T)
        dim, cols = wt.shape
        acc = None
        for r in range(0, n, height):
            ptr = indptr[r : r + height + 1]
            h = ptr.size - 1
            out = z[: h * cols]
            out.fill(0.0)
            matvecs(h, dim, cols, ptr, indices, values, wt.ravel(), out)
            tile, scratch = out.reshape(h, cols), t[: h * cols].reshape(h, cols)
            if signed is not None:
                signed_losses(tile, scratch)
            elif logistic:
                signed_losses(np.multiply(negated[r : r + h], tile, out=tile), scratch)
            else:
                _squared_losses(np.subtract(tile, labels[r : r + h], out=tile))
            if acc is not None:
                # in place of the band's first row: the sum so far plus that row,
                # the addition numpy's row-order sum makes next
                np.add(acc, tile[0], out=tile[0])
            acc = tile.sum(axis=0)
        risks[lo : lo + len(rows)] = acc[: len(rows)] / n

    errors = []

    def work(starts) -> None:
        z, t = np.empty(height * width), np.empty(height * width)
        try:
            for lo in starts:
                block(lo, z, t)
        except BaseException as e:  # re-raised in the caller's thread
            errors.append(e)

    starts = range(0, w_rows.shape[0], width)
    shared = iter(starts)
    # new threads start from numpy's default error state: each enters the caller's
    threads = [
        threading.Thread(target=np.errstate(**np.geterr())(work), args=(shared,))
        for _ in range(min(RISK_WORKERS, len(starts)) - 1)
    ]
    for thread in threads:
        thread.start()
    work(shared)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return risks


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
