"""Generalized SGD with momentum, plus coupled runs on neighboring datasets.

The update family is

    m_t = beta * m_{t-1} + g_t,        m_0 = 0
    w_{t+1} = w_t - gamma * g_t - eta * m_t

with beta in [0, 1), gamma >= 0, eta > 0.  Special cases:

* beta = 0 is plain SGD with step size gamma + eta.
* gamma = 0 is the heavy-ball method with step eta.
* eta = beta * gamma is Nesterov's method with step gamma, equivalent to the
  look-ahead form u_t = w_t - gamma * g_t; w_{t+1} = u_t + beta (u_t - u_{t-1}).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .losses import LOSS_KINDS, _sparsetools, empirical_risk_many, grad_scales, signed_scales


class DivergenceError(RuntimeError):
    """Non-finite iterate or gradient entry encountered at `step`."""

    def __init__(self, step: int, which: str = "run"):
        super().__init__(f"non-finite value in {which} at step {step}")
        self.step = step
        self.which = which


@dataclass(frozen=True)
class HyperParams:
    beta: float
    gamma: float
    eta: float
    iterations: int

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


def _sgdm_update(w, m, g, beta, gamma, eta, w_out, m_out):
    """(w_new, m_new) of one momentum update, written to `w_out` and `m_out`."""
    m_new = np.add(beta * m, g, out=m_out)
    return np.subtract(w - gamma * g, eta * m_new, out=w_out), m_new


def _lookahead_update(w, u_curr, g, beta, gamma, w_out, u_out):
    """(w_new, u_new) of one look-ahead step, written to `w_out` and `u_out`."""
    u_new = np.subtract(w, gamma * g, out=u_out)
    return np.add(u_new, beta * (u_new - u_curr), out=w_out), u_new


class SampleStream:
    """Deterministic uniform index stream over 1..n, seeded and replayable.

    The k-th index (1-based k) is a pure function of (seed, k): it is the
    k-th draw of a freshly seeded PCG64 generator, so any prefix can be
    regenerated exactly.
    """

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.seed = seed
        self.n = n

    def prefix(self, count: int) -> np.ndarray:
        """Indices i_1..i_count as an int64 array."""
        rng = np.random.default_rng(self.seed)
        return rng.integers(1, self.n + 1, size=count, dtype=np.int64)

    def chunks(self, count: int, size: int) -> Iterator[np.ndarray]:
        """Indices i_1..i_count as consecutive int64 blocks of at most `size`.

        The blocks concatenate to prefix(count) exactly, but only one of them
        is held at a time: the generator's draws continue across blocks.
        """
        rng = np.random.default_rng(self.seed)
        for start in range(0, count, size):
            yield rng.integers(1, self.n + 1, size=min(size, count - start), dtype=np.int64)


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: iterates w_1..w_{T+1}, momenta m_0 = 0, m_1..m_T, gradients g_1..g_T, indices i_1..i_T."""

    iterates: np.ndarray
    gradients: np.ndarray
    indices: np.ndarray
    hp: HyperParams
    momenta: np.ndarray

    def __post_init__(self):
        if self.iterates.shape[0] != self.gradients.shape[0] + 1:
            raise ValueError("iterates must be one longer than gradients")
        if self.indices.shape[0] != self.gradients.shape[0]:
            raise ValueError("one sampled index per gradient")
        if self.momenta.shape != self.iterates.shape:
            raise ValueError("one momentum per iterate")


# Index-stream steps the batched kernel draws per repetition at a time, and
# the base iterates per pair it buffers for one risk call, so neither grows
# with the number of iterations.
STREAM_CHUNK = 1024


def _gather_steps(width: int) -> int:
    """Steps of a stream block whose rows, `width` entries wide, the batched
    kernel gathers at once: a quarter of the block's entries per side."""
    return max(1, STREAM_CHUNK // (4 * width))


def _add_rows(target: np.ndarray, flat: np.ndarray, values: np.ndarray, colptr: np.ndarray, scales: np.ndarray):
    """target.reshape(-1)[flat] += scales[:, :, None] * values in one call to
    scipy's compiled `csc_matvec`.  `target` is C-contiguous, `flat` and
    `values` are (P, 2, K), `scales` is (P, 2), and colptr is arange(0, 2PK
    + 1, K): each (pair, side) row is a column of K entries, to each of which
    the routine adds value * scale, one multiply and one add, as numpy does.
    A row may repeat a position only where its value is 0: numpy's scatter
    adds that signed zero (or NaN) once, the routine once per entry, with the
    same result.  So the bits are numpy's, except that a NaN entry stays NaN
    of perhaps another sign or payload; the kernel censors its pair."""
    _sparsetools().csc_matvec(target.size, scales.size, colptr, flat, values, scales, target)


_MAIN_DIAGONAL = np.zeros(1, dtype=np.intp)


def _add_product(target: np.ndarray, factor: np.ndarray, source: np.ndarray):
    """target += factor * source for C-contiguous arrays of one shape, in one
    call to scipy's compiled `dia_matvec` with `factor` as the one diagonal:
    with factor = -eta, the bits of target -= eta * source, up to the NaN
    kept where a target entry is already NaN, as in `_add_rows`."""
    _sparsetools().dia_matvec(target.size, target.size, 1, target.size, _MAIN_DIAGONAL, factor, source, target)


def _reference_loop(d, kind, w1, stream, T, update, state0, *coeffs):
    """(indices, iterates, gradients, states) of T steps from w1 and state0.

    Each distinct row the stream draws is read once, by `Dataset.row`, into a
    table of at most min(n, T) rows.  A step then does `_row_grad`'s arithmetic
    inline, with no helper frame: the margin float(np.dot(w[idx], vals)), one
    `grad_scales` call and g[idx] = s * vals; `update` writes the step's
    iterate and state into their rows.  All steps run under one errstate;
    gradients and iterates are checked once per STREAM_CHUNK steps."""
    if stream.n != d.n:
        raise ValueError(f"stream covers 1..{stream.n} but dataset has {d.n} examples")
    w = np.asarray(w1, dtype=np.float64)
    if w.shape != (d.dim,):
        raise ValueError(f"w1 must have shape ({d.dim},), got {w.shape}")
    indices = stream.prefix(T)
    iterates = np.empty((T + 1, d.dim))
    gradients = np.zeros((T, d.dim))
    states = np.empty((T + 1, d.dim))
    iterates[0], states[0] = w, state0
    state = states[0]
    positions = (indices - 1).tolist()
    table = {i: d.row(i) for i in set(positions)}
    rows = [table[i] for i in positions]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, STREAM_CHUNK):
            hi = min(lo + STREAM_CHUNK, T)
            steps = zip(gradients[lo:hi], rows[lo:hi], iterates[lo + 1 : hi + 1], states[lo + 1 : hi + 1])
            for g, (idx, vals, y), w_out, state_out in steps:
                g[idx] = grad_scales(float(np.dot(w[idx], vals)), y, kind) * vals
                w, state = update(w, state, g, *coeffs, w_out, state_out)
            finite = np.isfinite(gradients[lo:hi]).all(axis=1) & np.isfinite(iterates[lo + 1 : hi + 1]).all(axis=1)
            if not finite.all():
                raise DivergenceError(lo + int(finite.argmin()) + 1)
    return indices, iterates, gradients, states


def run(d: Dataset, kind: str, hp: HyperParams, w1: np.ndarray, stream: SampleStream) -> Trajectory:
    """Run T = hp.iterations steps of generalized momentum SGD on `d`.

    This is the reference update loop: each step takes the gradient of the
    drawn row at the current iterate, then sets m_t = beta * m_{t-1} + g_t,
    written straight into row t of `momenta`, and w_{t+1} = w_t - gamma * g_t
    - eta * m_t.
    A non-finite gradient or iterate raises DivergenceError at its step, after
    at most one STREAM_CHUNK block of further steps.
    """
    indices, iterates, gradients, momenta = _reference_loop(
        d, kind, w1, stream, hp.iterations, _sgdm_update, 0.0, hp.beta, hp.gamma, hp.eta
    )
    return Trajectory(iterates=iterates, gradients=gradients, indices=indices, hp=hp, momenta=momenta)


def run_lookahead(
    d: Dataset,
    kind: str,
    beta: float,
    gamma: float,
    iterations: int,
    w1: np.ndarray,
    stream: SampleStream,
) -> np.ndarray:
    """Iterates w_1..w_{T+1} of the look-ahead Nesterov form.

    Gradients are evaluated at the current w, exactly as in `run`; with
    eta = beta * gamma the two forms produce the same trajectory up to
    floating-point rounding.  Each step sets u_t = w_t - gamma * g_t and
    w_{t+1} = u_t + beta * (u_t - u_{t-1}), with u_0 = w_1, which makes the
    first step match the momentum form.
    """
    # u_0 = w_1
    return _reference_loop(d, kind, w1, stream, iterations, _lookahead_update, w1, beta, gamma)[1]


@dataclass(frozen=True)
class CoupledBatch:
    """Distance series of R repetitions x G grid points of coupled runs.

    distances[r, g, j] is ||w_t - w'_t|| after t = (j+1)*stride steps, NaN
    for a censored pair.  diverged_step[r, g] is the step at which the pair
    hit a non-finite value (0 when it ran to the end), and diverged_which
    names the side that did: "base", "neighbor" or "both" ("" when none).
    sum_risk[r, g] is the sum over k = 1..T of the risk on `risk_data` of the
    base side's w_k, NaN for a censored pair, or None when the call was given
    no `risk_data`.  The NaN hides what a censored pair computes after its
    step, frozen at zero.
    """

    distances: np.ndarray
    diverged_step: np.ndarray
    diverged_which: np.ndarray
    sum_risk: np.ndarray | None = None


def coupled_distance_batch(
    data: Dataset,
    train_rows: np.ndarray,
    perturbed: Sequence[int],
    replacements: Sequence[int],
    streams: Sequence[SampleStream],
    kind: str,
    points: Sequence[HyperParams],
    w1: np.ndarray,
    stride: int,
    risk_data: Dataset | None = None,
) -> CoupledBatch:
    """Coupled distance series of every (repetition, grid point) pair at once.

    Repetition r trains on the rows train_rows[r] (shape (R, n)) of `data` in
    the order of its own index stream streams[r] over 1..n; its neighbor
    replaces the train row at 1-based position perturbed[r] by the row
    replacements[r] of `data`.  Every grid point replays the repetition's
    draws.

    All P = R*G pairs advance together on a stacked (P, dim+1, 2) state whose
    last axis is (base, neighbor) and whose column `dim`, which the padding of
    `Dataset.padded` points at, stays zero.  Each side reads its own row every
    step, through the flat positions of the row's entries in the state; the
    positions and values of a few steps' rows are gathered at once.  The pair
    set is fixed for the call, and so are its per-pair arrays and buffers.
    The margins are numpy products.  The rows of `Dataset.padded` are the
    signed rows -y x, so for both losses the products are the signed margins
    z = -y <w, x> and the scales are one `signed_scales(z)` call per step
    (`expit` or z + 1), with the bits of the unsigned arithmetic: a step
    makes 7 numpy and scipy calls, 9 with gamma > 0.  Labels other than +-1
    raise DataError before the first step.  The gradient writes into the
    momentum (and, with gamma > 0, the iterate) and the step w -= eta * m
    are each one call to a compiled scipy routine (`_add_rows`,
    `_add_product`), with the bits of numpy's updates.
    Each step repeats the arithmetic of a lone pair operation for operation,
    so a pair's series does not depend on what it is batched with.

    A pair that hits a non-finite margin, iterate or distance is censored:
    its step and side are recorded, and it is frozen at w = m = 0 with beta,
    eta and gamma 0, so its margins stay 0 and it stays finite.  It costs a
    live pair's step until the call ends, at the end of the stream block in
    which the last pair is censored.  Margins are checked every step: a
    finite sum implies that they are all finite, and only where it is not
    are they tested one by one.  Iterates and distances are checked only at
    stride points, so a pair can be censored a step or more after the
    reference loop raises, on the same side.  A row position outside
    0..data.n - 1 raises ValueError.  With `risk_data`, whose labels must be
    +-1 too, every pair's base iterates w_1..w_T are buffered per stream
    block, each block is one `empirical_risk_many` call, and each pair adds
    its block's risks to its running sum; block edges do not depend on the
    batch, so neither does a pair's sum.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    train_rows = np.asarray(train_rows, dtype=np.intp)
    perturbed = np.asarray(perturbed, dtype=np.int64)
    replacements = np.asarray(replacements, dtype=np.intp)
    R, n = train_rows.shape
    G = len(points)
    if R < 1 or G < 1:
        raise ValueError(f"need at least one repetition and grid point, got {R} and {G}")
    if len(streams) != R or perturbed.shape != (R,) or replacements.shape != (R,):
        raise ValueError("need one stream, perturbed index and replacement per repetition")
    if any(s.n != n for s in streams):
        raise ValueError(f"every stream must cover 1..{n}")
    if ((perturbed < 1) | (perturbed > n)).any():
        raise ValueError(f"neighbor index out of range 1..{n}")
    for name, rows in (("train", train_rows), ("replacement", replacements)):
        if rows.min() < 0 or rows.max() >= data.n:
            raise ValueError(f"{name} row positions must be in 0..{data.n - 1}")
    T = points[0].iterations
    if any(hp.iterations != T for hp in points):
        raise ValueError("grid points must share the number of iterations")
    dim = data.dim
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (dim,):
        raise ValueError(f"w1 must have shape ({dim},), got {w1.shape}")

    # the rows are signed by -y: their margins are z = -y <w, x>
    indices, values = data.padded
    width = indices.shape[1]
    sub = _gather_steps(width)
    # pair p is (repetition p // G, grid point p % G).  Its arrays: the flat
    # state position of column 0 of each (pair, side) at each of a row's
    # `width` entries, beta and -eta at every state entry (a full-size operand
    # multiplies faster than a broadcast one), -gamma, the column pointers of
    # `_add_rows`, and the buffers each step writes: the base-side rows' state
    # entries, the margins and their gradient scales
    P = R * G
    rep, g = np.divmod(np.arange(P), G)
    betas, etas, gammas = np.array([(hp.beta, hp.eta, hp.gamma) for hp in points])[g].T
    full = (P, dim + 1, 2)
    offsets = 2 * (dim + 1) * np.arange(P)[:, None, None] + np.arange(2)[:, None]
    offsets = np.broadcast_to(offsets, (P, 2, width)).copy()
    beta = np.broadcast_to(betas[:, None, None], full).copy()
    zero_beta = betas == 0.0
    zero_beta = zero_beta if zero_beta.any() else None
    neg_eta = np.broadcast_to(-etas[:, None, None], full).copy()
    neg_gamma = -gammas[:, None]
    colptr = np.arange(0, 2 * P * width + 1, width, dtype=np.intp)
    cell_buf, margin_buf, scale_buf = np.empty((P, width, 2)), np.empty((P, 2, 1)), np.empty((P, 2))
    L = T // stride
    distances = np.full((P, L), np.nan)
    diverged_step = np.zeros(P, dtype=np.int64)
    diverged_which = np.full(P, "", dtype="<U8")
    sum_risk = base_iterates = None
    if risk_data is not None:
        risk_data.signed_values  # refuses labels other than +-1 before the first step
        sum_risk = np.zeros(P)
        base_iterates = np.empty((P, min(T, STREAM_CHUNK), dim))
    W = np.zeros(full)
    W[:, :dim] = w1[:, None]
    M = np.zeros_like(W)
    # the (P * (dim+1), 2) view of the state holds the (base, neighbor)
    # entries of pair p at column i in row p * (dim+1) + i, so side s's entry
    # is at flat 2 * row + s, and a base entry's row is half its flat position
    state_rows, margins, rows_t = W.reshape(-1, 2), margin_buf[:, :, 0], cell_buf.transpose(0, 2, 1)
    any_gamma = bool(gammas.any())
    k = pos = 0
    # overflow is expected on divergent runs; the margin and distance checks
    # turn it into censoring instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for block in zip(*(s.chunks(T, STREAM_CHUNK) for s in streams)):
            block = np.stack(block)
            base_rows = np.take_along_axis(train_rows, block - 1, axis=1)
            hit = block == perturbed[:, None]
            # (step, pair, side) rows: the neighbor reads the replacement
            # wherever its stream hits the perturbed index
            neighbor_rows = np.where(hit, replacements[:, None], base_rows)
            step_rows = np.stack([base_rows, neighbor_rows], axis=2)[rep].transpose(1, 0, 2).copy()
            del base_rows, neighbor_rows
            if sum_risk is not None:
                # a shorter block takes the front of the buffer, so its rows reshape without a copy
                base_iterates = base_iterates.reshape(-1)[: P * block.shape[1] * dim].reshape(P, -1, dim)
            hit_steps = hit.any(axis=0).tolist()
            for first in range(0, len(hit_steps), sub):
                # the rows of the next `sub` steps at once
                gathered = step_rows[first : first + sub]
                flats = indices.take(gathered, axis=0)
                flats *= 2
                flats += offsets
                row_values = values.take(gathered, axis=0)
                steps = zip(flats, row_values, flats[:, :, 0] >> 1, row_values[:, :, 0, :, None])
                for j, (flat, vx, cells, x) in enumerate(steps, first):
                    if sum_risk is not None:
                        base_iterates[:, j] = W[:, :dim, 0]
                    # off a hit both sides read the base row, so one product per
                    # pair gives both margins; the cells are in range, so `take`
                    # writes its buffer directly
                    state_rows.take(cells, axis=0, out=cell_buf, mode="clip")
                    np.matmul(rows_t, x, out=margin_buf)
                    if hit_steps[j]:
                        # on a hit the sides read different rows: one dot per side
                        a = np.flatnonzero(hit[rep, j])
                        wa = W.reshape(-1).take(flat[a])[:, :, None, :]
                        margins[a] = np.matmul(wa, vx[a][..., None])[..., 0, 0]
                    scales = signed_scales(margins, kind, scale_buf)
                    bad = None
                    if not math.isfinite(np.add.reduce(margins, None)):
                        finite = np.isfinite(margins)
                        if not finite.all():
                            bad = ~finite  # (P, 2) non-finite sides
                    M *= beta
                    if zero_beta is not None:
                        M[zero_beta] = 0.0
                    _add_rows(M, flat, vx, colptr, scales)
                    _add_product(W, neg_eta, M)
                    if any_gamma:
                        # (-gamma) * scale is -(gamma * scale), the sign of a NaN included
                        _add_rows(W, flat, vx, colptr, neg_gamma * scales)
                    k += 1
                    if k % stride == 0:
                        diff = W[:, :dim, 0] - W[:, :dim, 1]
                        dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                        distances[:, pos] = dist
                        pos += 1
                        # a non-finite distance with finite sides is a gap that
                        # left float range; it counts against both
                        side_bad = ~np.isfinite(W).all(axis=1)
                        side_bad[~np.isfinite(dist) & ~side_bad.any(axis=1)] = True
                        if side_bad.any():
                            if bad is None:
                                bad = side_bad
                            else:
                                fresh = ~bad.any(axis=1)
                                bad[fresh] = side_bad[fresh]
                    if bad is not None:
                        dead = bad.any(axis=1)
                        diverged_step[dead] = k
                        diverged_which[dead] = np.where(
                            bad[dead].all(axis=1), "both", np.where(bad[dead, 0], "base", "neighbor")
                        )
                        # freeze the pair at w = m = 0 with no step: its margins
                        # are 0, its scales 1/2 or 1 and its momentum one
                        # gradient at 0, so it stays finite
                        W[dead] = M[dead] = beta[dead] = neg_eta[dead] = neg_gamma[dead] = 0.0
            if diverged_step.all():
                break
            if sum_risk is not None:
                risks = empirical_risk_many(base_iterates.reshape(-1, dim), risk_data, kind)
                sum_risk += risks.reshape(P, -1).sum(axis=1)
    distances[diverged_step > 0] = np.nan
    if sum_risk is not None:
        sum_risk[diverged_step > 0] = np.nan
        sum_risk = sum_risk.reshape(R, G)
    return CoupledBatch(
        distances=distances.reshape(R, G, L),
        diverged_step=diverged_step.reshape(R, G),
        diverged_which=diverged_which.reshape(R, G),
        sum_risk=sum_risk,
    )
