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
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.special import expit

from .dataset import Dataset, Example, NeighborSpec, make_neighbor
from .losses import empirical_risk_many, loss_grad

TRAJ_MAGIC = b"SGDMTRAJ"


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


def hb_params(eta: float, beta: float, iterations: int) -> HyperParams:
    """Heavy-ball hyperparameters: gamma = 0."""
    return HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=iterations)


def nesterov_params(gamma: float, beta: float, iterations: int) -> HyperParams:
    """Nesterov hyperparameters: eta = beta * gamma.  Requires beta > 0.

    At beta = 0 the method is plain SGD with step gamma; callers should use
    that form directly since eta would vanish here.
    """
    if beta <= 0.0:
        raise ValueError("nesterov_params requires beta > 0; use plain SGD for beta = 0")
    return HyperParams(beta=beta, gamma=gamma, eta=beta * gamma, iterations=iterations)


@dataclass(frozen=True)
class SgdmState:
    w: np.ndarray
    m: np.ndarray
    step: int


def sgdm_step(s: SgdmState, g: np.ndarray, hp: HyperParams) -> SgdmState:
    """One momentum update.  Raises DivergenceError on non-finite values."""
    if not np.isfinite(g).all():
        raise DivergenceError(s.step + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        m_new = hp.beta * s.m + g
        w_new = s.w - hp.gamma * g - hp.eta * m_new
    if not np.isfinite(w_new).all():
        raise DivergenceError(s.step + 1)
    return SgdmState(w=w_new, m=m_new, step=s.step + 1)


@dataclass(frozen=True)
class LookaheadState:
    u_prev: np.ndarray
    u_curr: np.ndarray
    w: np.ndarray
    step: int


def lookahead_step(s: LookaheadState, g: np.ndarray, beta: float, gamma: float) -> LookaheadState:
    """One step of the two-sequence Nesterov form.

    u_new = w - gamma * g and the next iterate extrapolates:
    w_new = u_new + beta * (u_new - u_prev), where u_prev is the previous u
    (initialized to w_1, which makes the first step match the momentum form).
    """
    if not np.isfinite(g).all():
        raise DivergenceError(s.step + 1)
    u_new = s.w - gamma * g
    w_new = u_new + beta * (u_new - s.u_curr)
    if not np.isfinite(w_new).all():
        raise DivergenceError(s.step + 1)
    return LookaheadState(u_prev=s.u_curr, u_curr=u_new, w=w_new, step=s.step + 1)


class SampleStream:
    """Deterministic uniform index stream over 1..n, seeded and replayable.

    The k-th index (1-based k) is a pure function of (seed, k): it is the
    k-th draw of a freshly seeded PCG64 generator, so any prefix can be
    regenerated exactly regardless of query order.
    """

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.seed = seed
        self.n = n
        self._cache = np.empty(0, dtype=np.int64)

    def _ensure(self, count: int) -> None:
        if count > self._cache.shape[0]:
            size = max(count, 2 * self._cache.shape[0], 1024)
            rng = np.random.default_rng(self.seed)
            self._cache = rng.integers(1, self.n + 1, size=size, dtype=np.int64)

    def index(self, k: int) -> int:
        """1-based index of the k-th sample, k >= 1."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._ensure(k)
        return int(self._cache[k - 1])

    def prefix(self, count: int) -> np.ndarray:
        """Indices i_1..i_count as an int64 array."""
        self._ensure(count)
        return self._cache[:count].copy()

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
    """Recorded run: iterates w_1..w_{T+1}, gradients g_1..g_T, indices i_1..i_T.

    `risks` holds the empirical risk of every `risk_stride`-th iterate
    (starting at w_1) when risk recording was requested.
    """

    iterates: np.ndarray
    gradients: np.ndarray
    indices: np.ndarray
    hp: HyperParams
    risks: np.ndarray | None = None
    risk_stride: int = 1

    def __post_init__(self):
        if self.iterates.shape[0] != self.gradients.shape[0] + 1:
            raise ValueError("iterates must be one longer than gradients")
        if self.indices.shape[0] != self.gradients.shape[0]:
            raise ValueError("one sampled index per gradient")

    @property
    def steps(self) -> int:
        return self.gradients.shape[0]


@dataclass(frozen=True)
class CoupledTrace:
    base: Trajectory
    neighbor: Trajectory
    distances: np.ndarray
    perturbed_index: int

    def __post_init__(self):
        if self.distances.shape[0] != self.base.iterates.shape[0]:
            raise ValueError("one distance per iterate")


def momentum_buffers(traj: Trajectory) -> np.ndarray:
    """Replayed momentum buffers m_0..m_T from the recorded gradients."""
    T, d = traj.gradients.shape
    m = np.zeros((T + 1, d))
    for k in range(1, T + 1):
        m[k] = traj.hp.beta * m[k - 1] + traj.gradients[k - 1]
    return m


def replay_matches(traj: Trajectory) -> bool:
    """True when re-applying sgdm_step to the recorded gradients reproduces
    every recorded iterate bit for bit."""
    state = SgdmState(w=traj.iterates[0].copy(), m=np.zeros_like(traj.iterates[0]), step=0)
    for k in range(traj.steps):
        state = sgdm_step(state, traj.gradients[k], traj.hp)
        if not np.array_equal(state.w, traj.iterates[k + 1]):
            return False
    return True


def run(
    d: Dataset,
    kind: str,
    hp: HyperParams,
    w1: np.ndarray,
    stream: SampleStream,
    record_risk: bool = False,
    risk_stride: int = 1,
) -> Trajectory:
    """Run T = hp.iterations steps of generalized momentum SGD on `d`."""
    if stream.n != d.n:
        raise ValueError(f"stream covers 1..{stream.n} but dataset has {d.n} examples")
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (d.dim,):
        raise ValueError(f"w1 must have shape ({d.dim},), got {w1.shape}")
    T = hp.iterations
    idx = stream.prefix(T)
    iterates = np.empty((T + 1, d.dim))
    gradients = np.empty((T, d.dim))
    iterates[0] = w1
    state = SgdmState(w=w1.copy(), m=np.zeros(d.dim), step=0)
    for k in range(T):
        z = d.examples[idx[k] - 1]
        g = loss_grad(state.w, z, kind)
        state = sgdm_step(state, g, hp)
        gradients[k] = g
        iterates[k + 1] = state.w
    risks = None
    if record_risk:
        if risk_stride < 1:
            raise ValueError(f"risk_stride must be >= 1, got {risk_stride}")
        rows = iterates[::risk_stride]
        risks = empirical_risk_many(rows, d, kind)
    return Trajectory(
        iterates=iterates,
        gradients=gradients,
        indices=idx,
        hp=hp,
        risks=risks,
        risk_stride=risk_stride,
    )


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
    floating-point rounding.
    """
    if stream.n != d.n:
        raise ValueError(f"stream covers 1..{stream.n} but dataset has {d.n} examples")
    w1 = np.asarray(w1, dtype=np.float64)
    idx = stream.prefix(iterations)
    iterates = np.empty((iterations + 1, d.dim))
    iterates[0] = w1
    state = LookaheadState(u_prev=w1.copy(), u_curr=w1.copy(), w=w1.copy(), step=0)
    for k in range(iterations):
        z = d.examples[idx[k] - 1]
        g = loss_grad(state.w, z, kind)
        state = lookahead_step(state, g, beta, gamma)
        iterates[k + 1] = state.w
    return iterates


def average_iterate(traj: Trajectory, upto: int) -> np.ndarray:
    """Mean of w_1..w_upto (1-based, inclusive)."""
    if not 1 <= upto <= traj.iterates.shape[0]:
        raise ValueError(f"upto must be in 1..{traj.iterates.shape[0]}, got {upto}")
    return traj.iterates[:upto].mean(axis=0)


def coupled_run(
    d: Dataset,
    spec: NeighborSpec,
    kind: str,
    hp: HyperParams,
    w1: np.ndarray,
    stream: SampleStream,
) -> CoupledTrace:
    """Run the same seeded algorithm on `d` and on its neighbor.

    Both runs consume the identical index sequence, so the trajectories agree
    exactly until the perturbed index is first sampled.
    """
    neighbor_data = make_neighbor(d, spec)
    try:
        base = run(d, kind, hp, w1, stream)
    except DivergenceError as e:
        raise DivergenceError(e.step, "base") from None
    try:
        neighbor = run(neighbor_data, kind, hp, w1, stream)
    except DivergenceError as e:
        raise DivergenceError(e.step, "neighbor") from None
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(base.iterates - neighbor.iterates, axis=1)
    if not np.isfinite(distances).all():
        # both runs are finite but the squared gap exceeds float range
        step = int(np.flatnonzero(~np.isfinite(distances))[0])
        raise DivergenceError(step)
    return CoupledTrace(
        base=base, neighbor=neighbor, distances=distances, perturbed_index=spec.index
    )


# Index-stream steps each repetition draws at a time in the batched kernel, so
# its memory does not grow with the number of iterations.
STREAM_CHUNK = 1024
# Examples copied into the padded row table at a time.
TABLE_BLOCK = 4096


@dataclass(frozen=True)
class PaddedRows:
    """Examples as fixed-width rows for the batched kernel.

    Row r holds the 0-based feature indices and the values of example r in
    its first nnz[r] slots.  The other slots point at column `dim`, the zero
    padding column of the kernel's state, with value 0.  The extra last row,
    `blank`, is all padding, so a step on it leaves the state unchanged.
    """

    indices: np.ndarray  # (n + 1, width) intp
    values: np.ndarray  # (n + 1, width) float64
    labels: np.ndarray  # (n + 1,)
    nnz: np.ndarray  # (n + 1,)
    dim: int

    @property
    def blank(self) -> int:
        return self.labels.shape[0] - 1

    def features(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Unpadded (idx0, values) of one row."""
        k = self.nnz[row]
        return self.indices[row, :k], self.values[row, :k]


def padded_rows(examples: Sequence[Example], dim: int) -> PaddedRows:
    """Padded row table of `examples`, filled straight from their features."""
    n = len(examples)
    nnz = np.zeros(n + 1, dtype=np.intp)
    nnz[:n] = [len(ex.features.indices) for ex in examples]
    width = max(int(nnz.max()), 1)
    indices = np.full((n + 1, width), dim, dtype=np.intp)
    values = np.zeros((n + 1, width))
    # a block of rows at a time, so the flat feature lists stay small
    for lo in range(0, n, TABLE_BLOCK):
        part = examples[lo : lo + TABLE_BLOCK]
        counts = nnz[lo : lo + len(part)]
        total = int(counts.sum())
        flat = np.fromiter(chain.from_iterable(ex.features.indices for ex in part), np.intp, total)
        if total and flat.max() > dim:
            raise ValueError(f"feature index {int(flat.max())} exceeds dim {dim}")
        filled = np.arange(width) < counts[:, None]
        flat -= 1
        indices[lo : lo + len(part)][filled] = flat
        values[lo : lo + len(part)][filled] = np.fromiter(
            chain.from_iterable(ex.features.values for ex in part), np.float64, total
        )
    labels = np.zeros(n + 1)
    labels[:n] = [ex.label for ex in examples]
    return PaddedRows(indices=indices, values=values, labels=labels, nnz=nnz, dim=dim)


@dataclass(frozen=True)
class CoupledBatch:
    """Distance series of R repetitions x G grid points of coupled runs.

    distances[r, g, j] is ||w_t - w'_t|| after t = (j+1)*stride steps, NaN
    for a censored pair.  diverged_step[r, g] is the step at which the pair
    hit a non-finite value (0 when it ran to the end), and diverged_which
    names the side that did: "base", "neighbor" or "both" ("" when none).
    """

    distances: np.ndarray
    diverged_step: np.ndarray
    diverged_which: np.ndarray


def coupled_distance_batch(
    rows: PaddedRows,
    train_rows: np.ndarray,
    perturbed: Sequence[int],
    replacements: Sequence[int],
    streams: Sequence[SampleStream],
    kind: str,
    points: Sequence[HyperParams],
    w1: np.ndarray,
    stride: int,
) -> CoupledBatch:
    """Coupled distance series of every (repetition, grid point) pair at once.

    Repetition r trains on the table rows train_rows[r] (shape (R, n)) in the
    order of its own index stream streams[r] over 1..n; its neighbor replaces
    the train row at 1-based position perturbed[r] by table row
    replacements[r].  Every grid point replays the repetition's draws.

    All P = R*G pairs advance together on a stacked (P, dim+1, 2) state whose
    last axis is (base, neighbor) and whose column `dim` stays zero.  Each
    step repeats the arithmetic of a lone pair operation for operation, so a
    pair's series does not depend on what it is batched with.  A pair that
    hits a non-finite margin, iterate or distance is censored and dropped.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if kind not in ("logistic", "squared"):
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
    T = points[0].iterations
    if any(hp.iterations != T for hp in points):
        raise ValueError("grid points must share the number of iterations")
    dim = rows.dim
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (dim,):
        raise ValueError(f"w1 must have shape ({dim},), got {w1.shape}")

    betas = np.array([hp.beta for hp in points])
    etas = np.array([hp.eta for hp in points])
    gammas = np.array([hp.gamma for hp in points])

    def per_pair(pair):
        g = pair % G
        zero_beta = betas[g] == 0.0
        return (
            pair // G, np.arange(pair.size)[:, None], betas[g][:, None, None],
            zero_beta if zero_beta.any() else None, etas[g][:, None, None], gammas[g][:, None],
        )

    # pair p is (repetition p // G, grid point p % G); `pair` lists the live ones
    pair = np.arange(R * G)
    rep, at, beta, zero_beta, eta, gamma = per_pair(pair)
    L = T // stride
    distances = np.full((R * G, L), np.nan)
    diverged_step = np.zeros(R * G, dtype=np.int64)
    diverged_which = np.full(R * G, "", dtype="<U8")
    W = np.zeros((R * G, dim + 1, 2))
    W[:, :dim] = w1[:, None]
    M = np.zeros_like(W)
    neg_labels = -rows.labels
    logistic = kind == "logistic"
    any_gamma = bool(gammas.any())
    k = pos = 0
    # overflow is expected on divergent runs; the margin and distance checks
    # turn it into censoring instead of a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for block in zip(*(s.chunks(T, STREAM_CHUNK) for s in streams)):
            block = np.stack(block)
            base_rows = np.take_along_axis(train_rows, block - 1, axis=1)
            hit = block == perturbed[:, None]
            # a pair on its perturbed index takes that step outside the
            # batched update, which sees the blank row for it instead
            live_rows = np.where(hit, rows.blank, base_rows)[rep].T.copy()
            for j, hit_step in enumerate(hit.any(axis=0).tolist()):
                r = live_rows[j]
                ix = rows.indices[r]
                vx = rows.values[r][:, :, None]
                margins = np.matmul(W[at, ix].transpose(0, 2, 1), vx)[:, :, 0]
                finite = np.isfinite(margins)
                bad = None if finite.all() else ~finite  # (P, 2) non-finite sides
                if logistic:
                    ny = neg_labels[r][:, None]
                    scales = ny * expit(ny * margins)
                else:
                    scales = margins - rows.labels[r][:, None]
                M *= beta
                if zero_beta is not None:
                    M[zero_beta] = 0.0
                M[at, ix] += scales[:, None, :] * vx
                if hit_step:
                    for a in np.flatnonzero(hit[rep, j]):
                        sides = (base_rows[rep[a], j], replacements[rep[a]])
                        feats = [rows.features(row) for row in sides]
                        mrows = [
                            float(W[a, jx, side] @ jv) if jx.size else 0.0
                            for side, (jx, jv) in enumerate(feats)
                        ]
                        if not all(map(math.isfinite, mrows)):
                            if bad is None:
                                bad = np.zeros_like(finite)
                            bad[a] = [not math.isfinite(m) for m in mrows]
                            continue
                        g_a = float(gammas[pair[a] % G])
                        for side, (row, (jx, jv), mrow) in enumerate(zip(sides, feats, mrows)):
                            jy = float(rows.labels[row])
                            if logistic:
                                sc = -jy * float(expit(-jy * mrow))
                            else:
                                sc = mrow - jy
                            M[a, jx, side] += sc * jv
                            if g_a:
                                W[a, jx, side] -= g_a * sc * jv
                W -= eta * M
                if any_gamma:
                    W[at, ix] -= (gamma * scales)[:, None, :] * vx
                k += 1
                if k % stride == 0:
                    diff = W[:, :dim, 0] - W[:, :dim, 1]
                    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
                    distances[pair, pos] = dist
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
                    diverged_step[pair[dead]] = k
                    diverged_which[pair[dead]] = np.where(
                        bad[dead].all(axis=1), "both", np.where(bad[dead, 0], "base", "neighbor")
                    )
                    keep = ~dead
                    pair, W, M, live_rows = pair[keep], W[keep], M[keep], live_rows[:, keep]
                    if not pair.size:
                        break
                    rep, at, beta, zero_beta, eta, gamma = per_pair(pair)
            if not pair.size:
                break
    distances[diverged_step > 0] = np.nan
    return CoupledBatch(
        distances=distances.reshape(R, G, L),
        diverged_step=diverged_step.reshape(R, G),
        diverged_which=diverged_which.reshape(R, G),
    )


def coupled_distance_series(
    d: Dataset,
    spec: NeighborSpec,
    kind: str,
    hp: HyperParams,
    w1: np.ndarray,
    stream: SampleStream,
    stride: int,
) -> np.ndarray:
    """Distances ||w_t - w'_t|| sampled every `stride` steps, without keeping
    full trajectories.

    Entry j is the distance after (j+1)*stride steps; the series has
    floor(T / stride) entries.  This is the one-pair case of
    `coupled_distance_batch`; a censored pair raises DivergenceError.
    """
    batch = coupled_distance_batch(
        padded_rows(d.examples + (spec.replacement,), d.dim),
        np.arange(d.n)[None, :],
        [spec.index],
        [d.n],
        [stream],
        kind,
        [hp],
        w1,
        stride,
    )
    step = int(batch.diverged_step[0, 0])
    if step:
        raise DivergenceError(step, str(batch.diverged_which[0, 0]))
    return batch.distances[0, 0]


def write_trajectory_csv(traj: Trajectory, path, distances: np.ndarray | None = None) -> None:
    """One row per iterate: step, sampled index, risk (blank unless recorded at
    that step), iterate norm, and the coupled distance when given."""
    import csv

    header = ["step", "index", "risk", "iterate_norm"]
    if distances is not None:
        header.append("distance")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.iterates.shape[0]):
            index = int(traj.indices[k]) if k < traj.steps else ""
            risk = ""
            if traj.risks is not None and k % traj.risk_stride == 0:
                j = k // traj.risk_stride
                if j < traj.risks.shape[0]:
                    risk = repr(float(traj.risks[j]))
            row = [k + 1, index, risk, repr(float(np.linalg.norm(traj.iterates[k])))]
            if distances is not None:
                row.append(repr(float(distances[k])))
            writer.writerow(row)


def write_iterates_bin(iterates: np.ndarray, path) -> None:
    """Binary dump: magic, dim, count as a 16-byte header, then little-endian
    float64 iterates in row order."""
    arr = np.ascontiguousarray(iterates, dtype="<f8")
    count, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(TRAJ_MAGIC)
        fh.write(struct.pack("<II", dim, count))
        fh.write(arr.tobytes())


def read_iterates_bin(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != TRAJ_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {TRAJ_MAGIC!r}")
        dim, count = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.shape[0] != dim * count:
        raise ValueError(f"expected {dim * count} float64 values, got {data.shape[0]}")
    return data.reshape(count, dim).astype(np.float64)
