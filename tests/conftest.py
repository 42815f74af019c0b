"""Shared pytest configuration.

Collects the acceptance tests' outcomes and prints one line per criterion at
the end of the run, so a full-suite invocation doubles as the acceptance
report.  Also holds the references the library is tested against:
`reference_pair` for the batched kernel, `stack` and `joined` for data
that holds a foreign replacement pool, `parse_libsvm_per_token` for the
block-wise LIBSVM parser, `run_per_step` and `run_lookahead_per_step` (one
`sgdm_step` or `lookahead_step` per step) for the two reference loops,
`momentum_buffers`, the momenta replayed from a run's gradients, for the
momenta `run` records,
`rep_draw` and `bound_check_draws` for the two `Draws` constructors,
`average_iterate` and `empirical_risk` for the optimization bound,
`csr_matrix`, scipy's CSR matrix of a dataset, for the risk sum and margins,
and `wrong_effective_step`, the negative control of the identity suite.
"""

import io
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from sgdm_stability import verification
from sgdm_stability.dataset import (
    DataError, Dataset, ParseError, parse_libsvm, serialize_libsvm, split_positions,
)
from sgdm_stability.losses import empirical_risk_many, loss_grad
from sgdm_stability.optimizer import DivergenceError, SampleStream, Trajectory, run

CRITERIA = {
    "test_c01_exact_identity_suite": "exact y/dist identities over the beta grid",
    "test_c02_nesterov_two_form_equivalence": "Nesterov momentum form matches look-ahead form",
    "test_c03_beta_zero_reduction": "beta=0 run equals plain SGD with step gamma+eta",
    "test_c04_loss_lemma_suite": "self-bounding, co-coercivity, convexity, gradient FD",
    "test_c05_momentum_recursion_inequality": "coupled momentum-difference bound margins",
    "test_c06_stability_bound_dominance": "measured divergence under the stability bound",
    "test_c07_optimization_bound_dominance": "average-iterate excess risk under the bound",
    "test_c08_qualitative_sweeps_synthetic": "divergence grows with step and momentum (synthetic)",
    "test_c08_qualitative_sweeps_real_data": "divergence grows with step and momentum (local data)",
    "test_c09_specialization_consistency": "variant bound formulas agree with the general one",
    "test_c10_pipeline_round_trip": "parse/serialize round trip and known dataset shapes",
}

_results: dict[str, tuple[str, float, str]] = {}


@dataclass(frozen=True)
class SgdmState:
    w: np.ndarray
    m: np.ndarray
    step: int


def sgdm_step(s, g, hp):
    """One momentum update, m' = beta m + g and w' = w - gamma g - eta m'.
    Raises DivergenceError on non-finite values."""
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
    u_curr: np.ndarray
    w: np.ndarray
    step: int


def lookahead_step(s, g, beta, gamma):
    """One step of the two-sequence Nesterov form: u' = w - gamma g and
    w' = u' + beta (u' - u), where u is the previous u (initialized to w_1,
    which makes the first step match the momentum form)."""
    if not np.isfinite(g).all():
        raise DivergenceError(s.step + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        u_new = s.w - gamma * g
        w_new = u_new + beta * (u_new - s.u_curr)
    if not np.isfinite(w_new).all():
        raise DivergenceError(s.step + 1)
    return LookaheadState(u_curr=u_new, w=w_new, step=s.step + 1)


def csr_matrix(d):
    """The rows of `d` as a scipy CSR matrix of shape (n, dim), sharing
    `values`: its products are what `losses.margins` must give bit for bit,
    and its margins' losses, added in row order, the risk sum."""
    import scipy.sparse

    return scipy.sparse.csr_matrix((d.values, d.indices, d.indptr), shape=(d.n, d.dim), copy=False)


def wrong_effective_step(monkeypatch):
    """Make every check read the y identity's effective step 0.1 percent too
    large, which must fail `y_identity` and no other check.  Suite units on
    forked workers inherit the patch."""
    auxiliary_sequence = verification.auxiliary_sequence

    def wrong(traj):
        y, step = auxiliary_sequence(traj)
        return y, step * 1.001

    monkeypatch.setattr(verification, "auxiliary_sequence", wrong)


def empirical_risk(w, d, kind):
    """Empirical risk of one weight vector."""
    return float(empirical_risk_many(w[None, :], d, kind)[0])


def stack(parts, dim):
    """The rows of every part, in order, as one dataset with `dim` features:
    their `serialize_libsvm` texts joined and parsed, which round-trips
    every row exactly."""
    return parse_libsvm("".join(map(serialize_libsvm, parts)), dim=dim)


def joined(train, pool):
    """`stack` of `train` and `pool` with `train`'s features, and the positions of the rows of each."""
    return stack([train, pool], train.dim), np.arange(train.n), np.arange(train.n, train.n + pool.n)


def reference_pair(data, rows, perturbed, replacement, kind, hp, w1, stream):
    """The reference loop on the rows `rows` of `data` and on its neighbor,
    the same rows with the one at 1-based position `perturbed` replaced by
    row `replacement`, with one index stream: (base, neighbor,
    ||w_k - w'_k|| at every iterate)."""
    neighbor_rows = np.array(rows)
    neighbor_rows[perturbed - 1] = replacement
    base = run(data.take(rows), kind, hp, w1, stream)
    neighbor = run(data.take(neighbor_rows), kind, hp, w1, stream)
    return base, neighbor, np.linalg.norm(base.iterates - neighbor.iterates, axis=1)


def momentum_buffers(traj):
    """Momentum buffers m_0..m_T replayed from the recorded gradients:
    m_0 = 0 and m_k = beta * m_{k-1} + g_k."""
    m = np.zeros_like(traj.iterates)
    for k in range(1, m.shape[0]):
        m[k] = traj.hp.beta * m[k - 1] + traj.gradients[k - 1]
    return m


def run_per_step(d, kind, hp, w1, stream):
    """`run` as one `loss_grad` and one `sgdm_step` per step, each checking
    its own values: the same Trajectory bytes, or DivergenceError at the
    same step."""
    if stream.n != d.n:
        raise ValueError(f"stream covers 1..{stream.n} but dataset has {d.n} examples")
    w1 = np.asarray(w1, dtype=np.float64)
    if w1.shape != (d.dim,):
        raise ValueError(f"w1 must have shape ({d.dim},), got {w1.shape}")
    T = hp.iterations
    indices = stream.prefix(T)
    iterates = np.empty((T + 1, d.dim))
    gradients = np.empty((T, d.dim))
    momenta = np.zeros((T + 1, d.dim))
    iterates[0] = w1
    state = SgdmState(w=w1.copy(), m=np.zeros(d.dim), step=0)
    for k, i in enumerate((indices - 1).tolist()):
        gradients[k] = loss_grad(state.w, d, i, kind)
        state = sgdm_step(state, gradients[k], hp)
        iterates[k + 1] = state.w
        momenta[k + 1] = state.m
    return Trajectory(iterates=iterates, gradients=gradients, indices=indices, hp=hp, momenta=momenta)


def run_lookahead_per_step(d, kind, beta, gamma, iterations, w1, stream):
    """`run_lookahead` as one `loss_grad` and one `lookahead_step` per step."""
    if stream.n != d.n:
        raise ValueError(f"stream covers 1..{stream.n} but dataset has {d.n} examples")
    w1 = np.asarray(w1, dtype=np.float64)
    idx = stream.prefix(iterations)
    iterates = np.empty((iterations + 1, d.dim))
    iterates[0] = w1
    state = LookaheadState(u_curr=w1.copy(), w=w1.copy(), step=0)
    for k, i in enumerate((idx - 1).tolist()):
        g = loss_grad(state.w, d, i, kind)
        state = lookahead_step(state, g, beta, gamma)
        iterates[k + 1] = state.w
    return iterates


def average_iterate(traj, upto):
    """Mean of w_1..w_upto (1-based, inclusive)."""
    if not 1 <= upto <= traj.iterates.shape[0]:
        raise ValueError(f"upto must be in 1..{traj.iterates.shape[0]}, got {upto}")
    return traj.iterates[:upto].mean(axis=0)


class RepDraw(NamedTuple):
    """One repetition's randomness, as positions into the loaded data."""

    train_rows: np.ndarray  # data positions of the train rows, in order
    perturbed: int  # 1-based position among train_rows of the replaced row
    replacement: int  # data position of the held-out row replacing it
    stream_seed: int


def rep_draw(cfg, n, rep):
    """One sweep repetition's split, perturbed index, replacement and stream
    seed, drawn one repetition at a time."""
    rng = np.random.default_rng([cfg.seed, rep])
    split_seed = int(rng.integers(2**63))
    train, held = split_positions(n, cfg.fraction, split_seed)
    if cfg.max_train is not None and train.size > cfg.max_train:
        keep = np.sort(rng.choice(train.size, size=cfg.max_train, replace=False))
        train = train[keep]
    perturbed = int(rng.integers(1, train.size + 1))
    replacement = int(held[int(rng.integers(0, held.size))])
    stream_seed = int(rng.integers(2**63))
    return RepDraw(train, perturbed, replacement, stream_seed)


def bound_check_draws(train_rows, pool_rows, seed, samples):
    """The bound check's perturbed indices, replacement positions (drawn
    from `pool_rows`) and index streams over the `train_rows`, one sample at
    a time."""
    perturbed, replacements, streams = [], [], []
    for s in range(samples):
        rng = np.random.default_rng([seed, s])
        perturbed.append(int(rng.integers(1, len(train_rows) + 1)))
        replacements.append(int(pool_rows[int(rng.integers(0, len(pool_rows)))]))
        streams.append(SampleStream(int(rng.integers(2**63)), len(train_rows)))
    return perturbed, replacements, streams


_FEATURE_RE = re.compile(r"^(-?\d+):(\S+)$")


def parse_libsvm_per_token(source, dim=None):
    """`parse_libsvm` as one Python loop over the tokens: the same Dataset, or
    the same error, for every input that is UTF-8 text and has no index of
    more digits than `int` reads."""
    lines = io.StringIO(source) if isinstance(source, str) else source
    labels, ends, indices, values = [], [0], [], []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"malformed label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
        prev = 0
        for tok in tokens[1:]:
            m = _FEATURE_RE.match(tok)
            if m is None:
                raise ParseError(line_no, f"malformed feature token {tok!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ParseError(line_no, f"feature index must be >= 1, got {idx}")
            if idx <= prev:
                raise ParseError(line_no, f"feature indices must be strictly increasing, got {idx} after {prev}")
            try:
                val = float(m.group(2))
            except ValueError:
                raise ParseError(line_no, f"malformed feature value {m.group(2)!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {m.group(2)!r}")
            indices.append(idx)
            values.append(val)
            prev = idx
        labels.append(label)
        ends.append(len(indices))
    if not labels:
        raise DataError("no examples in input")
    try:
        idx0 = np.array(indices, dtype=np.intp) - 1
    except OverflowError:
        raise DataError(f"feature index {max(indices)} is too large") from None
    max_idx = int(idx0.max()) + 1 if idx0.size else 0
    final_dim = max(max_idx, 1)
    if dim is not None:
        if dim < max_idx:
            raise DataError(f"dim override {dim} is below max feature index {max_idx}")
        final_dim = max(dim, 1)
    return Dataset(np.array(ends, dtype=np.intp), idx0, np.array(values), np.array(labels), final_dim)


def _skip_reason(report) -> str:
    # for skips, longrepr is (path, lineno, "Skipped: <reason>")
    if isinstance(report.longrepr, tuple) and len(report.longrepr) == 3:
        return report.longrepr[2].removeprefix("Skipped: ")
    return ""


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in CRITERIA:
        return
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _results[name] = (status, report.duration, _skip_reason(report))
    elif report.when == "setup" and report.skipped:
        _results[name] = ("SKIP", 0.0, _skip_reason(report))
    elif report.when == "setup" and report.failed:
        _results[name] = ("FAIL", 0.0, "setup error")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, description in CRITERIA.items():
        if name not in _results:
            continue
        status, duration, reason = _results[name]
        line = f"{status:4s} {name}: {description}"
        if status == "PASS":
            line += f" ({duration:.1f}s)"
        elif reason:
            line += f" [{reason}]"
        terminalreporter.write_line(line)
