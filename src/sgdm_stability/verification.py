"""Runnable numerical checks of the update-rule identities and loss lemmas.

This is the one module that inspects a recorded `Trajectory`: the auxiliary
sequence and each identity's residual are computed here, once, from the
iterates, gradients and momenta the run recorded.  Each check returns a
CheckOutcome with the worst observed residual or margin and the threshold it
was held to, so the CLI can emit a machine-readable report and the test
suite can assert on the same code path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset, synthetic_binary_dataset
from .losses import LOSS_KINDS, RISK_WORKERS, grad_scales, loss_grad, loss_value, losses, margins, smoothness
from .harness import GridPoint, grid_points
from .optimizer import DivergenceError, HyperParams, SampleStream, Trajectory, run, run_lookahead
from .theory import max_eta_hb, max_gamma_nesterov

# Processes `run_invariant_suite` runs its units on at most: one per CPU this
# process may run on, counted as the risk sum counts its threads.
SUITE_WORKERS = RISK_WORKERS


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    params: dict
    observed: float
    threshold: float
    status: str  # "pass", "fail", or "skip"
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _outcome_max(name, params, observed, threshold, note="") -> CheckOutcome:
    status = "pass" if observed <= threshold else "fail"
    return CheckOutcome(name, params, float(observed), float(threshold), status, note)


def _outcome_min(name, params, observed, threshold, note="") -> CheckOutcome:
    status = "pass" if observed >= threshold else "fail"
    return CheckOutcome(name, params, float(observed), float(threshold), status, note)


def _skip(name, params, note) -> CheckOutcome:
    return CheckOutcome(name, params, 0.0, 0.0, "skip", note)


def _probe_pairs(kind: str, seed: int, probes: int):
    """Margins of a pool of sparse rows under two sets of random weight rows.

    Returns (M1, M2, y, norms_sq, alpha_z): the (rows, side) margin matrices
    of about `probes` evaluation points each, and the rows' labels, squared
    norms and smoothness constants as columns.
    """
    rng = np.random.default_rng(seed)
    side = max(4, int(math.ceil(math.sqrt(probes))))
    data = synthetic_binary_dataset(side, 12, seed, density=0.6, flip=0.2, scale=1.5)
    W1 = rng.standard_normal((side, 12)) * 3.0
    W2 = rng.standard_normal((side, 12)) * 3.0
    return (
        margins(data, W1),
        margins(data, W2),
        data.labels[:, None],
        data.norm_sq[:, None],
        smoothness(data, kind).per_example[:, None],
    )


def check_self_bounding(kind: str, probes: int = 10_000, seed: int = 7) -> CheckOutcome:
    """||grad l(w; z)||^2 <= 2 alpha_z l(w; z) at random (w, z)."""
    M, _, y, norms_sq, alpha_z = _probe_pairs(kind, seed, probes)
    # ||grad||^2 = s^2 ||x||^2 for the gradient scale s
    grad_sq = grad_scales(M, y, kind) ** 2 * norms_sq
    gap = (grad_sq - 2.0 * alpha_z * losses(M, y, kind)).max()
    return _outcome_max("self_bounding", {"kind": kind, "probes": int(M.size)}, gap, 1e-12)


def check_co_coercivity(kind: str, probes: int = 10_000, seed: int = 11) -> CheckOutcome:
    """<w - w', grad(w) - grad(w')> >= ||grad(w) - grad(w')||^2 / alpha_z."""
    M1, M2, y, norms_sq, alpha_z = _probe_pairs(kind, seed, probes)
    ds = grad_scales(M1, y, kind) - grad_scales(M2, y, kind)
    # <w - w', g - g'> = (s - s') (m - m') and ||g - g'||^2 = (s - s')^2 ||x||^2.
    with np.errstate(divide="ignore", invalid="ignore"):
        margin_arr = ds * (M1 - M2) - ds**2 * norms_sq / alpha_z
    margin_arr = margin_arr[alpha_z[:, 0] > 0]
    worst = margin_arr.min() if margin_arr.size else 0.0
    return _outcome_min("co_coercivity", {"kind": kind, "probes": int(M1.size)}, worst, -1e-10)


def check_convexity(kind: str, probes: int = 10_000, seed: int = 13) -> CheckOutcome:
    """l(w) >= l(w') + <grad(w'), w - w'> at random pairs."""
    M1, M2, y, _, _ = _probe_pairs(kind, seed, probes)
    # <grad(w'), w - w'> = s' (m - m').
    gap = losses(M1, y, kind) - losses(M2, y, kind) - grad_scales(M2, y, kind) * (M1 - M2)
    return _outcome_min("convexity", {"kind": kind, "probes": int(M1.size)}, gap.min(), -1e-10)


def check_gradient_fd(kind: str, probes: int = 60, seed: int = 17, h: float = 1e-6) -> CheckOutcome:
    """Central finite differences of loss_value match loss_grad to 1e-5 relative."""
    rng = np.random.default_rng(seed)
    data = synthetic_binary_dataset(probes, 10, seed, density=0.7, flip=0.2)
    worst = 0.0
    for i in range(data.n):
        w = rng.standard_normal(data.dim)
        g = loss_grad(w, data, i, kind)
        fd = np.zeros_like(w)
        for j in range(data.dim):
            wp = w.copy()
            wm = w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (loss_value(wp, data, i, kind) - loss_value(wm, data, i, kind)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(g)))
        worst = max(worst, float(np.linalg.norm(fd - g)) / denom)
    return _outcome_max("gradient_fd", {"kind": kind, "probes": probes, "h": h}, worst, 1e-5)


def _run_params(kind: str, hp: HyperParams) -> dict:
    return {"kind": kind, "beta": hp.beta, "gamma": hp.gamma, "eta": hp.eta, "steps": hp.iterations}


def _decayed_sums(decay: float, terms: np.ndarray) -> np.ndarray:
    """s_0..s_T of the T `terms`: s_0 = 0 and s_k = decay * s_{k-1} + terms[k-1]."""
    s = np.zeros((terms.shape[0] + 1, *terms.shape[1:]))
    for k in range(1, s.shape[0]):
        s[k] = decay * s[k - 1] + terms[k - 1]
    return s


def auxiliary_sequence(traj: Trajectory) -> tuple[np.ndarray, float]:
    """The momentum-free auxiliary sequence y of a recorded run, and its step.

    y_1 = w_1 and, for k >= 2,
    y_k = w_k / (1-b) - b w_{k-1} / (1-b) + b gamma g_{k-1} / (1-b).
    It advances by plain gradient steps of the effective size
    gamma + eta / (1-b) (Yang, Lin & Li 2016).
    """
    b, g = traj.hp.beta, traj.hp.gamma
    W, G = traj.iterates, traj.gradients
    y = np.empty_like(W)
    y[0] = W[0]
    y[1:] = (W[1:] - b * W[:-1] + b * g * G) / (1 - b)
    return y, g + traj.hp.eta / (1 - b)


def check_y_identity(kind: str, traj: Trajectory) -> CheckOutcome:
    """Max norm of y_{k+1} - y_k + effective_step * g_k over the run, divided
    by 1 + max_k ||y_k||; zero in exact arithmetic."""
    y, step = auxiliary_sequence(traj)
    observed = float(np.linalg.norm(y[1:] - y[:-1] + step * traj.gradients, axis=1).max())
    scale = 1.0 + float(np.linalg.norm(y, axis=1).max())
    return _outcome_max("y_identity", _run_params(kind, traj.hp), observed / scale, 1e-10)


def check_dist_identity(kind: str, traj: Trajectory) -> list[CheckOutcome]:
    """Exact distance identity and its geometric-sum upper bound: for every k,
    ||y_k - w_k||^2 equals b^2 eta^2 / (1-b)^2 * ||m_{k-1}||^2 exactly and is
    at most b^2 eta^2 / (1-b)^3 * sum_{j<k} b^(k-1-j) ||g_j||^2.  Residuals
    and margins are normalized by 1 + the larger side."""
    b, eta = traj.hp.beta, traj.hp.eta
    W = traj.iterates
    y, _ = auxiliary_sequence(traj)
    lhs = np.sum((y - W) ** 2, axis=1)
    # Row i of W is iterate w_{i+1}; the identity pairs it with momentum m_i.
    # squared as numpy scalars, so a huge step gives inf instead of OverflowError
    rhs = np.float64(b * eta / (1 - b)) ** 2 * np.sum(traj.momenta**2, axis=1)
    geo = _decayed_sums(b, np.sum(traj.gradients**2, axis=1))
    bound = b**2 * np.float64(eta) ** 2 / (1 - b) ** 3 * geo
    residual = (np.abs(lhs - rhs) / (1.0 + np.maximum(lhs, rhs))).max()
    margin = ((bound - lhs) / (1.0 + np.abs(bound))).min()
    params = _run_params(kind, traj.hp)
    return [
        _outcome_max("dist_identity", params, residual, 1e-10),
        _outcome_min("dist_bound_margin", params, margin, -1e-10),
    ]


def m_recursion_margins(base: Trajectory, neighbor: Trajectory) -> np.ndarray:
    """Margins of the coupled momentum-difference bound, one per step.

    `base` and `neighbor` are runs with the same hyperparameters and index
    stream on neighboring datasets (m, g on the base, m', g' on the
    neighbor).  With delta = (1/beta - 1) / 2, for every t:
    ||m_t - m'_t||^2 <= (1 + 1/delta) sum_{k<=t} ((1+delta) beta^2)^(t-k)
                        ||g_k - g'_k||^2.
    Returns (rhs - lhs) / (1 + rhs); beta = 0 is rejected since delta is
    undefined there and the two sides collapse to the same single term.
    """
    if base.hp != neighbor.hp or not np.array_equal(base.indices, neighbor.indices):
        raise ValueError("the two runs must share hyperparameters and index stream")
    b = base.hp.beta
    if b <= 0.0:
        raise ValueError("momentum recursion bound requires beta > 0")
    delta = 0.5 * (1.0 / b - 1.0)
    lhs = np.sum((base.momenta[1:] - neighbor.momenta[1:]) ** 2, axis=1)
    gdiff_sq = np.sum((base.gradients - neighbor.gradients) ** 2, axis=1)
    rhs = (1 + 1 / delta) * _decayed_sums((1 + delta) * b * b, gdiff_sq)[1:]
    return (rhs - lhs) / (1.0 + np.abs(rhs))


def check_m_recursion(data: Dataset, kind: str, base: Trajectory, seed: int) -> CheckOutcome:
    """The smallest `m_recursion_margins` of `base`, a run on `data` on the
    stream seeded `seed`, and its neighbor from the step the stream first
    draws the perturbed position p (named in the note; before it both sides
    are 0, and a stream that never draws it is a skip).  Apart from the stream,
    with seed + 1: p = integers(1, n + 1), replaced by row (p + integers(0, n - 1)) % n,
    or by the first row cyclically after it whose indices, values or label differ
    from row p's; a neighbor equal to the data would pass with every margin 0,
    so when no row differs it is a skip."""
    params = _run_params(kind, base.hp)
    if base.hp.beta == 0.0:
        return _skip("m_recursion", params, "requires beta > 0")
    rng = np.random.default_rng(seed + 1)
    rows = np.arange(data.n)
    perturbed = rng.integers(1, data.n + 1)
    drawn = perturbed + rng.integers(0, max(data.n - 1, 1))
    old = data.row(perturbed - 1)
    positions = (q % data.n for q in range(drawn, drawn + data.n))
    replacement = next((q for q in positions if not all(map(np.array_equal, data.row(q), old))), None)
    if replacement is None:
        return _skip("m_recursion", params, f"no row differs from the perturbed row {perturbed}")
    rows[perturbed - 1] = replacement
    hits = np.flatnonzero(base.indices == perturbed)
    if not hits.size:
        return _skip("m_recursion", params, f"the stream never draws the perturbed index {perturbed}")
    other = run(data.take(rows), kind, base.hp, base.iterates[0], SampleStream(seed, data.n))
    observed = m_recursion_margins(base, other)[hits[0] :].min()
    return _outcome_min("m_recursion", params, observed, -1e-10, f"first hit at step {hits[0] + 1}")


def check_beta_zero_reduction(data: Dataset, kind: str, gamma: float, eta: float, steps: int, seed: int) -> CheckOutcome:
    """beta = 0 momentum run equals plain SGD with step gamma + eta."""
    hp = HyperParams(beta=0.0, gamma=gamma, eta=eta, iterations=steps)
    traj = run(data, kind, hp, np.zeros(data.dim), SampleStream(seed, data.n))
    w = np.zeros(data.dim)
    step_size = gamma + eta
    sgd = np.empty((steps, data.dim))
    for k, i in enumerate((traj.indices - 1).tolist()):
        w = w - step_size * loss_grad(w, data, i, kind)
        sgd[k] = w
    params = {"kind": kind, "gamma": gamma, "eta": eta, "steps": steps}
    return _outcome_max("beta_zero_reduction", params, np.abs(sgd - traj.iterates[1:]).max(), 1e-12)


def _nesterov_params(kind: str, beta: float, gamma: float, steps: int) -> dict:
    return {"kind": kind, "beta": beta, "gamma": gamma, "steps": steps}


def check_nesterov_equivalence(data: Dataset, kind: str, traj: Trajectory, seed: int) -> CheckOutcome:
    """Momentum-form run `traj` with eta = beta * gamma matches the look-ahead form.

    `seed` seeds the stream `traj` was drawn from; the look-ahead run replays it.
    """
    hp = traj.hp
    params = _nesterov_params(kind, hp.beta, hp.gamma, hp.iterations)
    la = run_lookahead(data, kind, hp.beta, hp.gamma, hp.iterations, traj.iterates[0], SampleStream(seed, data.n))
    worst = float(np.abs(traj.iterates - la).max())
    return _outcome_max("nesterov_equivalence", params, worst, 1e-9)


def check_momentum_unrolling(kind: str, traj: Trajectory) -> CheckOutcome:
    """The recorded m_t equals sum_{j<=t} beta^(t-j) g_j up to 1e-10 relative
    to 1 + max ||m||, at t = 1, 2, 4, ..., 2^floor(log2 T) and T, O(T dim) in
    all; every g_j enters m_T, so a gradient off the momenta fails at T."""
    T = traj.gradients.shape[0]
    points = sorted({*(2**i for i in range(T.bit_length())), T})
    # beta^(T-1), ..., beta^0: the last t of them weigh g_1..g_t
    powers = traj.hp.beta ** np.arange(T - 1, -1, -1.0)
    unrolled = np.array([powers[T - t :] @ traj.gradients[:t] for t in points])
    scale = 1.0 + float(np.linalg.norm(traj.momenta, axis=1).max())
    worst = float(np.linalg.norm(traj.momenta[points] - unrolled, axis=1).max()) / scale
    params = {"kind": kind, "beta": traj.hp.beta, "steps": traj.hp.iterations}
    return _outcome_max("momentum_unrolling", params, worst, 1e-10)


def _loss_lemmas(kind: str) -> list[CheckOutcome]:
    return [check_self_bounding(kind), check_co_coercivity(kind), check_convexity(kind), check_gradient_fd(kind)]


def _beta_checks(
    data: Dataset, kind: str, alpha: float, hb_point: GridPoint, nest_point: GridPoint, steps: int, seed: int
) -> list[CheckOutcome]:
    """Every trajectory check of one (kind, beta), in report order; a run
    that leaves float range ends them with a failed `finite_runs` outcome."""
    beta = hb_point.beta
    outcomes: list[CheckOutcome] = []
    try:
        hb = run(data, kind, hb_point.hp, np.zeros(data.dim), SampleStream(seed, data.n))
        # a list is added whole, so a run that diverges inside it leaves none of it
        outcomes += [
            check_y_identity(kind, hb), *check_dist_identity(kind, hb),
            check_m_recursion(data, kind, hb, seed), check_momentum_unrolling(kind, hb),
        ]
        del hb
        if beta > 0.0:
            nest = run(data, kind, nest_point.hp, np.zeros(data.dim), SampleStream(seed, data.n))
            outcomes += [
                check_nesterov_equivalence(data, kind, nest, seed), check_y_identity(kind, nest),
                *check_dist_identity(kind, nest),
            ]
        else:
            params = _nesterov_params(kind, beta, nest_point.step, steps)
            outcomes.append(_skip("nesterov_equivalence", params, "requires beta > 0"))
            eta_cap = max_eta_hb(beta, alpha)
            outcomes.append(check_beta_zero_reduction(data, kind, 0.4 * eta_cap, 0.6 * eta_cap, steps, seed))
    except DivergenceError as e:
        params = {"kind": kind, "beta": beta, "steps": steps}
        outcomes.append(CheckOutcome("finite_runs", params, float(e.step), 0.0, "fail", str(e)))
    return outcomes


def _run_unit(unit) -> list[CheckOutcome]:
    """The outcomes of one (function, args) unit, under its own errstate:
    overflow is expected on divergent runs, and the checks fail on it."""
    fn, args = unit
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


def _run_units(units: list) -> list[list[CheckOutcome]]:
    """Each unit's outcomes, in the order given.

    The units share nothing, so they run on min(units, SUITE_WORKERS) forked
    processes, which take them in that order.  With one worker, or where fork
    is not available, they run here, one after another.  An exception a unit
    raises reaches the caller with its own type either way.
    """
    workers = min(len(units), SUITE_WORKERS)
    if workers > 1:
        # imported here: `import sgdm_stability.cli` does not pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, context) as pool:
                return list(pool.map(_run_unit, units))
    return list(map(_run_unit, units))


def _map_units(units: list) -> list[list[CheckOutcome]]:
    """Each unit's outcomes, in unit order, from `_run_units` started longest
    first: the beta units, whose runs grow with the steps (about 30 ms each at
    the default 1000 steps on the default data, 55 ms at 2000), before the
    loss-lemma units, whose cost is fixed (10-25 ms), so that no worker starts
    a long unit last."""
    order = sorted(range(len(units)), key=lambda u: units[u][0] is _loss_lemmas)
    outcomes = dict(zip(order, _run_units([units[u] for u in order])))
    return [outcomes[u] for u in range(len(units))]


def run_invariant_suite(
    betas: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99),
    kinds: tuple[str, ...] = LOSS_KINDS,
    steps: int = 1000,
    step_fraction: float = 0.5,
    seed: int = 3,
    data: Dataset | None = None,
) -> list[CheckOutcome]:
    """Run the full identity and inequality suite over a beta grid.

    Step sizes are `step_fraction` times each variant's admissible maximum
    for the dataset's smoothness, mapped by `grid_points`; a fraction that
    makes any step 0 is a ConfigError before anything runs.

    The suite is a list of independent units, run by `_map_units`: per kind,
    one unit of the four loss-lemma checks, then one unit per beta.  In a
    beta's unit one heavy-ball run, with the momenta it recorded, feeds the
    y, dist and unrolling checks and is m_recursion's base, so m_recursion
    runs at most its neighbor; for beta > 0 one Nesterov run feeds the
    look-ahead equivalence, y and dist.  The look-ahead run and the beta = 0
    reduction stay separate: their agreement with these runs is what they
    check.  Apart from m_recursion's pair, no two runs of a unit are held at
    once.  A run that leaves float range ends its unit with a failed
    `finite_runs` outcome whose observed value is the step it left at; a
    check whose residual overflows fails on it.  No outcome depends on where
    its unit ran.
    """
    if data is None:
        data = synthetic_binary_dataset(60, 8, seed, density=0.6, flip=0.15)
    # each kind's heavy-ball and Nesterov grid over `betas`, all mapped
    # before any unit runs
    units = []
    for kind in kinds:
        alpha = smoothness(data, kind).alpha
        hb_grid, nesterov_grid = (
            grid_points(variant, betas, [(step_fraction * cap(beta, alpha),) for beta in betas], steps, "step_fraction")
            for variant, cap in (("hb", max_eta_hb), ("nesterov", max_gamma_nesterov))
        )
        units.append((_loss_lemmas, (kind,)))
        units.extend(
            (_beta_checks, (data, kind, alpha, hb_point, nest_point, steps, seed))
            for hb_point, nest_point in zip(hb_grid, nesterov_grid)
        )
    return [outcome for unit in _map_units(units) for outcome in unit]
