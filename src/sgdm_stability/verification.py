"""Runnable numerical checks of the update-rule identities and loss lemmas.

Each check returns a CheckOutcome with the worst observed residual or margin
and the threshold it was held to, so the CLI can emit a machine-readable
report and the test suite can assert on the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, NeighborSpec, make_neighbor, synthetic_binary_dataset
from .losses import LOSS_KINDS, grad_scales, loss_grad, loss_value, losses, smoothness
from .optimizer import (
    HyperParams,
    SampleStream,
    Trajectory,
    hb_params,
    momentum_buffers,
    nesterov_params,
    run,
    run_lookahead,
)
from .theory import (
    auxiliary_sequence,
    max_eta_hb,
    max_gamma_nesterov,
    verify_dist_identity,
    verify_m_recursion_bound,
    verify_y_identity,
)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    params: dict
    observed: float
    threshold: float
    status: str  # "pass", "fail", or "skip"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "observed": self.observed,
            "threshold": self.threshold,
            "status": self.status,
            "note": self.note,
        }


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
        data.matrix @ W1.T,
        data.matrix @ W2.T,
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


def _identity_run(data: Dataset, kind: str, hp: HyperParams, seed: int) -> Trajectory:
    stream = SampleStream(seed, data.n)
    w1 = np.zeros(data.dim)
    return run(data, kind, hp, w1, stream)


def _run_params(kind: str, hp: HyperParams) -> dict:
    return {"kind": kind, "beta": hp.beta, "gamma": hp.gamma, "eta": hp.eta, "steps": hp.iterations}


def check_y_identity(kind: str, traj: Trajectory, wrong_effective_step: bool = False) -> CheckOutcome:
    """Auxiliary sequence advances by plain gradient steps of the effective size.

    `wrong_effective_step` is a negative-control hook: it perturbs the
    effective step by 0.1 percent, which must make the check fail.
    """
    aux = auxiliary_sequence(traj)
    if wrong_effective_step:
        bad = aux.effective_step * 1.001
        residuals = np.linalg.norm(aux.y[1:] - aux.y[:-1] + bad * traj.gradients, axis=1)
        observed = float(residuals.max())
    else:
        observed = verify_y_identity(aux, traj)
    scale = 1.0 + float(np.linalg.norm(aux.y, axis=1).max())
    return _outcome_max("y_identity", _run_params(kind, traj.hp), observed / scale, 1e-10)


def check_dist_identity(kind: str, traj: Trajectory) -> list[CheckOutcome]:
    aux = auxiliary_sequence(traj)
    rep = verify_dist_identity(aux, traj)
    params = _run_params(kind, traj.hp)
    return [
        _outcome_max("dist_identity", params, rep.max_residual, 1e-10),
        _outcome_min("dist_bound_margin", params, rep.min_margin, -1e-10),
    ]


def check_m_recursion(data: Dataset, kind: str, hp: HyperParams, seed: int) -> CheckOutcome:
    params = _run_params(kind, hp)
    if hp.beta == 0.0:
        return _skip("m_recursion", params, "requires beta > 0")
    rng = np.random.default_rng(seed)
    idx = int(rng.integers(1, data.n + 1))
    spec = NeighborSpec(idx, data, int(rng.integers(0, data.n)))
    stream = SampleStream(seed + 1, data.n)
    base = run(data, kind, hp, np.zeros(data.dim), stream)
    neighbor = run(make_neighbor(data, spec), kind, hp, np.zeros(data.dim), stream)
    margins = verify_m_recursion_bound(base, neighbor)
    return _outcome_min("m_recursion", params, float(margins.min()), -1e-10)


def check_beta_zero_reduction(data: Dataset, kind: str, gamma: float, eta: float, steps: int, seed: int) -> CheckOutcome:
    """beta = 0 momentum run equals plain SGD with step gamma + eta."""
    hp = HyperParams(beta=0.0, gamma=gamma, eta=eta, iterations=steps)
    traj = _identity_run(data, kind, hp, seed)
    stream = SampleStream(seed, data.n)
    idx = stream.prefix(steps)
    w = np.zeros(data.dim)
    step_size = gamma + eta
    worst = 0.0
    for k, i in enumerate((idx - 1).tolist()):
        w = w - step_size * loss_grad(w, data, i, kind)
        worst = max(worst, float(np.abs(w - traj.iterates[k + 1]).max()))
    return _outcome_max(
        "beta_zero_reduction",
        {"kind": kind, "gamma": gamma, "eta": eta, "steps": steps},
        worst,
        1e-12,
    )


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
    """m_t equals sum_j beta^(t-j) g_j up to 1e-10 relative."""
    m = momentum_buffers(traj)
    T, d = traj.gradients.shape
    # beta^(T-1), ..., beta^0: the last t of them weigh g_1..g_t
    powers = traj.hp.beta ** np.arange(T - 1, -1, -1.0)
    unrolled = np.zeros((T + 1, d))
    for t in range(1, T + 1):
        unrolled[t] = powers[T - t :] @ traj.gradients[:t]
    scale = 1.0 + float(np.linalg.norm(m, axis=1).max())
    worst = float(np.linalg.norm(m - unrolled, axis=1).max()) / scale
    return _outcome_max(
        "momentum_unrolling",
        {"kind": kind, "beta": traj.hp.beta, "steps": traj.hp.iterations},
        worst,
        1e-10,
    )


def run_invariant_suite(
    betas: tuple[float, ...] = (0.0, 0.5, 0.9, 0.99),
    kinds: tuple[str, ...] = LOSS_KINDS,
    steps: int = 1000,
    step_fraction: float = 0.5,
    seed: int = 3,
    data: Dataset | None = None,
    force_bug: str = "",
) -> list[CheckOutcome]:
    """Run the full identity and inequality suite over a beta grid.

    Step sizes are `step_fraction` times each variant's admissible maximum
    for the dataset's smoothness.  `force_bug` = "y_identity" flips the
    negative-control hook so exactly that check must fail.

    At each (kind, beta) one heavy-ball run feeds the y, dist and unrolling
    checks, and for beta > 0 one Nesterov run feeds the look-ahead
    equivalence, y and dist.  The two runs of m_recursion, the look-ahead
    run and the beta = 0 reduction stay separate: their agreement with these
    runs is what they check.  Apart from m_recursion's pair, no two runs are
    held at once.
    """
    if data is None:
        data = synthetic_binary_dataset(60, 8, seed, density=0.6, flip=0.15)
    outcomes: list[CheckOutcome] = []
    for kind in kinds:
        alpha = smoothness(data, kind).alpha
        outcomes.append(check_self_bounding(kind))
        outcomes.append(check_co_coercivity(kind))
        outcomes.append(check_convexity(kind))
        outcomes.append(check_gradient_fd(kind))
        for beta in betas:
            eta_cap = max_eta_hb(beta, alpha)
            hb_hp = hb_params(step_fraction * eta_cap, beta, steps)
            m_recursion = check_m_recursion(data, kind, hb_hp, seed)
            hb = _identity_run(data, kind, hb_hp, seed)
            outcomes.append(check_y_identity(kind, hb, wrong_effective_step=force_bug == "y_identity"))
            outcomes.extend(check_dist_identity(kind, hb))
            outcomes.append(m_recursion)
            outcomes.append(check_momentum_unrolling(kind, hb))
            del hb
            gamma = step_fraction * max_gamma_nesterov(beta, alpha)
            if beta > 0.0:
                nest = _identity_run(data, kind, nesterov_params(gamma, beta, steps), seed)
                outcomes.append(check_nesterov_equivalence(data, kind, nest, seed))
                outcomes.append(check_y_identity(kind, nest))
                outcomes.extend(check_dist_identity(kind, nest))
                del nest
            else:
                params = _nesterov_params(kind, beta, gamma, steps)
                outcomes.append(_skip("nesterov_equivalence", params, "requires beta > 0"))
                outcomes.append(check_beta_zero_reduction(data, kind, 0.4 * eta_cap, 0.6 * eta_cap, steps, seed))
    return outcomes
