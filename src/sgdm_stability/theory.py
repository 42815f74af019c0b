"""Closed-form step-size conditions, stability/optimization bounds, and the
exact trajectory identities they rest on.

Every bound here is a function of the hyperparameters (beta, gamma, eta), the
dataset smoothness alpha, the sample size n, and the horizon t.  The bounds
for the heavy-ball (gamma = 0) and Nesterov (eta = beta * gamma) special
cases are coded from their own closed forms rather than by substituting into
the general expression, so agreement between the two routes is a real check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import HyperParams, Trajectory, momentum_buffers

STAB_FORMULAS = ("stab_general", "stab_hb", "stab_nesterov")
OPT_FORMULAS = ("opt_general", "opt_hb", "opt_nesterov")


@dataclass(frozen=True)
class ConditionReport:
    which: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class BoundReport:
    formula: str
    value: float
    inputs: dict
    condition_ok: bool

    def to_dict(self) -> dict:
        return {
            "formula": self.formula,
            "value": self.value,
            "condition_ok": self.condition_ok,
            "inputs": dict(self.inputs),
        }


def _inv_alpha(alpha: float) -> float:
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return math.inf if alpha == 0.0 else 1.0 / alpha


def check_stab_condition(hp: HyperParams, alpha: float) -> ConditionReport:
    """Step-size condition for uniform stability.

    lhs = (1+b)(3-b)/(1-b)^2 * eta + (b^2+3)/(2(1-b)^2) * gamma  <=  1/alpha.

    At beta = 0 this reads 3*eta + 1.5*gamma <= 1/alpha.  alpha = 0 makes the
    condition vacuous (rhs = inf).
    """
    b = hp.beta
    lhs = ((1 + b) * (3 - b) / (1 - b) ** 2) * hp.eta + ((b * b + 3) / (2 * (1 - b) ** 2)) * hp.gamma
    rhs = _inv_alpha(alpha)
    return ConditionReport("stability", lhs, rhs, lhs <= rhs, rhs - lhs)


def check_opt_condition(hp: HyperParams, alpha: float) -> ConditionReport:
    """Step-size condition for the average-iterate optimization bound.

    lhs = gamma^2 + 2*gamma*eta/(1-b) + (1+b)*eta^2/(1-b)^2
    rhs = (2(1-b)*gamma + 2*eta) / (3*alpha).
    """
    b, g, e = hp.beta, hp.gamma, hp.eta
    # squares as products, so a huge step gives lhs = inf (unsatisfied)
    # instead of an OverflowError
    lhs = g * g + 2 * g * e / (1 - b) + (1 + b) * (e * e) / (1 - b) ** 2
    rhs = (2 * (1 - b) * g + 2 * e) / 3 * _inv_alpha(alpha)
    return ConditionReport("optimization", lhs, rhs, lhs <= rhs, rhs - lhs)


def _check_cap_inputs(beta: float, alpha: float) -> None:
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")


def max_eta_hb(beta: float, alpha: float) -> float:
    """Largest heavy-ball step eta admitted by the stability condition:
    (1-b)^2 / (alpha (1+b)(3-b))."""
    _check_cap_inputs(beta, alpha)
    return (1 - beta) ** 2 / (alpha * (1 + beta) * (3 - beta))


def max_gamma_nesterov(beta: float, alpha: float) -> float:
    """Largest Nesterov step gamma admitted by the stability condition:
    2(1-b)^2 / (alpha (3 + 6b + 5b^2 - 2b^3))."""
    _check_cap_inputs(beta, alpha)
    return 2 * (1 - beta) ** 2 / (alpha * (3 + 6 * beta + 5 * beta**2 - 2 * beta**3))


def max_step(variant: str, beta: float, alpha: float) -> float:
    """Largest scalar step the stability condition admits for `variant`,
    with the step mapped onto (gamma, eta) as `harness.variant_params` does.

    hb: eta = step.  nesterov: gamma = step, eta = beta * step, and at
    beta = 0 the plain-SGD form eta = step.  general: gamma = eta = step,
    which admits 2(1-b)^2 / (alpha (9 + 4b - b^2)).
    """
    if variant == "hb" or (variant == "nesterov" and beta == 0.0):
        return max_eta_hb(beta, alpha)
    if variant == "nesterov":
        return max_gamma_nesterov(beta, alpha)
    if variant == "general":
        _check_cap_inputs(beta, alpha)
        return 2 * (1 - beta) ** 2 / (alpha * (9 + 4 * beta - beta * beta))
    raise ValueError(f"unknown variant {variant!r}")


def _require_variant_shape(hp: HyperParams, variant: str) -> None:
    if variant == "hb" and hp.gamma != 0.0:
        raise ValueError(f"hb formulas require gamma = 0, got gamma = {hp.gamma}")
    if variant == "nesterov":
        target = hp.beta * hp.gamma
        if abs(hp.eta - target) > 1e-12 * max(1.0, abs(target)):
            raise ValueError(
                f"nesterov formulas require eta = beta * gamma, got eta = {hp.eta}, "
                f"beta * gamma = {target}"
            )


def stability_bound(
    hp: HyperParams,
    alpha: float,
    n: int,
    t: int,
    sum_risk: float,
    variant: str = "general",
) -> BoundReport:
    """On-average argument-stability bound after t steps on n examples.

    `sum_risk` is (an estimate of) the accumulated expected empirical risk
    sum_{k=1..t} E[L_S(w_k)].  The returned value bounds
    E||w_{t+1} - w'_{t+1}||^2 for a single-example replacement.  When the
    stability step-size condition fails the value is still computed but
    `condition_ok` is False.
    """
    if variant not in ("general", "hb", "nesterov"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1 or t < 1:
        raise ValueError(f"need n >= 1 and t >= 1, got n = {n}, t = {t}")
    if sum_risk < 0:
        raise ValueError(f"sum_risk must be >= 0, got {sum_risk}")
    _require_variant_shape(hp, variant)
    b, g, e = hp.beta, hp.gamma, hp.eta
    base = 8.0 * alpha * math.e / n * sum_risk
    if variant == "hb":
        coeff = (2 * (1 + b) ** 2 / (1 - b) ** 3 + t / ((1 - b) ** 2 * n)) * e**2
    elif variant == "nesterov":
        coeff = (
            2
            + b * b * (3 * b * b + 4 * b + 5) / (1 - b) ** 3
            + (1 + b) * t / ((1 - b) ** 2 * n)
        ) * g**2
    else:
        coeff = (
            2 * (1 + b) ** 2 / (1 - b) ** 3 * e**2
            + 2 * g**2
            + b * (b * b + 3) / (1 - b) ** 3 * g * e
            + (g + e) * ((1 - b) * g + e) * t / ((1 - b) ** 2 * n)
        )
    cond = check_stab_condition(hp, alpha)
    return BoundReport(
        formula=f"stab_{variant}",
        value=coeff * base,
        inputs={
            "beta": b,
            "gamma": g,
            "eta": e,
            "alpha": alpha,
            "n": n,
            "t": t,
            "sum_risk": sum_risk,
            "euler_e": math.e,
        },
        condition_ok=cond.satisfied,
    )


def optimization_bound(
    hp: HyperParams,
    alpha: float,
    dist_sq: float,
    t: int,
    ref_risk: float,
    variant: str = "general",
) -> BoundReport:
    """Excess-risk bound for the average iterate after t steps.

    Bounds E[L_S(w_bar_t)] - L_S(w) by
    3(1-b) ||w_1 - w||^2 / (2 ((1-b) gamma + eta) t)
    + ((1-b) gamma + eta + b eta^2 / ((1-b) gamma + eta)) * 3 alpha L_S(w) / (1-b)^2
    where `dist_sq` = ||w_1 - w||^2 and `ref_risk` = L_S(w) for any fixed w.
    """
    if variant not in ("general", "hb", "nesterov"):
        raise ValueError(f"unknown variant {variant!r}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if dist_sq < 0 or ref_risk < 0:
        raise ValueError("dist_sq and ref_risk must be >= 0")
    _require_variant_shape(hp, variant)
    b, g, e = hp.beta, hp.gamma, hp.eta
    if variant == "hb":
        value = 3 * (1 - b) * dist_sq / (2 * e * t) + 3 * alpha * (1 + b) * e * ref_risk / (1 - b) ** 2
    elif variant == "nesterov":
        value = 3 * (1 - b) * dist_sq / (2 * g * t) + 3 * alpha * (1 + b**3) * g * ref_risk / (1 - b) ** 2
    else:
        step = (1 - b) * g + e
        value = 3 * (1 - b) * dist_sq / (2 * step * t) + (step + b * e**2 / step) * 3 * alpha * ref_risk / (1 - b) ** 2
    cond = check_opt_condition(hp, alpha)
    return BoundReport(
        formula=f"opt_{variant}",
        value=value,
        inputs={
            "beta": b,
            "gamma": g,
            "eta": e,
            "alpha": alpha,
            "dist_sq": dist_sq,
            "t": t,
            "ref_risk": ref_risk,
        },
        condition_ok=cond.satisfied,
    )


@dataclass(frozen=True)
class AuxiliaryTrace:
    """The momentum-free auxiliary sequence of a recorded trajectory.

    y_1 = w_1 and, for k >= 2,
    y_k = w_k / (1-b) - b w_{k-1} / (1-b) + b gamma g_{k-1} / (1-b).
    It advances by plain gradient steps with the effective step size
    gamma + eta / (1-b); `residuals` holds the per-step norm of
    y_{k+1} - y_k + effective_step * g_k.
    """

    y: np.ndarray
    effective_step: float
    residuals: np.ndarray


def auxiliary_sequence(traj: Trajectory) -> AuxiliaryTrace:
    b, g = traj.hp.beta, traj.hp.gamma
    W, G = traj.iterates, traj.gradients
    y = np.empty_like(W)
    y[0] = W[0]
    if W.shape[0] > 1:
        y[1:] = (W[1:] - b * W[:-1] + b * g * G) / (1 - b)
    effective_step = g + traj.hp.eta / (1 - b)
    residuals = np.linalg.norm(y[1:] - y[:-1] + effective_step * G, axis=1)
    return AuxiliaryTrace(y=y, effective_step=effective_step, residuals=residuals)


def verify_y_identity(aux: AuxiliaryTrace, traj: Trajectory) -> float:
    """Max norm of y_{k+1} - y_k + effective_step * g_k over the run.

    Zero in exact arithmetic; callers compare against a tolerance scaled by
    1 + max_k ||y_k||.
    """
    if aux.y.shape != traj.iterates.shape:
        raise ValueError("auxiliary trace does not match trajectory shape")
    return float(aux.residuals.max()) if aux.residuals.size else 0.0


@dataclass(frozen=True)
class DistIdentityReport:
    """Exact distance identity and its geometric-sum upper bound.

    For every k: ||y_k - w_k||^2 equals b^2 eta^2 / (1-b)^2 * ||m_{k-1}||^2
    exactly, and is at most
    b^2 eta^2 / (1-b)^3 * sum_{j<k} b^(k-1-j) ||g_j||^2.
    Residuals and margins are normalized by 1 + the larger side.
    """

    identity_residuals: np.ndarray
    bound_margins: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.identity_residuals.max()) if self.identity_residuals.size else 0.0

    @property
    def min_margin(self) -> float:
        return float(self.bound_margins.min()) if self.bound_margins.size else 0.0


def verify_dist_identity(aux: AuxiliaryTrace, traj: Trajectory) -> DistIdentityReport:
    b, eta = traj.hp.beta, traj.hp.eta
    W = traj.iterates
    if aux.y.shape != W.shape:
        raise ValueError("auxiliary trace does not match trajectory shape")
    m = momentum_buffers(traj)
    lhs = np.sum((aux.y - W) ** 2, axis=1)
    # Row i of W is iterate w_{i+1}; the identity pairs it with buffer m_i.
    rhs = (b * eta / (1 - b)) ** 2 * np.sum(m**2, axis=1)
    grad_sq = np.sum(traj.gradients**2, axis=1)
    geo = np.zeros(W.shape[0])
    for k in range(1, W.shape[0]):
        geo[k] = b * geo[k - 1] + grad_sq[k - 1]
    bound = b**2 * eta**2 / (1 - b) ** 3 * geo
    scale = 1.0 + np.maximum(lhs, rhs)
    identity_residuals = np.abs(lhs - rhs) / scale
    bound_margins = (bound - lhs) / (1.0 + np.abs(bound))
    return DistIdentityReport(identity_residuals=identity_residuals, bound_margins=bound_margins)


def verify_m_recursion_bound(base: Trajectory, neighbor: Trajectory) -> np.ndarray:
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
    mb = momentum_buffers(base)
    mn = momentum_buffers(neighbor)
    lhs = np.sum((mb[1:] - mn[1:]) ** 2, axis=1)
    gdiff_sq = np.sum((base.gradients - neighbor.gradients) ** 2, axis=1)
    decay = (1 + delta) * b * b
    acc = 0.0
    rhs = np.empty_like(lhs)
    for k in range(lhs.shape[0]):
        acc = decay * acc + gdiff_sq[k]
        rhs[k] = (1 + 1 / delta) * acc
    return (rhs - lhs) / (1.0 + np.abs(rhs))


@dataclass(frozen=True)
class EprRecipe:
    """Suggested horizon, over-parameterization ratio, and step size for a
    target sample size, given the attainable empirical risk level."""

    regime: str
    t: int
    rho: float
    step: float
    l_star_estimate: float
    cap: float

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "t": self.t,
            "rho": self.rho,
            "step": self.step,
            "l_star_estimate": self.l_star_estimate,
            "cap": self.cap,
        }


def epr_recipe(n: int, beta: float, l_star: float, variant: str, alpha: float) -> EprRecipe:
    """Budget recipe: horizon t = n / (1-beta) and a step size that balances
    the stability and optimization terms.

    High-noise regime (l_star >= 1/n): rho = sqrt(n * l_star) and step
    (1-beta)^2 / rho.  Low-noise regime (l_star < 1/n): rho = 1 and step
    (1-beta)^2.  The step is clamped to the variant's admissible maximum
    (`cap`), which depends on alpha.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if l_star < 0:
        raise ValueError(f"l_star must be >= 0, got {l_star}")
    if variant not in ("hb", "nesterov"):
        raise ValueError(f"unknown variant {variant!r}")
    cap = max_step(variant, beta, alpha)
    t = max(1, int(round(n / (1 - beta))))
    if l_star >= 1.0 / n:
        regime = "high_noise"
        rho = math.sqrt(n * l_star)
        step = (1 - beta) ** 2 / rho
    else:
        regime = "low_noise"
        rho = 1.0
        step = (1 - beta) ** 2
    return EprRecipe(
        regime=regime,
        t=t,
        rho=rho,
        step=min(step, cap),
        l_star_estimate=l_star,
        cap=cap,
    )
