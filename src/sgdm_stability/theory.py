"""Closed-form step-size conditions, step caps, stability/optimization
bounds and the budget recipe, all on scalars.

Every bound here is a function of the hyperparameters (beta, gamma, eta), the
dataset smoothness alpha, the sample size n, and the horizon t.  The bounds
for the heavy-ball (gamma = 0) and Nesterov (eta = beta * gamma) special
cases are coded from their own closed forms rather than by substituting into
the general expression, so agreement between the two routes is a real check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .optimizer import HyperParams


@dataclass(frozen=True)
class ConditionReport:
    which: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    formula: str
    value: float
    inputs: dict
    condition_ok: bool


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
    if not alpha > 0:  # nan too, or max_step would step down forever
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


VARIANTS = ("hb", "nesterov", "general")


def variant_params(variant: str, step: float, beta: float, iterations: int) -> HyperParams:
    """Map a scalar step size onto (gamma, eta) for the given variant.

    hb: gamma = 0, eta = step.  nesterov: gamma = step, eta = beta * step,
    falling back to the equivalent plain-SGD form when beta = 0.  general:
    gamma = eta = step.
    """
    if variant == "hb":
        return HyperParams(beta=beta, gamma=0.0, eta=step, iterations=iterations)
    if variant == "nesterov":
        if beta == 0.0:
            return HyperParams(beta=0.0, gamma=0.0, eta=step, iterations=iterations)
        return HyperParams(beta=beta, gamma=step, eta=beta * step, iterations=iterations)
    if variant == "general":
        return HyperParams(beta=beta, gamma=step, eta=step, iterations=iterations)
    raise ValueError(f"unknown variant {variant!r}")


def bound_formula(variant: str, beta: float) -> str:
    """The `stability_bound` formula for what `variant_params` runs: nesterov
    at beta = 0 is plain SGD, outside the Nesterov form eta = beta * gamma,
    so the general bound applies."""
    return "general" if variant == "nesterov" and beta == 0.0 else variant


def max_step(variant: str, beta: float, alpha: float) -> float:
    """Largest scalar step the stability condition admits for `variant`,
    with the step mapped onto (gamma, eta) as `variant_params` does.

    hb: eta = step.  nesterov: gamma = step, eta = beta * step, and at
    beta = 0 the plain-SGD form eta = step.  general: gamma = eta = step,
    which admits 2(1-b)^2 / (alpha (9 + 4b - b^2)).  These closed forms
    round; where `check_stab_condition` refuses one by a rounding, the cap
    steps down one float at a time to the first step it admits.
    """
    if variant == "hb" or (variant == "nesterov" and beta == 0.0):
        cap = max_eta_hb(beta, alpha)
    elif variant == "nesterov":
        cap = max_gamma_nesterov(beta, alpha)
    elif variant == "general":
        _check_cap_inputs(beta, alpha)
        cap = 2 * (1 - beta) ** 2 / (alpha * (9 + 4 * beta - beta * beta))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    while not _admits(variant, cap, beta, alpha):
        cap = math.nextafter(cap, 0.0)
    return cap


def _admits(variant: str, step: float, beta: float, alpha: float) -> bool:
    try:
        hp = variant_params(variant, step, beta, 1)
    except ValueError:
        # an eta that rounds to 0 is no update: the verbs refuse the step itself
        return True
    return check_stab_condition(hp, alpha).satisfied


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
    if variant not in VARIANTS:
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
    if variant not in VARIANTS:
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
        return asdict(self)


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
