"""Experiment drivers: perturbation sweeps on real or synthetic data, and
Monte Carlo checks that measured divergence stays under the stability bound.

The perturbation protocol: split off a train set, replace one uniformly
chosen train example with a fresh draw from the held-out split, run the same
seeded algorithm on both copies, and record the iterate distance over time.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .dataset import DataError, Dataset, binarize, load_libsvm, split_positions, stack, synthetic_binary_dataset
from .losses import smoothness
from .optimizer import DivergenceError, HyperParams, SampleStream, coupled_distance_batch
from .theory import ConditionReport, check_opt_condition, check_stab_condition, stability_bound


class PreconditionError(RuntimeError):
    """A check was refused because its theorem preconditions do not hold."""


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str  # path to a LIBSVM file, or "synthetic"
    loss: str = "logistic"
    variant: str = "hb"  # one of VARIANTS
    steps: tuple[float, ...] = (0.001, 0.005, 0.025, 0.1)
    betas: tuple[float, ...] = (0.9,)
    repetitions: int = 100
    epochs: int = 5
    fraction: float = 0.8
    seed: int = 0
    stride: int | None = None  # distance recording stride; None = once per epoch
    outdir: str | None = None
    synth_n: int = 1000
    synth_dim: int = 20
    max_train: int | None = None  # subsample cap on the train split


@dataclass(frozen=True)
class GridPointResult:
    beta: float
    step: float
    gamma: float
    eta: float
    means: np.ndarray
    stds: np.ndarray
    censored: int
    stab_condition: ConditionReport
    opt_condition: ConditionReport
    # one {rep, step, which} record per censored repetition, by repetition
    censored_reps: tuple[dict, ...] = ()


@dataclass(frozen=True)
class StabilityResult:
    points: list[GridPointResult]
    config: ExperimentConfig
    n_train: int
    dim: int
    alpha: float
    stride: int
    wall_clock_s: float


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


def bound_variant(variant: str, beta: float) -> str:
    """The stability bound formula for what `variant_params` runs: nesterov at
    beta = 0 is plain SGD, outside the Nesterov form eta = beta * gamma, so
    the general bound applies."""
    if variant == "nesterov" and beta == 0.0:
        return "general"
    return variant


def load_experiment_data(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return synthetic_binary_dataset(cfg.synth_n, cfg.synth_dim, cfg.seed)
    return binarize(load_libsvm(cfg.dataset))


def aggregate(series_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and sample standard deviation of equal-length series."""
    if not series_list:
        raise ValueError("no series to aggregate")
    lengths = {len(s) for s in series_list}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    stacked = np.vstack(series_list)
    means = stacked.mean(axis=0)
    if stacked.shape[0] == 1:
        stds = np.zeros_like(means)
    else:
        stds = stacked.std(axis=0, ddof=1)
    return means, stds


@dataclass(frozen=True)
class RepDraw:
    """One repetition's randomness, as positions into the loaded data."""

    train_rows: np.ndarray  # data positions of the train rows, in order
    perturbed: int  # 1-based position among train_rows of the replaced row
    replacement: int  # data position of the held-out row replacing it
    stream_seed: int


def _rep_draws(cfg: ExperimentConfig, n: int, rep: int) -> RepDraw:
    """Per-repetition randomness: split, perturbed index, replacement, stream seed.

    All draws come from one generator keyed by (master seed, repetition), in a
    fixed order, so results do not depend on grid traversal or scheduling.
    """
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


def run_stability_experiment(cfg: ExperimentConfig) -> StabilityResult:
    started = time.perf_counter()
    if cfg.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {cfg.repetitions}")
    data = load_experiment_data(cfg)
    alpha = smoothness(data, cfg.loss).alpha

    # Pre-draw the per-repetition material once; it is shared by every grid
    # point so step/beta comparisons use common random numbers.
    draws = [_rep_draws(cfg, data.n, r) for r in range(cfg.repetitions)]
    n_train = draws[0].train_rows.size
    stride = cfg.stride if cfg.stride is not None else n_train
    iterations = cfg.epochs * n_train
    if stride > iterations:
        raise DataError(
            f"stride {stride} exceeds the {iterations} steps of a run (epochs {cfg.epochs} x "
            f"{n_train} train rows), so no distance would be recorded"
        )
    grid = [
        (beta, step, variant_params(cfg.variant, step, beta, iterations))
        for beta in cfg.betas
        for step in cfg.steps
    ]
    batch = coupled_distance_batch(
        data,
        np.stack([d.train_rows for d in draws]),
        [d.perturbed for d in draws],
        [d.replacement for d in draws],
        [SampleStream(d.stream_seed, n_train) for d in draws],
        cfg.loss,
        [hp for _, _, hp in grid],
        np.zeros(data.dim),
        stride,
    )

    points: list[GridPointResult] = []
    for g, (beta, step, hp) in enumerate(grid):
        done = batch.diverged_step[:, g] == 0
        series = list(batch.distances[done, g])
        if series:
            means, stds = aggregate(series)
        else:
            length = iterations // stride
            means = np.full(length, np.nan)
            stds = np.full(length, np.nan)
        points.append(
            GridPointResult(
                beta=beta,
                step=step,
                gamma=hp.gamma,
                eta=hp.eta,
                means=means,
                stds=stds,
                censored=int((~done).sum()),
                stab_condition=check_stab_condition(hp, alpha),
                opt_condition=check_opt_condition(hp, alpha),
                censored_reps=tuple(
                    {
                        "rep": int(r),
                        "step": int(batch.diverged_step[r, g]),
                        "which": str(batch.diverged_which[r, g]),
                    }
                    for r in np.flatnonzero(~done)
                ),
            )
        )
    return StabilityResult(
        points=points,
        config=cfg,
        n_train=n_train,
        dim=data.dim,
        alpha=alpha,
        stride=stride,
        wall_clock_s=time.perf_counter() - started,
    )


def grid_point_filename(cfg: ExperimentConfig, point: GridPointResult) -> str:
    return f"{cfg.variant}_beta{point.beta:g}_step{point.step:g}.csv"


def save_stability_result(result: StabilityResult, outdir, extra: dict | None = None) -> dict:
    """Write one CSV per grid point plus a JSON manifest; returns the manifest.

    `extra` entries (for example the command-line overrides that produced the
    config) are merged into the manifest so a run can be reproduced from it.
    """
    import csv
    from pathlib import Path

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    grid_entries = []
    for point in result.points:
        name = grid_point_filename(cfg, point)
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_dist", "std_dist", "censored_count"])
            for j in range(point.means.shape[0]):
                epoch = (j + 1) * result.stride / result.n_train
                writer.writerow(
                    [repr(epoch), repr(float(point.means[j])), repr(float(point.stds[j])), point.censored]
                )
        grid_entries.append(
            {
                "csv": name,
                "beta": point.beta,
                "step": point.step,
                "gamma": point.gamma,
                "eta": point.eta,
                "censored": point.censored,
                "censored_reps": list(point.censored_reps),
                "stab_condition": point.stab_condition.to_dict(),
                "opt_condition": point.opt_condition.to_dict(),
            }
        )
    manifest = {
        "command": "run-stability",
        "config": asdict(cfg),
        "dataset": {
            "source": cfg.dataset,
            "n_train": result.n_train,
            "dim": result.dim,
            "alpha": result.alpha,
        },
        "stride": result.stride,
        "perturbation": "one train example replaced by a fresh draw from the held-out split",
        "initial_point": "zero vector",
        "grid": grid_entries,
        "wall_clock_s": result.wall_clock_s,
    }
    if extra:
        manifest.update(extra)
    write_json(out / "manifest.json", manifest)
    return manifest


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, obj) -> None:
    """Write `obj` to `path` as strict JSON, with each non-finite float as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)


def _standard_error(values: np.ndarray) -> float | None:
    """Sample standard deviation / sqrt(count); None for a single value."""
    if values.size < 2:
        return None
    return float(values.std(ddof=1) / np.sqrt(values.size))


@dataclass(frozen=True)
class BoundCheckResult:
    empirical: float
    theoretical: float
    holds: bool
    margin_ratio: float
    samples: int
    inputs: dict
    empirical_se: float | None
    sum_risk: float
    sum_risk_se: float | None

    def to_dict(self) -> dict:
        return {
            "empirical": self.empirical,
            "empirical_se": self.empirical_se,
            "theoretical": self.theoretical,
            "holds": self.holds,
            "margin_ratio": self.margin_ratio,
            "samples": self.samples,
            "sum_risk": self.sum_risk,
            "sum_risk_se": self.sum_risk_se,
            "estimator": "dataset fixed; Monte Carlo over (perturbed index, stream seed, replacement)",
            "inputs": dict(self.inputs),
        }


def run_bound_check(
    train: Dataset,
    replacement_pool: Dataset,
    kind: str,
    hp: HyperParams,
    alpha: float,
    samples: int,
    seed: int,
    variant: str = "general",
) -> BoundCheckResult:
    """Monte Carlo comparison of measured squared divergence with the bound.

    Refuses to run (PreconditionError) when the stability step-size condition
    fails, since the bound does not apply there.  The accumulated-risk input
    of the bound, sum_k R_S(w_k) over the base iterates w_1..w_t, is estimated
    from the base runs of the same samples.  All samples are pairs of one
    `coupled_distance_batch` call with a running risk sum per sample, so
    memory does not grow with t; the lowest censored sample raises
    DivergenceError.
    """
    cond = check_stab_condition(hp, alpha)
    if not cond.satisfied:
        raise PreconditionError(
            f"stability condition violated: lhs {cond.lhs} > rhs {cond.rhs}"
        )
    t = hp.iterations
    # sized by `samples` before the draw loop, so a size that cannot be
    # allocated fails at once
    perturbed = np.empty(samples, dtype=np.int64)
    replacements = np.empty(samples, dtype=np.intp)
    streams = []
    for s in range(samples):
        rng = np.random.default_rng([seed, s])
        perturbed[s] = rng.integers(1, train.n + 1)
        # the pool's rows follow the train rows in the stacked data
        replacements[s] = train.n + rng.integers(0, replacement_pool.n)
        streams.append(SampleStream(int(rng.integers(2**63)), train.n))
    # every sample trains on all of `train`, in its own stream's order
    train_rows = np.broadcast_to(np.arange(train.n), (samples, train.n))
    batch = coupled_distance_batch(
        stack([train, replacement_pool], train.dim), train_rows, perturbed, replacements, streams,
        kind, [hp], np.zeros(train.dim), t, risk_data=train,
    )
    censored = np.flatnonzero(batch.diverged_step[:, 0])
    if censored.size:
        s = censored[0]
        raise DivergenceError(int(batch.diverged_step[s, 0]), str(batch.diverged_which[s, 0]))
    final_sq = batch.distances[:, 0, 0] ** 2
    sum_risks = batch.sum_risk[:, 0]
    empirical = float(final_sq.mean())
    sum_risk = float(sum_risks.mean())
    report = stability_bound(hp, alpha, train.n, t, sum_risk, variant)
    theoretical = report.value
    ratio = float("inf") if empirical == 0.0 else theoretical / empirical
    return BoundCheckResult(
        empirical=empirical,
        theoretical=theoretical,
        holds=empirical <= theoretical,
        margin_ratio=ratio,
        samples=samples,
        inputs=report.inputs,
        empirical_se=_standard_error(final_sq),
        sum_risk=sum_risk,
        sum_risk_se=_standard_error(sum_risks),
    )
