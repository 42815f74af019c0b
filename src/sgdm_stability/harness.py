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

from .dataset import DataError, Dataset, binarize, load_libsvm, split_positions, synthetic_binary_dataset
from .losses import smoothness
from .optimizer import CoupledBatch, DivergenceError, HyperParams, SampleStream, coupled_distance_batch
from .theory import (
    ConditionReport, bound_formula, check_opt_condition, check_stab_condition, max_step, stability_bound,
    variant_params,
)


class ConfigError(ValueError):
    """A configuration value that the experiment cannot run with."""


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
class Draws:
    """Each repetition's randomness, as positions into the data the kernel
    runs on: repetition r trains on the rows train_rows[r] in the order of
    the stream seeded stream_seeds[r], and its neighbor puts the row
    replacements[r] at 1-based train position perturbed[r].  Both
    constructors size the arrays before the first draw, so a size that
    cannot be allocated fails at once."""

    train_rows: np.ndarray  # (R, n)
    perturbed: np.ndarray  # (R,)
    replacements: np.ndarray  # (R,)
    stream_seeds: np.ndarray  # (R,)

    @classmethod
    def sweep(cls, n: int, fraction: float, max_train: int | None, seed: int, reps: int) -> Draws:
        """A fresh split of the n rows per repetition, capped at `max_train`
        train rows, replaced from its held-out rows, all drawn in a fixed order
        from one generator keyed by (seed, repetition), so no result depends
        on grid traversal."""
        # every split has floor(fraction * n) train rows
        n_train = math.floor(fraction * n) if max_train is None else min(math.floor(fraction * n), max_train)
        draws = cls(
            np.empty((reps, n_train), dtype=np.intp), np.empty(reps, dtype=np.int64),
            np.empty(reps, dtype=np.intp), np.empty(reps, dtype=np.int64),
        )
        for rep in range(reps):
            rng = np.random.default_rng([seed, rep])
            train, held = split_positions(n, fraction, int(rng.integers(2**63)))
            if train.size > n_train:
                train = train[np.sort(rng.choice(train.size, size=n_train, replace=False))]
            draws.train_rows[rep] = train
            draws.perturbed[rep] = rng.integers(1, n_train + 1)
            draws.replacements[rep] = held[rng.integers(0, held.size)]
            draws.stream_seeds[rep] = rng.integers(2**63)
        return draws

    @classmethod
    def fixed_split(cls, train_rows: np.ndarray, pool_rows: np.ndarray, seed: int, samples: int) -> Draws:
        """Every sample trains on all of the rows `train_rows` and draws its
        replacement from the rows `pool_rows`, from one generator keyed by
        (seed, sample)."""
        perturbed = np.empty(samples, dtype=np.int64)
        replacements = np.empty(samples, dtype=np.intp)
        stream_seeds = np.empty(samples, dtype=np.int64)
        for s in range(samples):
            rng = np.random.default_rng([seed, s])
            perturbed[s] = rng.integers(1, train_rows.size + 1)
            replacements[s] = pool_rows[rng.integers(0, pool_rows.size)]
            stream_seeds[s] = rng.integers(2**63)
        return cls(np.broadcast_to(train_rows, (samples, train_rows.size)), perturbed, replacements, stream_seeds)

    def run(
        self, data: Dataset, kind: str, points: list[HyperParams], stride: int, risk_data: Dataset | None = None
    ) -> CoupledBatch:
        """Every repetition at every grid point `points`, started at zero, as
        one `coupled_distance_batch` call on `data`."""
        n = self.train_rows.shape[1]
        return coupled_distance_batch(
            data, self.train_rows, self.perturbed, self.replacements,
            [SampleStream(int(s), n) for s in self.stream_seeds], kind, points, np.zeros(data.dim), stride,
            risk_data=risk_data,
        )


@dataclass(frozen=True)
class GridPoint:
    beta: float
    step: float
    hp: HyperParams
    formula: str  # the `stability_bound` formula that applies to hp


def grid_points(
    variant: str, betas: tuple[float, ...], steps: list[tuple[float, ...]], iterations: int, key: str
) -> list[GridPoint]:
    """The (beta, step) grid, beta by beta, with steps[i] the steps of
    betas[i], each mapped onto hyperparameters by `variant_params`, the only
    place a verb does so.  A step that maps to no update (an eta that rounds
    to 0) is a ConfigError naming `key`, the config key it came from."""
    grid = []
    for beta, beta_steps in zip(betas, steps):
        for step in beta_steps:
            try:
                hp = variant_params(variant, step, beta, iterations)
            except ValueError as e:
                raise ConfigError(
                    f"key {key!r}: step {step!r} at beta {beta!r} gives no {variant} update: {e}"
                ) from None
            grid.append(GridPoint(beta, step, hp, bound_formula(variant, beta)))
    return grid


def run_stability_experiment(cfg: ExperimentConfig) -> StabilityResult:
    started = time.perf_counter()
    if cfg.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {cfg.repetitions}")
    data = load_experiment_data(cfg)
    alpha = smoothness(data, cfg.loss).alpha

    # Pre-draw the per-repetition material once; it is shared by every grid
    # point so step/beta comparisons use common random numbers.
    draws = Draws.sweep(data.n, cfg.fraction, cfg.max_train, cfg.seed, cfg.repetitions)
    n_train = draws.train_rows.shape[1]
    stride = cfg.stride if cfg.stride is not None else n_train
    iterations = cfg.epochs * n_train
    if stride > iterations:
        raise DataError(
            f"stride {stride} exceeds the {iterations} steps of a run (epochs {cfg.epochs} x "
            f"{n_train} train rows), so no distance would be recorded"
        )
    grid = grid_points(cfg.variant, cfg.betas, [cfg.steps] * len(cfg.betas), iterations, "steps")
    named: dict[str, GridPoint] = {}
    for point in grid:
        name = grid_point_filename(cfg, point)
        first = named.setdefault(name, point)
        if first is not point:
            raise ConfigError(
                f"keys 'betas' and 'steps': grid points beta={first.beta!r} step={first.step!r} and "
                f"beta={point.beta!r} step={point.step!r} would both write {name}"
            )
    batch = draws.run(data, cfg.loss, [point.hp for point in grid], stride)

    points: list[GridPointResult] = []
    for g, point in enumerate(grid):
        hp = point.hp
        done = batch.diverged_step[:, g] == 0
        series = list(batch.distances[done, g])
        if series:
            means, stds = aggregate(series)
        else:
            means, stds = np.full((2, iterations // stride), np.nan)
        points.append(GridPointResult(
            beta=point.beta, step=point.step, gamma=hp.gamma, eta=hp.eta, means=means, stds=stds,
            censored=int((~done).sum()),
            stab_condition=check_stab_condition(hp, alpha), opt_condition=check_opt_condition(hp, alpha),
            censored_reps=tuple(
                {"rep": int(r), "step": int(batch.diverged_step[r, g]), "which": str(batch.diverged_which[r, g])}
                for r in np.flatnonzero(~done)
            ),
        ))
    return StabilityResult(
        points=points,
        config=cfg,
        n_train=n_train,
        dim=data.dim,
        alpha=alpha,
        stride=stride,
        wall_clock_s=time.perf_counter() - started,
    )


def _short(x: float) -> str:
    """x with `:g` where that reads back as x, else with `repr`."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def grid_point_filename(cfg: ExperimentConfig, point: GridPointResult) -> str:
    return f"{cfg.variant}_beta{_short(point.beta)}_step{_short(point.step)}.csv"


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


def json_text(obj) -> str:
    """`obj` as strict JSON, with each non-finite float as null."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)


def write_json(path, obj) -> None:
    """Write `json_text(obj)` to `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))


def _standard_error(values: np.ndarray) -> float | None:
    """Sample standard deviation / sqrt(count); None for a single value."""
    if values.size < 2:
        return None
    return float(values.std(ddof=1) / np.sqrt(values.size))


@dataclass(frozen=True)
class BoundCheckResult:
    beta: float
    step: float
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
        estimator = "dataset fixed; Monte Carlo over (perturbed index, stream seed, replacement)"
        return {**asdict(self), "estimator": estimator}


def run_bound_check(
    data: Dataset,
    train_rows: np.ndarray,
    pool_rows: np.ndarray,
    kind: str,
    grid: list[GridPoint],
    alpha: float,
    samples: int,
    seed: int,
) -> list[BoundCheckResult]:
    """Monte Carlo comparison of measured squared divergence with the bound
    at each point of `grid`, for the train set S of the rows `train_rows` of
    `data` and neighbors that replace one of them by one of the rows
    `pool_rows`.

    Refuses (PreconditionError) before any point runs when the stability
    step-size condition fails at any point, since the bound does not apply
    there.  The bound's accumulated risk sum_k R_S(w_k) over the base iterates
    w_1..w_t is estimated from the base runs of the same samples, on
    `data.take(train_rows)`, the one copy of rows made.  At every point the
    same samples are the pairs of one `coupled_distance_batch` call on `data`
    with a running risk sum per sample, so memory does not grow with t; the
    lowest censored sample raises DivergenceError.
    """
    for point in grid:
        cond = check_stab_condition(point.hp, alpha)
        if not cond.satisfied:
            raise PreconditionError(
                f"stability condition violated at beta {point.beta!r}: lhs {cond.lhs} > rhs {cond.rhs}"
            )
    # every sample trains on all of the train rows, in its own stream's order
    draws = Draws.fixed_split(train_rows, pool_rows, seed, samples)
    train = data.take(train_rows)
    results = []
    for point in grid:
        t = point.hp.iterations
        # one call per point: a call for the whole grid would buffer samples x
        # points base iterates per stream block
        batch = draws.run(data, kind, [point.hp], t, risk_data=train)
        censored = np.flatnonzero(batch.diverged_step[:, 0])
        if censored.size:
            s = censored[0]
            raise DivergenceError(int(batch.diverged_step[s, 0]), str(batch.diverged_which[s, 0]))
        final_sq = batch.distances[:, 0, 0] ** 2
        sum_risks = batch.sum_risk[:, 0]
        empirical = float(final_sq.mean())
        sum_risk = float(sum_risks.mean())
        report = stability_bound(point.hp, alpha, train.n, t, sum_risk, point.formula)
        theoretical = report.value
        # the grid's steps are > 0, so a zero bound from positive alpha and
        # risk is a coefficient that left float range, not a verdict
        if theoretical == 0.0 and alpha > 0.0 and sum_risk > 0.0:
            raise DataError(
                f"the stability bound at beta {point.beta!r} underflows to 0 (alpha {alpha:g}); rescale the features"
            )
        results.append(BoundCheckResult(
            beta=point.beta, step=point.step, empirical=empirical, theoretical=theoretical,
            holds=empirical <= theoretical, margin_ratio=float("inf") if empirical == 0.0 else theoretical / empirical,
            samples=samples, inputs=report.inputs, empirical_se=_standard_error(final_sq),
            sum_risk=sum_risk, sum_risk_se=_standard_error(sum_risks),
        ))
    return results


def run_bound_checks(
    cfg: ExperimentConfig, samples: int, t: tuple[float, bool], step: float | None, step_fraction: float
) -> list[BoundCheckResult]:
    """check-bounds: `run_bound_check` on the grid of `cfg.betas`, on the
    train and held-out rows of one split of the data.

    `t` is (k, per_n): k steps, or k times the train size when per_n.  Each
    beta's step is `step`, or `step_fraction` times the largest step its
    stability condition admits on the train rows.
    """
    data = load_experiment_data(cfg)
    train_rows, held_rows = split_positions(data.n, cfg.fraction, cfg.seed)
    alpha = smoothness(data.take(train_rows), cfg.loss).alpha
    k, per_n = t
    iterations = k * train_rows.size if per_n else k
    if not 1 <= iterations < 2**63:
        raise ConfigError(f"key 't': expected at least one step and fewer than 2**63, got {iterations!r} steps")
    if step is None and alpha == 0.0:
        raise ConfigError(
            "key 'step_fraction': alpha = 0 (the train rows have no nonzero values), "
            "so there is no step cap to scale; give 'step' instead"
        )
    steps = [(step if step is not None else step_fraction * max_step(cfg.variant, beta, alpha),) for beta in cfg.betas]
    key = "step" if step is not None else "step_fraction"
    grid = grid_points(cfg.variant, cfg.betas, steps, int(iterations), key)
    return run_bound_check(data, train_rows, held_rows, cfg.loss, grid, alpha, samples, cfg.seed)
