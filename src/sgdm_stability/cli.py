"""Command-line front end.

Verbs: parse-data, run-stability, check-bounds, verify-invariants, recipe,
plot.  All of them read a flat key=value config file (``#`` comments allowed)
whose entries can be overridden on the command line with
``--overrides key=value ...``.

Exit codes: 0 success, 1 usage error, 2 data or config error, 3 divergence,
refused theorem precondition, or failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .dataset import DataError, KNOWN_DATASET_SHAPES, ParseError, load_libsvm
from .harness import (
    ExperimentConfig,
    PreconditionError,
    load_experiment_data,
    run_bound_check,
    run_stability_experiment,
    save_stability_result,
    variant_params,
)
from .losses import LOSS_KINDS, smoothness
from .optimizer import DivergenceError
from .dataset import split as split_dataset
from .plotting import PlotError, PlotSpec, emit_plot
from .theory import epr_recipe, max_eta_hb, max_gamma_nesterov
from .verification import run_invariant_suite

OUTDIR_ENV = "SGDM_STABILITY_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REFUSED = 3


class ConfigError(ValueError):
    pass


class CheckFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Command:
    verb: str
    config: dict


def load_config(path) -> dict:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path} line {line_no}: expected key=value, got {body!r}")
        key, value = body.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    merged = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def _get_float(cfg, key, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {cfg[key]!r}") from None


def _get_int(cfg, key, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {cfg[key]!r}") from None


def _get_bool(cfg, key, default=False) -> bool:
    if key not in cfg:
        return default
    v = cfg[key].lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {cfg[key]!r}")


def _get_floats(cfg, key, default=None) -> tuple[float, ...]:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return tuple(float(v) for v in cfg[key].split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {cfg[key]!r}") from None


def _require(key, value, ok, expected: str) -> None:
    if not ok:
        raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}")


def _outdir(cfg) -> Path:
    out = cfg.get("outdir") or os.environ.get(OUTDIR_ENV) or "out"
    return Path(out)


def _experiment_config(cfg: dict) -> ExperimentConfig:
    if "dataset" not in cfg:
        raise ConfigError("missing required key 'dataset'")
    loss = cfg.get("loss", "logistic")
    if loss not in LOSS_KINDS:
        raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {loss!r}")
    variant = cfg.get("variant", "hb")
    if variant not in ("hb", "nesterov", "general"):
        raise ConfigError(f"variant must be hb, nesterov, or general, got {variant!r}")
    stride = _get_int(cfg, "stride", 0)
    max_train = _get_int(cfg, "max_train", 0)
    steps = _get_floats(cfg, "steps", (0.001, 0.005, 0.025, 0.1))
    betas = _get_floats(cfg, "betas", (0.9,))
    reps = _get_int(cfg, "reps", 100)
    epochs = _get_int(cfg, "epochs", 5)
    fraction = _get_float(cfg, "fraction", 0.8)
    seed = _get_int(cfg, "seed", 0)
    _require("reps", reps, reps >= 1, ">= 1")
    _require("epochs", epochs, epochs >= 1, ">= 1")
    _require("stride", stride, stride >= 0, ">= 0 (0 means once per epoch)")
    _require("max_train", max_train, max_train >= 0, ">= 0 (0 means no cap)")
    _require("steps", cfg.get("steps"), steps and all(0 < v < math.inf for v in steps), "finite and > 0")
    _require("betas", cfg.get("betas"), betas and all(0 <= v < 1 for v in betas), "in [0, 1)")
    _require("seed", seed, seed >= 0, ">= 0")
    _require("fraction", fraction, 0 < fraction < 1, "in (0, 1)")
    return ExperimentConfig(
        dataset=cfg["dataset"],
        loss=loss,
        variant=variant,
        steps=steps,
        betas=betas,
        repetitions=reps,
        epochs=epochs,
        fraction=fraction,
        seed=seed,
        stride=stride or None,
        outdir=str(_outdir(cfg)),
        synth_n=_get_int(cfg, "synth_n", 1000),
        synth_dim=_get_int(cfg, "synth_dim", 20),
        max_train=max_train or None,
    )


def _cmd_parse_data(cfg: dict) -> int:
    if "dataset" not in cfg:
        raise ConfigError("missing required key 'dataset'")
    path = cfg["dataset"]
    dim_override = _get_int(cfg, "dim", 0) or None
    data = load_libsvm(path, dim=dim_override)
    labels: dict[str, int] = {}
    for ex in data.examples:
        key = f"{ex.label:g}"
        labels[key] = labels.get(key, 0) + 1
    meta = {"path": str(path), "n": data.n, "dim": data.dim, "labels": labels}
    name = Path(path).name
    if name in KNOWN_DATASET_SHAPES:
        known_n, known_d = KNOWN_DATASET_SHAPES[name]
        meta["known_shape"] = {"n": known_n, "dim": known_d}
        meta["matches_known_shape"] = (data.n == known_n) and (data.dim == known_d)
    print(json.dumps(meta, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_run_stability(cfg: dict) -> int:
    exp = _experiment_config(cfg)
    result = run_stability_experiment(exp)
    overrides = [s for s in cfg.get("_overrides", "").split(";") if s]
    manifest = save_stability_result(result, exp.outdir, extra={"overrides": overrides})
    print(
        f"wrote {len(result.points)} grid CSVs and manifest.json to {exp.outdir} "
        f"(n_train={result.n_train}, dim={result.dim}, alpha={result.alpha:g}, "
        f"{result.wall_clock_s:.1f}s)"
    )
    for entry in manifest["grid"]:
        print(
            f"  {entry['csv']}: beta={entry['beta']:g} step={entry['step']:g} "
            f"censored={entry['censored']}"
        )
    return EXIT_OK


def _cmd_check_bounds(cfg: dict) -> int:
    exp = _experiment_config(cfg)
    data = load_experiment_data(exp)
    train, held = split_dataset(data, exp.fraction, exp.seed)
    alpha = smoothness(train, exp.loss).alpha
    samples = _get_int(cfg, "samples", 50)
    _require("samples", samples, samples >= 1, ">= 1")
    t_raw = cfg.get("t", "5n")
    if t_raw.endswith("n"):
        factor = t_raw[:-1] or "1"
        try:
            t = int(float(factor) * train.n)
        except ValueError:
            raise ConfigError(f"key 't': expected an integer or '<k>n', got {t_raw!r}") from None
    else:
        try:
            t = int(t_raw)
        except ValueError:
            raise ConfigError(f"key 't': expected an integer or '<k>n', got {t_raw!r}") from None
    _require("t", t_raw, t >= 1, "at least one step")
    variant = exp.variant
    reports = []
    failed = False
    for beta in exp.betas:
        if "step" in cfg:
            step = _get_float(cfg, "step")
            _require("step", step, 0 < step < math.inf, "finite and > 0")
        else:
            frac = _get_float(cfg, "step_fraction", 0.5)
            _require("step_fraction", frac, 0 < frac < math.inf, "finite and > 0")
            cap = max_eta_hb(beta, alpha) if variant == "hb" else max_gamma_nesterov(beta, alpha)
            step = frac * cap
        hp = variant_params(variant, step, beta, t)
        bound_variant = variant
        if variant == "nesterov" and beta == 0.0:
            bound_variant = "general"
        result = run_bound_check(
            train, held, exp.loss, hp, alpha, samples, exp.seed, bound_variant
        )
        reports.append({"beta": beta, "step": step, **result.to_dict()})
        if not result.holds:
            failed = True
        print(
            f"beta={beta:g} step={step:g}: empirical={result.empirical:.6g} "
            f"bound={result.theoretical:.6g} holds={result.holds} "
            f"ratio={result.margin_ratio:.3g}"
        )
    out = _outdir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "bound_check.json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
    if failed:
        raise CheckFailed("bound violated in at least one configuration")
    return EXIT_OK


def _cmd_verify_invariants(cfg: dict) -> int:
    betas = _get_floats(cfg, "betas", (0.0, 0.5, 0.9, 0.99))
    steps = _get_int(cfg, "check_steps", 1000)
    force_bug = cfg.get("force_bug", "")
    if force_bug not in ("", "y_identity"):
        raise ConfigError(f"force_bug must be empty or 'y_identity', got {force_bug!r}")
    kinds_raw = cfg.get("losses", ",".join(LOSS_KINDS))
    kinds = tuple(k.strip() for k in kinds_raw.split(",") if k.strip())
    for k in kinds:
        if k not in LOSS_KINDS:
            raise ConfigError(f"loss must be one of {LOSS_KINDS}, got {k!r}")
    data = None
    if cfg.get("dataset", "synthetic") != "synthetic":
        from .dataset import binarize

        data = binarize(load_libsvm(cfg["dataset"]))
    outcomes = run_invariant_suite(
        betas=betas,
        kinds=kinds,
        steps=steps,
        step_fraction=_get_float(cfg, "step_fraction", 0.5),
        seed=_get_int(cfg, "seed", 3),
        data=data,
        force_bug=force_bug,
    )
    report = [o.to_dict() for o in outcomes]
    out = _outdir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "invariants.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    n_pass = sum(1 for o in outcomes if o.status == "pass")
    n_skip = sum(1 for o in outcomes if o.status == "skip")
    n_fail = sum(1 for o in outcomes if o.status == "fail")
    for o in outcomes:
        if o.status == "fail":
            print(f"FAIL {o.name} {o.params}: observed {o.observed:g} vs {o.threshold:g}")
    print(f"{n_pass} passed, {n_skip} skipped, {n_fail} failed; report in {out / 'invariants.json'}")
    if n_fail:
        raise CheckFailed(f"{n_fail} invariant checks failed")
    return EXIT_OK


def _cmd_recipe(cfg: dict) -> int:
    variant = cfg.get("variant", "hb")
    if variant not in ("hb", "nesterov"):
        raise ConfigError(f"recipe variant must be hb or nesterov, got {variant!r}")
    recipe = epr_recipe(
        n=_get_int(cfg, "n"),
        beta=_get_float(cfg, "beta"),
        l_star=_get_float(cfg, "l_star"),
        variant=variant,
        alpha=_get_float(cfg, "alpha"),
    )
    print(json.dumps(recipe.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_plot(cfg: dict) -> int:
    if "inputs" not in cfg:
        raise ConfigError("missing required key 'inputs' (comma-separated CSV paths)")
    inputs = tuple(p.strip() for p in cfg["inputs"].split(",") if p.strip())
    output = cfg.get("output")
    if not output:
        output = str(_outdir(cfg) / "plot.svg")
        _outdir(cfg).mkdir(parents=True, exist_ok=True)
    spec = PlotSpec(
        inputs=inputs,
        output=output,
        title=cfg.get("title", ""),
        xlabel=cfg.get("xlabel", "epoch"),
        ylabel=cfg.get("ylabel", "mean distance"),
        logy=_get_bool(cfg, "logy", False),
    )
    emit_plot(spec)
    print(f"wrote {output}")
    return EXIT_OK


VERBS = {
    "parse-data": _cmd_parse_data,
    "run-stability": _cmd_run_stability,
    "check-bounds": _cmd_check_bounds,
    "verify-invariants": _cmd_verify_invariants,
    "recipe": _cmd_recipe,
    "plot": _cmd_plot,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgdm-stability", description=__doc__)
    parser.add_argument("verb", choices=sorted(VERBS))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--overrides",
        nargs="*",
        default=[],
        metavar="KEY=VALUE",
        help="config entries applied after the file is read",
    )
    return parser


def dispatch(cmd: Command) -> int:
    return VERBS[cmd.verb](cmd.config)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg = apply_overrides(cfg, args.overrides)
        cfg["_overrides"] = ";".join(args.overrides)
        return dispatch(Command(verb=args.verb, config=cfg))
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, DataError, OSError) as e:
        print(f"error: data: {e}", file=sys.stderr)
        return EXIT_DATA
    except PlotError as e:
        print(f"error: plot: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"error: divergence: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except PreconditionError as e:
        print(f"error: precondition: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except CheckFailed as e:
        print(f"error: check-failed: {e}", file=sys.stderr)
        return EXIT_REFUSED


def entry() -> None:
    sys.exit(main())
