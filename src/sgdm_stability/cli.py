"""Command-line front end.

Verbs: parse-data, run-stability, check-bounds, verify-invariants, recipe,
plot.  Each reads the keys its table in KEYS declares from a flat key=value
config file (``#`` comments allowed) and ``--overrides key=value ...`` on the
command line, which win; any other key is a config error.

Exit codes: 0 success, 1 usage error, 2 data or config error (including a
size that cannot be allocated), 3 divergence, refused theorem precondition, or
failed verification.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from .dataset import DataError, KNOWN_DATASET_SHAPES, ParseError, binarize, load_libsvm
from .harness import (
    ConfigError,
    ExperimentConfig,
    PreconditionError,
    grid_points,
    json_text,
    run_bound_checks,
    run_stability_experiment,
    save_stability_result,
    write_json,
)
from .losses import LOSS_KINDS, smoothness
from .optimizer import DivergenceError
from .theory import VARIANTS, epr_recipe

OUTDIR_ENV = "SGDM_STABILITY_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REFUSED = 3


class CheckFailed(RuntimeError):
    pass


def load_config(path) -> dict:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
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


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _boolean(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _horizon(text: str) -> tuple[float, bool]:
    """`t` as (k, per_n): '<k>n' is k times the train size (k = 1 when left
    out), anything else an integer count."""
    if text.endswith("n"):
        return float(text[:-1] or "1"), True
    return int(text), False


def _outdir(text: str) -> str:
    return str(Path(text or os.environ.get(OUTDIR_ENV) or "out"))


_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key a verb reads.

    `default` is raw text, read like a given value; `_REQUIRED` means the key
    must be given, None that it may be left out (its value is then None).  A
    value is accepted when `parse` returns without ValueError and `ok` holds
    for the result; otherwise the message says what was `expected`.  A key
    given together with its `unless` key is an error.
    """

    parse: Callable[[str], object]
    default: object
    expected: str
    ok: Callable[[object], bool] = lambda value: True
    unless: str | None = None

    def read(self, name: str, cfg: dict):
        if name in cfg and self.unless in cfg:
            raise ConfigError(f"key {name!r}: not read when {self.unless!r} is given")
        raw = cfg.get(name, self.default)
        if raw is _REQUIRED:
            raise ConfigError(f"missing required key {name!r}: expected {self.expected}")
        if raw is None:
            return None
        try:
            value = self.parse(raw)
            if self.ok(value):
                return value
        except ValueError:
            pass
        raise ConfigError(f"key {name!r}: expected {self.expected}, got {raw!r}")


def _integer(default, least: int, note: str = "") -> Key:
    return Key(int, default, f"an integer >= {least}{note}", lambda v: v >= least)


def _positive(default) -> Key:
    return Key(float, default, "a finite number > 0", lambda v: 0 < v < math.inf)


def _choice(default, choices: tuple[str, ...]) -> Key:
    return Key(str, default, f"one of {choices}", lambda v: v in choices)


# The keys run-stability, check-bounds and verify-invariants share; the first
# two read all of them, and they are the ExperimentConfig fields of the same
# name.
SHARED = {
    "dataset": Key(str, _REQUIRED, "a LIBSVM file path or 'synthetic'"),
    "loss": _choice("logistic", LOSS_KINDS),
    "variant": _choice("hb", VARIANTS),
    "betas": Key(_numbers, "0.9", "comma-separated numbers in [0, 1)",
                 lambda v: v and all(0 <= b < 1 for b in v)),
    "seed": _integer("0", 0),
    "fraction": Key(float, "0.8", "a number in (0, 1)", lambda v: 0 < v < 1),
    "synth_n": _integer("1000", 1),
    "synth_dim": _integer("20", 1),
    "outdir": Key(_outdir, "", f"a directory (default ${OUTDIR_ENV}, then ./out)"),
}
STEP_FRACTION = _positive("0.5")

KEYS = {
    "parse-data": {
        "dataset": Key(str, _REQUIRED, "a LIBSVM file path"),
        "dim": _integer("0", 0, " (0 means the largest index in the file)"),
    },
    "run-stability": {
        **SHARED,
        "steps": Key(_numbers, "0.001,0.005,0.025,0.1", "comma-separated finite numbers > 0",
                     lambda v: v and all(0 < s < math.inf for s in v)),
        "reps": _integer("100", 1),
        "epochs": _integer("5", 1),
        "stride": _integer("0", 0, " (0 means once per epoch)"),
        "max_train": _integer("0", 0, " (0 means no cap)"),
    },
    "check-bounds": {
        **SHARED,
        "samples": _integer("50", 1),
        "t": Key(_horizon, "5n", "an integer or '<k>n' with a finite k", lambda v: math.isfinite(v[0])),
        "step": _positive(None),
        "step_fraction": replace(STEP_FRACTION, unless="step"),
    },
    "verify-invariants": {
        "dataset": replace(SHARED["dataset"], default="synthetic"),
        "betas": replace(SHARED["betas"], default="0,0.5,0.9,0.99"),
        "seed": replace(SHARED["seed"], default="3"),
        "outdir": SHARED["outdir"],
        "losses": Key(_names, ",".join(LOSS_KINDS), f"a comma list from {LOSS_KINDS}",
                      lambda v: v and all(k in LOSS_KINDS for k in v)),
        "check_steps": _integer("1000", 1),
        "step_fraction": STEP_FRACTION,
    },
    "recipe": {
        "n": _integer(_REQUIRED, 1),
        "beta": Key(float, _REQUIRED, "a number in [0, 1)", lambda v: 0 <= v < 1),
        "l_star": Key(float, _REQUIRED, "a finite number >= 0", lambda v: 0 <= v < math.inf),
        "alpha": _positive(_REQUIRED),
        "variant": _choice("hb", ("hb", "nesterov")),
    },
    "plot": {
        "inputs": Key(_names, _REQUIRED, "comma-separated CSV paths"),
        "output": Key(str, "", "an SVG path (default <outdir>/plot.svg)"),
        "title": Key(str, "", "text"),
        "xlabel": Key(str, "epoch", "text"),
        "ylabel": Key(str, "mean distance", "text"),
        "logy": Key(_boolean, "false", "a boolean"),
        "outdir": SHARED["outdir"],
    },
}


def read_config(verb: str, cfg: dict) -> dict:
    """The values of every key `verb` reads, parsed and range-checked; a key
    it does not read is an error."""
    keys = KEYS[verb]
    for name in cfg:
        if name not in keys:
            raise ConfigError(f"key {name!r}: not read by {verb} (it reads {', '.join(sorted(keys))})")
    return {name: key.read(name, cfg) for name, key in keys.items()}


def _experiment_config(cfg: dict, **run) -> ExperimentConfig:
    return ExperimentConfig(**{name: cfg[name] for name in SHARED}, **run)


def _cmd_parse_data(cfg: dict, overrides: list[str]) -> int:
    path = cfg["dataset"]
    data = load_libsvm(path, dim=cfg["dim"] or None)
    labels = dict(Counter(f"{y:g}" for y in data.labels.tolist()))
    meta = {"path": str(path), "n": data.n, "dim": data.dim, "labels": labels}
    name = Path(path).name
    if name in KNOWN_DATASET_SHAPES:
        known_n, known_d = KNOWN_DATASET_SHAPES[name]
        meta["known_shape"] = {"n": known_n, "dim": known_d}
        meta["matches_known_shape"] = (data.n == known_n) and (data.dim == known_d)
    print(json_text(meta))
    return EXIT_OK


def _cmd_run_stability(cfg: dict, overrides: list[str]) -> int:
    exp = _experiment_config(
        cfg, steps=cfg["steps"], repetitions=cfg["reps"], epochs=cfg["epochs"],
        stride=cfg["stride"] or None, max_train=cfg["max_train"] or None,
    )
    result = run_stability_experiment(exp)
    manifest = save_stability_result(result, exp.outdir, extra={"overrides": overrides})
    print(
        f"wrote {len(result.points)} grid CSVs and manifest.json to {exp.outdir} "
        f"(n_train={result.n_train}, dim={result.dim}, alpha={result.alpha:g}, "
        f"{result.wall_clock_s:.1f}s)"
    )
    for entry in manifest["grid"]:
        print(
            f"  {entry['csv']}: beta={entry['beta']!r} step={entry['step']:g} "
            f"censored={entry['censored']}"
        )
    return EXIT_OK


def _cmd_check_bounds(cfg: dict, overrides: list[str]) -> int:
    exp = _experiment_config(cfg)
    checks = run_bound_checks(exp, cfg["samples"], cfg["t"], cfg["step"], cfg["step_fraction"])
    for result in checks:
        print(
            f"beta={result.beta!r} step={result.step:g}: empirical={result.empirical:.6g} "
            f"bound={result.theoretical:.6g} holds={result.holds} "
            f"ratio={result.margin_ratio:.3g}"
        )
    out = Path(exp.outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "bound_check.json", [result.to_dict() for result in checks])
    if not all(result.holds for result in checks):
        raise CheckFailed("bound violated in at least one configuration")
    return EXIT_OK


def _cmd_verify_invariants(cfg: dict, overrides: list[str]) -> int:
    from .verification import run_invariant_suite

    kinds = cfg["losses"]
    data = None
    if cfg["dataset"] != "synthetic":
        data = binarize(load_libsvm(cfg["dataset"]))
        if any(smoothness(data, k).alpha == 0.0 for k in kinds):
            raise ConfigError("key 'dataset': alpha = 0 (no row has a nonzero value), so there is no step cap")
    outcomes = run_invariant_suite(
        betas=cfg["betas"], kinds=kinds, steps=cfg["check_steps"], step_fraction=cfg["step_fraction"],
        seed=cfg["seed"], data=data,
    )
    report = [o.to_dict() for o in outcomes]
    out = Path(cfg["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "invariants.json", report)
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


def _cmd_recipe(cfg: dict, overrides: list[str]) -> int:
    recipe = epr_recipe(**cfg)
    # a cap or step that maps to no update is refused as a step is: alpha so
    # large that the cap rounds to 0, or n * l_star so large that rho overflows
    grid_points(cfg["variant"], (cfg["beta"],), [(recipe.cap,)], recipe.t, "alpha")
    grid_points(cfg["variant"], (cfg["beta"],), [(recipe.step,)], recipe.t, "l_star")
    print(json_text(recipe.to_dict()))
    return EXIT_OK


def _cmd_plot(cfg: dict, overrides: list[str]) -> int:
    from .plotting import PlotError, PlotSpec, emit_plot

    output = cfg["output"] or str(Path(cfg["outdir"]) / "plot.svg")
    try:
        emit_plot(PlotSpec(
            inputs=cfg["inputs"], output=output, title=cfg["title"],
            xlabel=cfg["xlabel"], ylabel=cfg["ylabel"], logy=cfg["logy"],
        ))
    except PlotError as e:
        print(f"error: plot: {e}", file=sys.stderr)
        return EXIT_DATA
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = apply_overrides(load_config(args.config) if args.config else {}, args.overrides)
        return VERBS[args.verb](read_config(args.verb, cfg), args.overrides)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        print(f"error: config: a size that cannot be allocated: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ParseError, DataError, OSError) as e:
        print(f"error: data: {e}", file=sys.stderr)
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
    # the objects imports made live until exit: frozen, the exit-time
    # collections and verify-invariants' forked workers do not walk them
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
