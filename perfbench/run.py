"""Repository benchmark: `sgdm-stability` verbs run end to end, timed from outside.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-mushrooms --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Load model: a closed loop with one client.  Each invocation is one verb in a
fresh single process, started only after the previous one has exited.  The
package is run from `src/` without installing it.  `--seed` picks the
generated inputs (and the verb's own `seed` key), `--seconds` is how long
invocations keep being started, and `--trace 1` alternates traced and
untraced invocations to report per-layer figures instead of end-to-end ones.

The fixed task in `reference.py` runs before the first invocation and after
each one; reported times are scaled by it (see `end_to_end`), while the raw
times are printed and kept in the results file.  Every invocation's outputs
are checked against the values recorded at the seed commit in `golden.json`
(`--seed` modulo 10 picks one of ten recorded input variants).  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a fuller record (environment, input hashes, every sample) goes to
`.perfbench_work/results/`.  Run without the package source next to it, the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402

WORK = Path(".perfbench_work")
PACKAGE_CLI = Path("src/sgdm_stability/cli.py")
UNTRACED = (
    "import os, time\n"
    "from sgdm_stability.cli import entry\n"
    "ready = time.monotonic()\n"
    "with open(os.environ['PERFBENCH_READY'], 'w') as fh:\n"
    "    fh.write(repr(ready))\n"
    "if os.environ.get('PERFBENCH_VERB', '1') == '1':\n"
    "    entry()\n"
)
# fast-vs-reference tolerance stated by the test suite
RTOL, ATOL = 1e-9, 1e-12
# inputs cycle through this many variants, each with recorded outputs
VARIANTS = 10
SETUP_PROBES = 3
# Times are reported in seconds of a machine on which reference.py takes
# REF_S seconds: each sample is scaled by REF_S over the mean wall time of
# the reference runs just before and just after it.
REF_S = 0.8
RUN_BUDGET_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "traj_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def n_train(shape: str, max_train: int = 0) -> int:
    """Train rows after the verbs' default 0.8 split and optional cap."""
    n = math.floor(0.8 * gen.SHAPES[shape].n)
    return min(n, max_train) if max_train else n


@dataclass(frozen=True)
class Workload:
    verb: str
    shape: str | None  # generated LIBSVM input, or None for built-in data
    overrides: tuple[str, ...]
    traj_steps: int  # trajectory-steps one invocation completes
    grid_points: int = 0
    train_rows: int = 0
    csv_rows: int = 0


# sweep: 4 default steps x 4 reps on 6499 train rows, distances every 500 steps
# ingest: 20 reps x 2000 subsampled a9a rows, distances every 100 steps
# bound: one Monte Carlo sample of t = n_train coupled steps
# invariants: per loss kind, beta = 0 runs 4 reference trajectories and each
#   beta > 0 runs 9, all of check_steps steps: (4 + 3 * 9) * 2 * 2000
WORKLOADS = {
    "sweep-mushrooms": Workload(
        verb="run-stability",
        shape="mushrooms",
        overrides=("variant=hb", "betas=0.9", "reps=4", "epochs=1", "stride=500"),
        traj_steps=2 * 4 * 4 * n_train("mushrooms"),
        grid_points=4,
        train_rows=n_train("mushrooms"),
        csv_rows=n_train("mushrooms") // 500,
    ),
    "ingest-a9a": Workload(
        verb="run-stability",
        shape="a9a",
        overrides=(
            "max_train=2000", "reps=20", "variant=nesterov", "betas=0.9",
            "steps=0.01", "epochs=1", "stride=100",
        ),
        traj_steps=2 * 20 * 1 * n_train("a9a", 2000),
        grid_points=1,
        train_rows=n_train("a9a", 2000),
        csv_rows=n_train("a9a", 2000) // 100,
    ),
    "bound-mushrooms": Workload(
        verb="check-bounds",
        shape="mushrooms",
        overrides=("variant=hb", "betas=0.9", "t=1n", "samples=1"),
        traj_steps=2 * 1 * 1 * n_train("mushrooms"),
    ),
    "invariants-synth": Workload(
        verb="verify-invariants",
        shape=None,
        overrides=("check_steps=2000",),
        traj_steps=(4 + 3 * 9) * 2 * 2000,
    ),
}


# ---------------------------------------------------------------- outputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(name: str, outdir: Path) -> dict:
    """The checked outputs of one invocation, in the form golden.json holds."""
    w = WORKLOADS[name]
    if w.verb == "run-stability":
        manifest = json.loads((outdir / "manifest.json").read_text())
        series, digests, censored = {}, {}, 0
        for entry in manifest["grid"]:
            path = outdir / entry["csv"]
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            series[entry["csv"]] = {
                "mean_dist": [float(r["mean_dist"]) for r in rows],
                "std_dist": [float(r["std_dist"]) for r in rows],
            }
            censored += sum(int(r["censored_count"]) for r in rows)
            digests[entry["csv"]] = _sha256(path)
        return {
            "series": series,
            "csv_sha256": digests,
            "censored": censored,
            "n_train": manifest["dataset"]["n_train"],
            "dim": manifest["dataset"]["dim"],
        }
    if w.verb == "check-bounds":
        reports = json.loads((outdir / "bound_check.json").read_text())
        return {
            "reports": [
                {k: r[k] for k in ("beta", "empirical", "theoretical", "holds")} for r in reports
            ]
        }
    report = json.loads((outdir / "invariants.json").read_text())
    counts = {"pass": 0, "skip": 0, "fail": 0}
    for item in report:
        counts[item["status"]] = counts.get(item["status"], 0) + 1
    return {"status": counts}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def check(name: str, seen: dict, golden: dict | None, inputs: list[dict]) -> list[str]:
    """Problems with one invocation's outputs; empty when they are correct."""
    w = WORKLOADS[name]
    problems = []
    if golden is None:
        return ["no recorded outputs for this input variant"]
    recorded = {i["shape"]: i["sha256"] for i in golden.get("inputs", [])}
    for i in inputs:
        if recorded.get(i["shape"]) != i["sha256"]:
            problems.append(f"generated {i['shape']} input differs from the recorded one")
    if w.verb == "run-stability":
        if len(seen["series"]) != w.grid_points:
            problems.append(f"{len(seen['series'])} grid CSVs, expected {w.grid_points}")
        if seen["censored"]:
            problems.append(f"{seen['censored']} censored repetitions")
        shape = gen.SHAPES[w.shape]
        if seen["dim"] != shape.dim:
            problems.append(f"dim {seen['dim']}, expected {shape.dim}")
        if seen["n_train"] != w.train_rows:
            problems.append(f"n_train {seen['n_train']}, expected {w.train_rows}")
        for csv_name, cols in seen["series"].items():
            means, stds = cols["mean_dist"], cols["std_dist"]
            if len(means) != w.csv_rows:
                problems.append(f"{csv_name}: {len(means)} rows, expected {w.csv_rows}")
            if not all(math.isfinite(v) for v in means + stds):
                problems.append(f"{csv_name}: non-finite mean_dist or std_dist")
            ref = golden["series"].get(csv_name, {}).get("mean_dist")
            if ref is None or len(ref) != len(means) or not all(map(_close, means, ref)):
                problems.append(f"{csv_name}: mean_dist differs from the recorded values")
    elif w.verb == "check-bounds":
        ref = golden["reports"]
        if len(seen["reports"]) != len(ref):
            problems.append(f"{len(seen['reports'])} bound reports, expected {len(ref)}")
        for got, want in zip(seen["reports"], ref):
            if got["holds"] is not True:
                problems.append(f"beta={got['beta']}: bound does not hold")
            for key in ("empirical", "theoretical"):
                if not _close(got[key], want[key]):
                    problems.append(f"beta={got['beta']}: {key} {got[key]!r} != recorded {want[key]!r}")
    else:
        if seen["status"].get("fail", 0):
            problems.append(f"{seen['status']['fail']} invariant checks failed")
        for key in ("pass", "skip"):
            if seen["status"].get(key, 0) != golden["status"][key]:
                problems.append(f"{seen['status'].get(key, 0)} checks {key}, recorded {golden['status'][key]}")
    return problems


# ---------------------------------------------------------------- processes


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def launch(argv: list[str], env: dict, log: Path, timeout_s: float) -> dict:
    """Run one process to completion; wall time, peak RSS and exit code.

    The child is reaped with wait4 so its own peak RSS is read; SIGALRM
    bounds the wait, and a child still running then is killed and reaped.
    """
    with open(log, "w", encoding="utf-8") as out:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(max(1, int(timeout_s)))
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "launch": start,
        "exit": end,
        "wall_s": end - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "timed_out": timed_out,
    }


def child_env(extra: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def _read_float(path: Path) -> float | None:
    try:
        return float(path.read_text())
    except (OSError, ValueError):
        return None


def reference(work: Path, timeout_s: float) -> float:
    """Wall time of one run of the fixed reference task."""
    sample = launch([sys.executable, str(HERE / "reference.py")], child_env({}), work / "ref.log", timeout_s)
    if sample["exit_code"] != 0:
        raise SystemExit(f"error: reference task failed; see {work / 'ref.log'}")
    return sample["wall_s"]


def setup_probe(work: Path, timeout_s: float) -> float | None:
    """Launch-to-ready time of one process that imports the CLI and exits."""
    ready = work / "probe.ready"
    ready.unlink(missing_ok=True)
    env = child_env({"PERFBENCH_READY": str(ready), "PERFBENCH_VERB": "0"})
    sample = launch([sys.executable, "-c", UNTRACED], env, work / "probe.log", timeout_s)
    t = _read_float(ready)
    if sample["exit_code"] != 0 or t is None:
        return None
    return t - sample["launch"]


def invoke(name: str, work: Path, args: list[str], traced: bool, timeout_s: float) -> dict:
    """One verb invocation with a fresh output directory."""
    w = WORKLOADS[name]
    outdir = work / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    ready, spans = work / "verb.ready", work / "spans.json"
    ready.unlink(missing_ok=True)
    spans.unlink(missing_ok=True)
    verb_args = [w.verb, "--overrides", *args, f"outdir={outdir}"]
    if traced:
        argv = [sys.executable, str(HERE / "tracehook.py"), *verb_args]
        env = child_env({"PERFBENCH_SPANS": str(spans)})
    else:
        argv = [sys.executable, "-c", UNTRACED, *verb_args]
        env = child_env({"PERFBENCH_READY": str(ready)})
    sample = launch(argv, env, work / "verb.log", timeout_s)
    sample["traced"] = traced
    if traced:
        try:
            sample["trace"] = json.loads(spans.read_text())
        except (OSError, ValueError):
            sample["trace"] = None
    else:
        t = _read_float(ready)
        sample["setup_s"] = None if t is None else t - sample["launch"]
    try:
        sample["outputs"] = observe(name, outdir)
    except (OSError, ValueError, KeyError) as e:
        sample["outputs"] = None
        sample["observe_error"] = repr(e)
    sample["log_tail"] = (work / "verb.log").read_text(errors="replace")[-2000:]
    return sample


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            env[key.strip()] = value.strip()
    return env


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if >= p50."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p < 50:
        return None
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def end_to_end(name: str, samples: list[dict], probes: list[float]) -> dict:
    """End-to-end metrics of one run: medians of reference-scaled samples.

    On the shared 2-vCPU machines this benchmark was built on, the same
    process runs up to twice as slow for stretches of seconds to minutes
    (host contention the guest cannot see; it reports no steal time), so raw
    wall times of runs made a minute apart differ by more than any bound a
    change could be held to.  Over 20 s windows of alternating check-bounds
    and reference runs, the quartile spread of the window medians was 0.16 of
    the median for raw wall time and 0.06 for the reference-scaled one.
    """
    walls = [s["wall_s"] * s["scale"] for s in samples]
    setups = probes + [s["setup_s"] * s["scale"] for s in samples if s.get("setup_s") is not None]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "traj_steps_per_s": WORKLOADS[name].traj_steps / wall,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def print_report(name: str, metrics: dict, samples: list[dict], failed: int, trace: bool) -> None:
    print(f"== {name}: {len(samples)} invocations, {failed} failed, "
          f"failed_ratio = {failed / max(1, len(samples)):.4g} fraction")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
    for kind, scaled in (("scaled", True), ("raw", False)):
        walls = [s["wall_s"] * (s["scale"] if scaled else 1.0) for s in samples if s["traced"] == trace]
        tail = tail_percentile(walls)
        tail_text = "n/a, needs 20 or more samples" if tail is None else f"p{tail[0]} {tail[1]:.6g} s"
        print(f"  {'traced' if trace else 'untraced'} wall, {kind}, {len(walls)} samples: "
              f"median {statistics.median(walls):.6g} s, min {min(walls):.6g} s, tail {tail_text}")
    refs = [s["ref_s"] for s in samples]
    print(f"  reference task: median {statistics.median(refs):.6g} s (scaled to {REF_S} s)")


def prepare(name: str, variant: int, work: Path) -> tuple[list[dict], list[str]]:
    """Generate a workload's inputs in `work`; returns them and the verb's overrides."""
    w = WORKLOADS[name]
    inputs = [gen.write_input(w.shape, variant, work)] if w.shape else []
    return inputs, [*w.overrides, f"seed={variant}", *(f"dataset={i['path']}" for i in inputs)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    w = WORKLOADS[name]
    variant = seed % VARIANTS
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # set-up, excluded from every metric except setup_s: inputs, then probes
    inputs, args = prepare(name, variant, work)
    refs = [reference(work, 60)]
    raw_probes = []
    for _ in range(SETUP_PROBES):
        t = setup_probe(work, 60)
        if t is None:
            raise SystemExit(f"error: cannot import sgdm_stability.cli from src/; see {work / 'probe.log'}")
        raw_probes.append(t)
    refs.append(reference(work, 60))
    probes = [t * REF_S * 2 / (refs[0] + refs[1]) for t in raw_probes]

    golden = json.loads((HERE / "golden.json").read_text()).get(name, {}).get(str(variant))
    samples = []
    t0 = time.monotonic()
    while not samples or time.monotonic() - t0 < seconds or (trace and len(samples) < 2):
        traced = trace and len(samples) % 2 == 0
        remaining = deadline - time.monotonic()
        if remaining < 15:
            break
        sample = invoke(name, work, args, traced, remaining - 10)
        refs.append(reference(work, 10))
        sample["ref_s"] = (refs[-2] + refs[-1]) / 2
        sample["scale"] = REF_S / sample["ref_s"]
        samples.append(sample)

    failed = 0
    first_digests = None
    for s in samples:
        problems = []
        if s["exit_code"] != 0:
            problems.append(f"exit code {s['exit_code']}" + (" (timed out)" if s["timed_out"] else ""))
        if s["outputs"] is None:
            problems.append(f"outputs unreadable: {s.get('observe_error')}")
        else:
            problems += check(name, s["outputs"], golden, inputs)
            digests = s["outputs"].get("csv_sha256")
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                problems.append("CSV bytes differ from the first invocation of this run")
        s["problems"] = problems
        failed += bool(problems)

    if trace:
        traced = [s for s in samples if s["traced"]]
        plain = [s for s in samples if not s["traced"]]
        metrics = layers.per_layer(traced, plain)
    else:
        metrics = end_to_end(name, samples, probes)
    print_report(name, metrics, samples, failed, trace)
    for i in inputs:
        print(f"  input {Path(i['path']).name}: {i['n']} rows, dim {i['dim']}, {i['nnz']} nonzeros, "
              f"{i['bytes']} bytes, sha256 {i['sha256']}")
    for s in samples:
        for p in s["problems"]:
            print(f"  FAILED: {p}")

    result = {
        "workload": name,
        "seed": seed,
        "input_variant": variant,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": inputs,
        "verb_args": [w.verb, *args],
        "setup_probes_s": raw_probes,
        "reference_s": refs,
        "samples": [{k: v for k, v in s.items() if k not in ("trace", "outputs")} for s in samples],
        "metrics": metrics,
        "attempted": len(samples),
        "failed": failed,
        "elapsed_s": time.monotonic() - started,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE_CLI.is_file():
        print(f"error: {PACKAGE_CLI} not found; run from the repository root", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"environment: {json.dumps(results[0]['environment'], sort_keys=True)}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
