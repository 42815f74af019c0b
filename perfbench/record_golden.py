"""Record the reference outputs that `run.py` checks every invocation against.

Usage, from the repository root:

    python3 perfbench/record_golden.py

Runs each workload once per input variant, untraced, and writes
`perfbench/golden.json`.  The recorded values are the seed commit's outputs:
re-record only in a change that is meant to alter the verbs' results, and say
so, because a re-recorded file no longer checks that a speed change kept the
numbers.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record(name: str, variant: int) -> dict:
    w = run.WORKLOADS[name]
    work = run.WORK / f"golden-{name}-{variant}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, args = run.prepare(name, variant, work)
    sample = run.invoke(name, work, args, traced=False, timeout_s=170)
    if sample["exit_code"] != 0 or sample["outputs"] is None:
        raise SystemExit(f"{name} variant {variant} failed:\n{sample['log_tail']}")
    seen = sample["outputs"]
    golden = {"inputs": [{k: i[k] for k in ("shape", "sha256", "bytes", "n", "dim", "nnz")} for i in inputs]}
    if w.verb == "run-stability":
        golden["series"] = {k: {"mean_dist": v["mean_dist"]} for k, v in seen["series"].items()}
    elif w.verb == "check-bounds":
        golden["reports"] = seen["reports"]
    else:
        golden["status"] = seen["status"]
    problems = run.check(name, seen, golden, inputs)
    if problems:
        raise SystemExit(f"{name} variant {variant}: {problems}")
    shutil.rmtree(work, ignore_errors=True)
    return golden


def main() -> None:
    out = {}
    for name in run.WORKLOADS:
        out[name] = {}
        for variant in range(run.VARIANTS):
            out[name][str(variant)] = record(name, variant)
            print(name, variant, file=sys.stderr, flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
