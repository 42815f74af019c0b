"""Per-layer figures from the spans of traced invocations.

A span's self time is its duration minus the durations of its direct
children (spans nest by call order in one thread, so children never
overlap).  Each span belongs to the layer named by its prefix, the package
module that defines the function.  Process start-up (launch until the verb is
entered) and teardown (verb return until exit, including the span dump) are
their own buckets, so for every traced invocation the self times add up to
its wall time exactly; `trace.self_sum_s` reports that sum.

Function-level figures (`*_s` named after a function) are inclusive
durations.  A layer or function a workload never calls reports 0.  Times and
rates are scaled by the same reference factor as the end-to-end metrics.
"""

from __future__ import annotations

import statistics

LAYERS = ("dataset", "losses", "optimizer", "harness", "theory", "verification", "cli")
REFERENCE = ("optimizer.run", "optimizer.run_lookahead", "optimizer.coupled_run")
BOUND = (
    "theory.check_stab_condition", "theory.check_opt_condition", "theory.stability_bound",
    "theory.max_eta_hb", "theory.max_gamma_nesterov",
)
VERIFIERS = (
    "theory.auxiliary_sequence", "theory.verify_y_identity", "theory.verify_dist_identity",
    "theory.verify_m_recursion_bound",
)
LEMMA_CHECKS = (
    "verification.check_self_bounding", "verification.check_co_coercivity",
    "verification.check_convexity", "verification.check_gradient_fd",
)

UNITS = {
    "optimizer.coupled_series_s": "s",
    "optimizer.coupled_series_first_point_s": "s",
    "optimizer.coupled_series_rest_s": "s",
    "optimizer.coupled_us_per_traj_step": "us",
    "optimizer.coupled_series_calls": "count",
    "optimizer.reference_run_s": "s",
    "optimizer.reference_us_per_traj_step": "us",
    "optimizer.diverged": "count",
    "optimizer.diverged_ratio": "fraction",
    "optimizer.self_s": "s",
    "dataset.load_libsvm_s": "s",
    "dataset.parse_mb_per_s": "MB/s",
    "dataset.binarize_s": "s",
    "dataset.split_s": "s",
    "dataset.split_calls": "count",
    "dataset.make_neighbor_s": "s",
    "dataset.rows_s": "s",
    "dataset.self_s": "s",
    "losses.smoothness_s": "s",
    "losses.empirical_risk_many_s": "s",
    "losses.risk_margins_per_s": "1/s",
    "losses.risk_bytes_computed": "B",
    "losses.self_s": "s",
    "harness.self_s": "s",
    "harness.aggregate_s": "s",
    "harness.save_s": "s",
    "harness.run_bound_check_self_s": "s",
    "theory.bound_s": "s",
    "theory.verifiers_s": "s",
    "theory.self_s": "s",
    "verification.lemma_checks_s": "s",
    "verification.trajectory_checks_s": "s",
    "verification.self_s": "s",
    "verification.checks": "count",
    "verification.failed": "count",
    "cli.self_s": "s",
    "process.startup_s": "s",
    "process.teardown_s": "s",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def invocation(sample: dict) -> dict:
    """Per-layer figures of one traced invocation."""
    spans = [
        {"name": s[0], "parent": s[1], "dur": s[3] - s[2], "error": s[4], "note": s[5] or {}}
        for s in sample["trace"]["spans"]
    ]
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["dur"]
    for s, c in zip(spans, children):
        s["self"] = s["dur"] - c
    root = next(s for s in sample["trace"]["spans"] if s[0] == "cli.entry")

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names, key="dur"):
        return sum(s[key] for s in named(*names))

    def layer_self(layer):
        return sum(s["self"] for s in spans if s["name"].split(".")[0] == layer)

    coupled = named("optimizer.coupled_distance_series")
    first_point = coupled[0]["note"].get("point") if coupled else None
    coupled_s = sum(s["dur"] for s in coupled)
    coupled_first = sum(s["dur"] for s in coupled if s["note"].get("point") == first_point)
    coupled_steps = sum(s["note"].get("traj_steps", 0) for s in coupled)

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] >= 0 else ""

    reference_s = sum(s["dur"] for s in named(*REFERENCE) if parent_name(s) not in REFERENCE)
    reference_steps = sum(
        s["note"].get("traj_steps", 0) for s in named("optimizer.run", "optimizer.run_lookahead")
    )
    top_optimizer = [
        s for s in spans
        if s["name"].startswith("optimizer.") and not parent_name(s).startswith("optimizer.")
    ]
    diverged = sum(s["error"] == "DivergenceError" for s in top_optimizer)
    load_s = total("dataset.load_libsvm")
    load_bytes = sum(s["note"].get("bytes", 0) for s in named("dataset.load_libsvm"))
    risk_s = total("losses.empirical_risk_many")
    margins = sum(s["note"].get("margins", 0) for s in named("losses.empirical_risk_many"))
    statuses: dict[str, int] = {}
    for s in named("verification.run_invariant_suite"):
        for k, v in s["note"].get("status", {}).items():
            statuses[k] = statuses.get(k, 0) + v
    trajectory_checks = {
        s["name"] for s in spans
        if s["name"].startswith("verification.check_") and s["name"] not in LEMMA_CHECKS
    }

    startup = root[2] - sample["launch"]
    teardown = sample["exit"] - root[3]
    out = {
        "optimizer.coupled_series_s": coupled_s,
        "optimizer.coupled_series_first_point_s": coupled_first,
        "optimizer.coupled_series_rest_s": coupled_s - coupled_first,
        "optimizer.coupled_us_per_traj_step": 1e6 * _ratio(coupled_s, coupled_steps),
        "optimizer.coupled_series_calls": len(coupled),
        "optimizer.reference_run_s": reference_s,
        "optimizer.reference_us_per_traj_step": 1e6 * _ratio(reference_s, reference_steps),
        "optimizer.diverged": diverged,
        "optimizer.diverged_ratio": _ratio(diverged, len(top_optimizer)),
        "optimizer.self_s": layer_self("optimizer"),
        "dataset.load_libsvm_s": load_s,
        "dataset.parse_mb_per_s": _ratio(load_bytes / 1e6, load_s),
        "dataset.binarize_s": total("dataset.binarize"),
        "dataset.split_s": total("dataset.split"),
        "dataset.split_calls": len(named("dataset.split")),
        "dataset.make_neighbor_s": total("dataset.make_neighbor"),
        "dataset.rows_s": total("dataset.Dataset.rows"),
        "dataset.self_s": layer_self("dataset"),
        "losses.smoothness_s": total("losses.smoothness"),
        "losses.empirical_risk_many_s": risk_s,
        "losses.risk_margins_per_s": _ratio(margins, risk_s),
        "losses.risk_bytes_computed": 8 * margins,
        "losses.self_s": layer_self("losses"),
        "harness.self_s": layer_self("harness"),
        "harness.aggregate_s": total("harness.aggregate"),
        "harness.save_s": total("harness.save_stability_result"),
        "harness.run_bound_check_self_s": total("harness.run_bound_check", key="self"),
        "theory.bound_s": total(*BOUND),
        "theory.verifiers_s": total(*VERIFIERS),
        "theory.self_s": layer_self("theory"),
        "verification.lemma_checks_s": total(*LEMMA_CHECKS),
        "verification.trajectory_checks_s": total(*trajectory_checks),
        "verification.self_s": layer_self("verification"),
        "verification.checks": sum(statuses.values()),
        "verification.failed": statuses.get("fail", 0),
        "cli.self_s": layer_self("cli"),
        "process.startup_s": startup,
        "process.teardown_s": teardown,
        "trace.wall_s": sample["wall_s"],
        "trace.self_sum_s": startup + sum(layer_self(layer) for layer in LAYERS) + teardown,
        "trace.spans": len(spans),
        # filled in by per_layer from the untraced invocations
        "trace.untraced_wall_s": 0.0,
        "trace.overhead_s": 0.0,
    }
    return out


def _scaled(row: dict, factor: float) -> dict:
    """Times multiplied and rates divided by the reference scale factor."""
    out = {}
    for k, v in row.items():
        unit = UNITS[k]
        out[k] = v * factor if unit in ("s", "us") else v / factor if unit in ("MB/s", "1/s") else v
    return out


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Reference-scaled figures of the run's median traced invocation, so its
    self times add up to the reported `trace.wall_s`; the overhead is taken
    against the median scaled wall time of the run's untraced invocations."""
    rows = [_scaled(invocation(s), s["scale"]) for s in traced if s.get("trace")]
    values = dict.fromkeys(UNITS, 0.0)
    if rows:
        rows.sort(key=lambda r: r["trace.wall_s"])
        values = rows[(len(rows) - 1) // 2]
    if rows and plain:
        values["trace.untraced_wall_s"] = statistics.median(s["wall_s"] * s["scale"] for s in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
