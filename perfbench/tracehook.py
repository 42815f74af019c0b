"""Traced launcher: run one `sgdm-stability` verb with spans around layer calls.

Usage (from the repository root, with the package on PYTHONPATH):

    PERFBENCH_SPANS=spans.json python perfbench/tracehook.py VERB --overrides ...

Each public function in TARGETS is replaced, wherever a package module looks
it up by name, with a wrapper that records a span (name, start, end, parent,
error, notes).  Spans stay in memory and are written as JSON when the verb
exits.  Times come from the system-wide monotonic clock, so the parent can
place them against its own launch and exit times.  Functions a later version
of the package no longer has are skipped, not treated as errors.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "sgdm_stability"


def _suite_status(args, result):
    counts: dict[str, int] = {}
    for outcome in result:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return {"status": counts}


# (module, attribute, note).  A note maps the call's bound arguments and its
# result to counts stored on the span.  Hot per-step helpers (loss_grad,
# sgdm_step, margin) are deliberately absent: a span per step would cost more
# than the step and hide the layers being measured.
TARGETS = [
    ("dataset", "load_libsvm", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("dataset", "binarize", None),
    ("dataset", "split", None),
    ("dataset", "make_neighbor", None),
    ("dataset", "synthetic_binary_dataset", None),
    ("dataset", "Dataset.rows", None),
    ("dataset", "Dataset.matrix", None),
    ("losses", "smoothness", None),
    (
        "losses", "empirical_risk_many",
        lambda a, r: {"margins": a["d"].n * (len(a["w_rows"]) if getattr(a["w_rows"], "ndim", 2) > 1 else 1)},
    ),
    (
        "optimizer", "coupled_distance_series",
        lambda a, r: {"traj_steps": 2 * a["hp"].iterations, "point": [a["hp"].beta, a["hp"].gamma, a["hp"].eta]},
    ),
    ("optimizer", "coupled_run", None),
    ("optimizer", "run", lambda a, r: {"traj_steps": a["hp"].iterations}),
    ("optimizer", "run_lookahead", lambda a, r: {"traj_steps": a["iterations"]}),
    ("optimizer", "momentum_buffers", None),
    ("harness", "load_experiment_data", None),
    ("harness", "run_stability_experiment", None),
    ("harness", "run_repetition", None),
    ("harness", "aggregate", None),
    ("harness", "save_stability_result", None),
    ("harness", "run_bound_check", None),
    ("harness", "variant_params", None),
    ("theory", "check_stab_condition", None),
    ("theory", "check_opt_condition", None),
    ("theory", "stability_bound", None),
    ("theory", "max_eta_hb", None),
    ("theory", "max_gamma_nesterov", None),
    ("theory", "auxiliary_sequence", None),
    ("theory", "verify_y_identity", None),
    ("theory", "verify_dist_identity", None),
    ("theory", "verify_m_recursion_bound", None),
    ("verification", "run_invariant_suite", _suite_status),
    ("verification", "check_self_bounding", None),
    ("verification", "check_co_coercivity", None),
    ("verification", "check_convexity", None),
    ("verification", "check_gradient_fd", None),
    ("verification", "check_y_identity", None),
    ("verification", "check_dist_identity", None),
    ("verification", "check_m_recursion", None),
    ("verification", "check_beta_zero_reduction", None),
    ("verification", "check_nesterov_equivalence", None),
    ("verification", "check_momentum_unrolling", None),
]


class Tracer:
    """In-memory span recorder; spans nest by call order in one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                t1 = time.monotonic()
                stack.pop()
                spans[sid] = [name, parent, t0, t1, error, None]
            if note is not None:
                # a note that no longer fits the package's signatures must
                # not break the verb being measured
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    spans[sid][5] = note(bound.arguments, result)
                except Exception as e:
                    spans[sid][5] = {"note_error": repr(e)}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, attr, note in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{layer}.{attr}"
            if owner_name:
                owner = getattr(module, owner_name, None)
                prop = vars(owner).get(fn_name) if owner is not None else None
                if not isinstance(prop, functools.cached_property):
                    continue
                wrapped = functools.cached_property(self.wrap(name, prop.func))
                wrapped.__set_name__(owner, fn_name)
                setattr(owner, fn_name, wrapped)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                continue
            wrapper = self.wrap(name, fn, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)


def main() -> None:
    from sgdm_stability.cli import entry

    tracer = Tracer()
    tracer.install()
    run_verb = tracer.wrap("cli.entry", entry)
    code = 0
    try:
        run_verb()
    except SystemExit as e:
        code = e.code
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
