"""Shared pytest configuration.

Collects the acceptance tests' outcomes and prints one line per criterion at
the end of the run, so a full-suite invocation doubles as the acceptance
report.  Also holds `reference_pair`, the reference the batched kernel is
tested against.
"""

import numpy as np

from sgdm_stability.dataset import make_neighbor
from sgdm_stability.optimizer import run

CRITERIA = {
    "test_c01_exact_identity_suite": "exact y/dist identities over the beta grid",
    "test_c02_nesterov_two_form_equivalence": "Nesterov momentum form matches look-ahead form",
    "test_c03_beta_zero_reduction": "beta=0 run equals plain SGD with step gamma+eta",
    "test_c04_loss_lemma_suite": "self-bounding, co-coercivity, convexity, gradient FD",
    "test_c05_momentum_recursion_inequality": "coupled momentum-difference bound margins",
    "test_c06_stability_bound_dominance": "measured divergence under the stability bound",
    "test_c07_optimization_bound_dominance": "average-iterate excess risk under the bound",
    "test_c08_qualitative_sweeps_synthetic": "divergence grows with step and momentum (synthetic)",
    "test_c08_qualitative_sweeps_real_data": "divergence grows with step and momentum (local data)",
    "test_c09_specialization_consistency": "variant bound formulas agree with the general one",
    "test_c10_pipeline_round_trip": "parse/serialize round trip and known dataset shapes",
}

_results: dict[str, tuple[str, float, str]] = {}


def reference_pair(d, spec, kind, hp, w1, stream):
    """The reference loop on `d` and on its neighbor under `spec`, with one
    index stream: (base, neighbor, ||w_k - w'_k|| at every iterate)."""
    base = run(d, kind, hp, w1, stream)
    neighbor = run(make_neighbor(d, spec), kind, hp, w1, stream)
    return base, neighbor, np.linalg.norm(base.iterates - neighbor.iterates, axis=1)


def _skip_reason(report) -> str:
    # for skips, longrepr is (path, lineno, "Skipped: <reason>")
    if isinstance(report.longrepr, tuple) and len(report.longrepr) == 3:
        return report.longrepr[2].removeprefix("Skipped: ")
    return ""


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in CRITERIA:
        return
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _results[name] = (status, report.duration, _skip_reason(report))
    elif report.when == "setup" and report.skipped:
        _results[name] = ("SKIP", 0.0, _skip_reason(report))
    elif report.when == "setup" and report.failed:
        _results[name] = ("FAIL", 0.0, "setup error")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, description in CRITERIA.items():
        if name not in _results:
            continue
        status, duration, reason = _results[name]
        line = f"{status:4s} {name}: {description}"
        if status == "PASS":
            line += f" ({duration:.1f}s)"
        elif reason:
            line += f" [{reason}]"
        terminalreporter.write_line(line)
