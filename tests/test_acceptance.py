"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package at its stated
tolerance and runtime budget.  The two data-dependent tests look for LIBSVM
files under $SGDM_STABILITY_DATA, ./data, and /root/data, and skip with
download instructions when none are present; everything else runs on
synthetic data and always executes.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from conftest import (
    LookaheadState,
    SgdmState,
    average_iterate,
    csr_matrix,
    empirical_risk,
    joined,
    lookahead_step,
    reference_pair,
    sgdm_step,
)
from sgdm_stability.dataset import (
    KNOWN_DATASET_SHAPES,
    binarize,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
    synthetic_binary_dataset,
)
from sgdm_stability.harness import (
    ExperimentConfig,
    grid_points,
    run_bound_check,
    run_stability_experiment,
)
from sgdm_stability.losses import smoothness
from sgdm_stability.optimizer import HyperParams, SampleStream, run
from sgdm_stability.theory import (
    max_eta_hb,
    optimization_bound,
    stability_bound,
    variant_params,
)
from sgdm_stability.verification import (
    check_beta_zero_reduction,
    check_co_coercivity,
    check_convexity,
    check_gradient_fd,
    check_nesterov_equivalence,
    check_self_bounding,
    m_recursion_margins,
    run_invariant_suite,
)

BETA_GRID = (0.0, 0.5, 0.9, 0.99)

DATA_HINT = (
    "place LIBSVM binary-classification files (e.g. mushrooms, a9a) in "
    "$SGDM_STABILITY_DATA, ./data, or /root/data to enable this test"
)


def _data_dirs():
    env = os.environ.get("SGDM_STABILITY_DATA")
    for base in (env, "data", "/root/data"):
        if base and Path(base).is_dir():
            yield Path(base)


def find_local_dataset(names):
    """First existing file matching one of `names` in the data directories."""
    for base in _data_dirs():
        for name in names:
            for cand in (base / name, base / f"{name}.txt"):
                if cand.is_file():
                    return cand
    return None


def test_c01_exact_identity_suite():
    started = time.perf_counter()
    outcomes = run_invariant_suite(betas=BETA_GRID, kinds=("logistic",), steps=1000)
    elapsed = time.perf_counter() - started

    identity = [o for o in outcomes if o.name in ("y_identity", "dist_identity")]
    assert len(identity) >= 2 * len(BETA_GRID)
    for o in identity:
        assert o.status == "pass", f"{o.name} {o.params}: observed {o.observed:g}"
        assert o.observed <= 1e-10
    assert not [o for o in outcomes if o.status == "fail"]
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_c02_nesterov_two_form_equivalence():
    # identical pre-drawn gradient sequences through both forms
    rng = np.random.default_rng(6)
    T, d, gamma = 1000, 6, 0.05
    for beta in (0.3, 0.5, 0.9, 0.99):
        grads = rng.standard_normal((T, d)) * 0.1
        hp = HyperParams(beta=beta, gamma=gamma, eta=beta * gamma, iterations=T)
        sm = SgdmState(w=np.zeros(d), m=np.zeros(d), step=0)
        la = LookaheadState(u_curr=np.zeros(d), w=np.zeros(d), step=0)
        worst = 0.0
        for k in range(T):
            sm = sgdm_step(sm, grads[k], hp)
            la = lookahead_step(la, grads[k], beta, gamma)
            worst = max(worst, float(np.abs(sm.w - la.w).max()))
        assert worst <= 1e-9, f"beta={beta}: max deviation {worst:g}"

    # and through the shared data path
    data = synthetic_binary_dataset(60, 8, seed=3)
    traj = run(data, "logistic", variant_params("nesterov", 0.02, 0.9, 1000), np.zeros(data.dim), SampleStream(3, data.n))
    out = check_nesterov_equivalence(data, "logistic", traj, seed=3)
    assert out.status == "pass"


def test_c03_beta_zero_reduction():
    data = synthetic_binary_dataset(60, 8, seed=3)
    for kind in ("logistic", "squared"):
        alpha = smoothness(data, kind).alpha
        cap = max_eta_hb(0.0, alpha)
        out = check_beta_zero_reduction(data, kind, 0.4 * cap, 0.6 * cap, 1000, seed=3)
        assert out.status == "pass", f"{kind}: observed {out.observed:g}"
        assert out.observed <= 1e-12


def test_c04_loss_lemma_suite():
    for kind in ("logistic", "squared"):
        for check in (check_self_bounding, check_co_coercivity, check_convexity):
            out = check(kind, probes=10_000)
            assert out.params["probes"] >= 10_000
            assert out.status == "pass", f"{out.name} {kind}: observed {out.observed:g}"
        fd = check_gradient_fd(kind)
        assert fd.status == "pass"
        assert fd.observed <= 1e-5


def test_c05_momentum_recursion_inequality():
    train = synthetic_binary_dataset(100, 8, seed=21)
    alpha = smoothness(train, "logistic").alpha
    data, rows, pool_rows = joined(train, synthetic_binary_dataset(5, 8, seed=22))
    for beta in (0.5, 0.9):
        hp = variant_params("hb", 0.5 * max_eta_hb(beta, alpha), beta, 500)
        base, neighbor, _ = reference_pair(
            data, rows, 7, pool_rows[0], "logistic", hp, np.zeros(8), SampleStream(23, 100)
        )
        margins = m_recursion_margins(base, neighbor)
        assert margins.shape == (500,)
        assert margins.min() >= -1e-10, f"beta={beta}: min margin {margins.min():g}"


def test_c06_stability_bound_dominance():
    started = time.perf_counter()
    train = synthetic_binary_dataset(200, 10, seed=42)
    pool = synthetic_binary_dataset(200, 10, seed=43)
    alpha = smoothness(train, "logistic").alpha
    for beta in (0.0, 0.5):
        eta = 0.5 * max_eta_hb(beta, alpha)
        grid = grid_points("hb", (beta,), [(eta,)], 5 * train.n, "step")
        (res,) = run_bound_check(*joined(train, pool), "logistic", grid, alpha, samples=50, seed=5)
        assert res.holds, f"beta={beta}: empirical {res.empirical:g} > bound {res.theoretical:g}"
        assert res.margin_ratio > 10.0, f"beta={beta}: margin ratio only {res.margin_ratio:g}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"bound dominance took {elapsed:.1f}s"


def full_gradient_reference(data, kind, steps=10_000):
    """Deterministic near-minimizer: full-batch gradient descent at step 1/alpha."""
    X, y = csr_matrix(data), data.labels
    alpha = smoothness(data, kind).alpha
    w = np.zeros(data.dim)
    for _ in range(steps):
        margins = X @ w
        if kind == "logistic":
            s = -y * expit(-y * margins)
        else:
            s = margins - y
        w = w - (X.T @ s) / (alpha * data.n)
    return w


def test_c07_optimization_bound_dominance():
    started = time.perf_counter()
    train = synthetic_binary_dataset(200, 10, seed=42)
    alpha = smoothness(train, "logistic").alpha
    w_ref = full_gradient_reference(train, "logistic")
    ref_risk = empirical_risk(w_ref, train, "logistic")
    dist_sq = float(w_ref @ w_ref)  # started from zero
    n = train.n
    seeds = 20
    for beta in (0.0, 0.5):
        eta = 0.5 * max_eta_hb(beta, alpha)
        risks = {n: [], 5 * n: []}
        for s in range(seeds):
            hp = variant_params("hb", eta, beta, 5 * n)
            traj = run(train, "logistic", hp, np.zeros(train.dim), SampleStream(1000 + s, n))
            for t in risks:
                risks[t].append(empirical_risk(average_iterate(traj, t), train, "logistic"))
        for t, values in risks.items():
            bound = optimization_bound(
                variant_params("hb", eta, beta, t), alpha, dist_sq, t, ref_risk, "hb"
            )
            assert bound.condition_ok
            excess = float(np.mean(values)) - ref_risk
            assert excess <= bound.value, (
                f"beta={beta} t={t}: excess {excess:g} > bound {bound.value:g}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"optimization dominance took {elapsed:.1f}s"


def assert_nearly_nondecreasing(means, stds, reps, label):
    """Nondecreasing up to one inversion no deeper than one pooled standard error."""
    assert np.all(np.isfinite(means)), f"{label}: censored or non-finite means {means}"
    inversions = []
    for i in range(len(means) - 1):
        if means[i + 1] < means[i]:
            gap = means[i] - means[i + 1]
            pooled_se = float(np.sqrt((stds[i] ** 2 + stds[i + 1] ** 2) / reps))
            inversions.append((i, gap, pooled_se))
    assert len(inversions) <= 1, f"{label}: multiple inversions {inversions} in {means}"
    for i, gap, pooled_se in inversions:
        assert gap <= pooled_se, (
            f"{label}: inversion at position {i} of {gap:g} exceeds one pooled SE "
            f"{pooled_se:g}; means {means}"
        )


def sweep_final_epoch(dataset, variant, steps, betas, reps, seed, max_train=None, **kwargs):
    cfg = ExperimentConfig(
        dataset=dataset,
        loss="logistic",
        variant=variant,
        steps=steps,
        betas=betas,
        repetitions=reps,
        epochs=5,
        seed=seed,
        max_train=max_train,
        **kwargs,
    )
    result = run_stability_experiment(cfg)
    means = np.array([p.means[-1] for p in result.points])
    stds = np.array([p.stds[-1] for p in result.points])
    return means, stds


ETA_SWEEP = (0.001, 0.005, 0.025, 0.1)


def run_qualitative_sweeps(dataset, reps, seed, budget_s, scale_label, max_train=None, **kwargs):
    started = time.perf_counter()
    for variant in ("hb", "nesterov"):
        means, stds = sweep_final_epoch(
            dataset, variant, ETA_SWEEP, (0.9,), reps, seed, max_train, **kwargs
        )
        assert_nearly_nondecreasing(means, stds, reps, f"{scale_label} {variant} step sweep")
        means, stds = sweep_final_epoch(
            dataset, variant, (0.01,), BETA_GRID, reps, seed, max_train, **kwargs
        )
        assert_nearly_nondecreasing(means, stds, reps, f"{scale_label} {variant} beta sweep")
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{scale_label} sweeps took {elapsed:.1f}s"


def test_c08_qualitative_sweeps_synthetic():
    run_qualitative_sweeps(
        "synthetic", reps=20, seed=11, budget_s=120.0, scale_label="synthetic",
        synth_n=500, synth_dim=12,
    )


def test_c08_qualitative_sweeps_real_data():
    small = [name for name, (n, _) in KNOWN_DATASET_SHAPES.items() if n <= 10_000]
    large = [name for name, (n, _) in KNOWN_DATASET_SHAPES.items() if n > 10_000]
    path = find_local_dataset(["mushrooms"] + sorted(small) + sorted(large))
    if path is None:
        pytest.skip(DATA_HINT)
    n_known = KNOWN_DATASET_SHAPES.get(path.stem, (0, 0))[0] or len(path.read_text().splitlines())
    max_train = 5000 if n_known > 10_000 else None
    run_qualitative_sweeps(
        str(path), reps=20, seed=11, budget_s=300.0,
        scale_label=path.stem, max_train=max_train,
    )


def test_c09_specialization_consistency():
    rng = np.random.default_rng(99)
    for _ in range(50):
        beta = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(0.1, 5.0))
        n = int(rng.integers(10, 2000))
        t = int(rng.integers(1, 10_000))
        sum_risk = float(rng.uniform(0.0, 100.0))
        dist_sq = float(rng.uniform(0.0, 10.0))
        ref = float(rng.uniform(0.0, 2.0))
        eta = float(rng.uniform(1e-4, 0.5))
        gamma = float(rng.uniform(1e-4, 0.5))
        hb = HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=t)
        nest = variant_params("nesterov", gamma, beta, t)
        for variant, hp in (("hb", hb), ("nesterov", nest)):
            a = stability_bound(hp, alpha, n, t, sum_risk, variant).value
            b = stability_bound(hp, alpha, n, t, sum_risk, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (variant, a, b)
            a = optimization_bound(hp, alpha, dist_sq, t, ref, variant).value
            b = optimization_bound(hp, alpha, dist_sq, t, ref, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (variant, a, b)

    # larger beta never shrinks the stability bound, other inputs held fixed
    for eta, gamma, route in ((0.01, 0.0, "hb"), (0.02, 0.02, "general")):
        values = [
            stability_bound(
                HyperParams(beta=b, gamma=gamma, eta=eta, iterations=300),
                1.0, 150, 300, 25.0, route,
            ).value
            for b in BETA_GRID
        ]
        assert all(y >= x for x, y in zip(values, values[1:])), (route, values)
    nest_values = [
        stability_bound(variant_params("nesterov", 0.02, b, 300), 1.0, 150, 300, 25.0, "nesterov").value
        for b in (0.1, 0.5, 0.9, 0.99)
    ]
    assert all(y >= x for x, y in zip(nest_values, nest_values[1:]))


def test_c10_pipeline_round_trip():
    # synthetic data: parse(serialize(.)) is an identity, always runs
    data = synthetic_binary_dataset(200, 15, seed=31, density=0.4)
    text = serialize_libsvm(data)
    back = parse_libsvm(text, dim=data.dim)
    assert back == data
    assert serialize_libsvm(back) == text

    # real-data halves, when files are present locally
    a9a = find_local_dataset(["a9a"])
    if a9a is not None:
        with open(a9a, "r", encoding="utf-8") as fh:
            head = "".join(line for _, line in zip(range(1000), fh))
        first = parse_libsvm(head)
        out = serialize_libsvm(first)
        again = parse_libsvm(out, dim=first.dim)
        assert again == first
        assert serialize_libsvm(again) == out

    found = {
        name: path
        for name in KNOWN_DATASET_SHAPES
        if (path := find_local_dataset([name])) is not None
    }
    if a9a is None and not found:
        pytest.skip(f"round trip verified on synthetic data only; {DATA_HINT}")
    for name, path in found.items():
        known_n, known_d = KNOWN_DATASET_SHAPES[name]
        loaded = load_libsvm(path)
        assert loaded.n == known_n, f"{name}: n {loaded.n} != {known_n}"
        assert loaded.dim == known_d, f"{name}: dim {loaded.dim} != {known_d}"
        binarized = binarize(loaded)
        assert set(binarized.labels.tolist()) <= {-1.0, 1.0}
