import json
import multiprocessing

import numpy as np
import pytest
from conftest import csr_matrix, wrong_effective_step
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdm_stability import verification
from sgdm_stability.cli import EXIT_OK, main
from sgdm_stability.dataset import Dataset, synthetic_binary_dataset
from sgdm_stability.losses import LOSS_KINDS, margins, smoothness
from sgdm_stability.optimizer import (
    HyperParams,
    SampleStream,
    Trajectory,
    run,
    run_lookahead,
)
from sgdm_stability.theory import check_stab_condition, max_eta_hb, max_gamma_nesterov, variant_params
from sgdm_stability.verification import (
    CheckOutcome,
    check_beta_zero_reduction,
    check_co_coercivity,
    check_convexity,
    check_dist_identity,
    check_gradient_fd,
    check_m_recursion,
    check_momentum_unrolling,
    check_nesterov_equivalence,
    check_self_bounding,
    check_y_identity,
    momentum_buffers,
    run_invariant_suite,
)


@pytest.fixture(scope="module")
def small_data():
    return synthetic_binary_dataset(40, 6, seed=5, density=0.6, flip=0.15)


def fresh_run(data, kind, hp, seed):
    """A momentum-form run from w_1 = 0 on the stream seeded `seed`."""
    return run(data, kind, hp, np.zeros(data.dim), SampleStream(seed, data.n))


def with_gradient_row_scaled(traj, row, factor):
    gradients = traj.gradients.copy()
    gradients[row] *= factor
    return Trajectory(traj.iterates, gradients, traj.indices, traj.hp)


class TestNegativeControl:
    def test_wrong_effective_step_fails_y_identity(self, small_data, monkeypatch):
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.5, alpha), 0.5, 400)
        traj = fresh_run(small_data, "logistic", hp, seed=1)
        good = check_y_identity("logistic", traj)
        wrong_effective_step(monkeypatch)
        bad = check_y_identity("logistic", traj)
        assert good.status == "pass"
        assert bad.status == "fail"
        assert bad.observed > good.observed * 1e3

    def test_suite_hook_fails_only_y_identity(self, monkeypatch):
        wrong_effective_step(monkeypatch)
        outcomes = run_invariant_suite(betas=(0.5,), kinds=("logistic",), steps=200)
        failed = [o for o in outcomes if o.status == "fail"]
        assert failed
        assert {o.name for o in failed} == {"y_identity"}

    def test_scaled_gradient_row_fails_momentum_unrolling(self, small_data):
        # Both sides of the check read the trajectory's gradients, so the
        # buffers are replayed from a copy with g_k scaled by 1.001 while the
        # unrolled sums (the beta-power slices) read the true gradients.
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=4)
        assert check_momentum_unrolling("logistic", traj, momentum_buffers(traj)).status == "pass"
        scaled = with_gradient_row_scaled(traj, 150, 1.001)
        assert check_momentum_unrolling("logistic", traj, momentum_buffers(scaled)).status == "fail"

    def test_scaled_gradient_row_fails_the_identities(self, small_data):
        # the checks read the trajectory they are handed, not a rerun
        alpha = smoothness(small_data, "squared").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.5, alpha), 0.5, 300)
        traj = fresh_run(small_data, "squared", hp, seed=4)
        scaled = with_gradient_row_scaled(traj, 150, 1.001)
        assert check_y_identity("squared", traj).status == "pass"
        assert check_y_identity("squared", scaled).status == "fail"
        assert check_dist_identity("squared", scaled, momentum_buffers(scaled))[0].status == "fail"

    def test_shifted_lookahead_fails_nesterov_equivalence(self, small_data, monkeypatch):
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("nesterov", 0.5 * max_gamma_nesterov(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=2)
        assert check_nesterov_equivalence(small_data, "logistic", traj, seed=2).status == "pass"

        def shifted(*args):
            la = run_lookahead(*args)
            return np.vstack([la[1:], la[-1:]])

        monkeypatch.setattr(verification, "run_lookahead", shifted)
        assert check_nesterov_equivalence(small_data, "logistic", traj, seed=2).status == "fail"

    def test_lookahead_on_another_stream_fails_nesterov_equivalence(self, small_data):
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("nesterov", 0.5 * max_gamma_nesterov(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=2)
        assert check_nesterov_equivalence(small_data, "logistic", traj, seed=3).status == "fail"


class TestSkips:
    def test_m_recursion_skips_at_beta_zero(self, small_data):
        hp = variant_params("hb", 0.01, 0.0, 100)
        out = check_m_recursion(small_data, "logistic", hp, seed=2)
        assert out.status == "skip"
        assert "beta" in out.note

    def test_nesterov_equivalence_skips_at_beta_zero(self, small_data):
        # there is no Nesterov run at beta = 0; the suite reports the skip
        outcomes = run_invariant_suite(betas=(0.0,), kinds=("logistic",), steps=100, seed=2, data=small_data)
        (out,) = [o for o in outcomes if o.name == "nesterov_equivalence"]
        assert out.status == "skip"
        gamma = 0.5 * max_gamma_nesterov(0.0, smoothness(small_data, "logistic").alpha)
        assert out.params == {"kind": "logistic", "beta": 0.0, "gamma": gamma, "steps": 100}


class TestSuiteComposition:
    def test_clean_suite_has_no_failures(self):
        outcomes = run_invariant_suite(betas=(0.0, 0.5), kinds=("logistic",), steps=300)
        assert all(o.status in ("pass", "skip") for o in outcomes)
        names = {o.name for o in outcomes}
        assert {
            "self_bounding",
            "co_coercivity",
            "convexity",
            "gradient_fd",
            "y_identity",
            "dist_identity",
            "dist_bound_margin",
            "m_recursion",
            "momentum_unrolling",
            "nesterov_equivalence",
            "beta_zero_reduction",
        } <= names

    def test_beta_zero_rows_skip_momentum_only_checks(self):
        outcomes = run_invariant_suite(betas=(0.0,), kinds=("squared",), steps=200)
        skipped = {o.name for o in outcomes if o.status == "skip"}
        assert "m_recursion" in skipped
        assert "nesterov_equivalence" in skipped
        reduction = [o for o in outcomes if o.name == "beta_zero_reduction"]
        assert len(reduction) == 1 and reduction[0].status == "pass"

    def test_outcome_dict_shape(self):
        out = CheckOutcome("x", {"a": 1}, 0.5, 1.0, "pass", "n")
        d = out.to_dict()
        assert set(d) == {"name", "params", "observed", "threshold", "status", "note"}


class TestExplicitChecks:
    def test_beta_zero_reduction_passes(self, small_data):
        out = check_beta_zero_reduction(small_data, "squared", 0.02, 0.03, 500, seed=4)
        assert out.status == "pass"
        assert out.observed <= 1e-12

    def test_dist_identity_pair(self, small_data):
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.9, alpha), 0.9, 500)
        traj = fresh_run(small_data, "logistic", hp, seed=6)
        pair = check_dist_identity("logistic", traj, momentum_buffers(traj))
        assert [o.name for o in pair] == ["dist_identity", "dist_bound_margin"]
        assert all(o.status == "pass" for o in pair)


def oracle_suite(data, kinds, betas, steps, step_fraction, seed):
    """The suite's report, with every trajectory check fed its own fresh run."""
    rows = []
    for kind in kinds:
        alpha = smoothness(data, kind).alpha
        outcomes = [check_self_bounding(kind), check_co_coercivity(kind), check_convexity(kind), check_gradient_fd(kind)]
        for beta in betas:
            eta_cap = max_eta_hb(beta, alpha)
            hb = variant_params("hb", step_fraction * eta_cap, beta, steps)
            outcomes.append(check_y_identity(kind, fresh_run(data, kind, hb, seed)))
            traj = fresh_run(data, kind, hb, seed)
            outcomes.extend(check_dist_identity(kind, traj, momentum_buffers(traj)))
            outcomes.append(check_m_recursion(data, kind, hb, seed))
            traj = fresh_run(data, kind, hb, seed)
            outcomes.append(check_momentum_unrolling(kind, traj, momentum_buffers(traj)))
            gamma = step_fraction * max_gamma_nesterov(beta, alpha)
            if beta > 0:
                nest = variant_params("nesterov", gamma, beta, steps)
                outcomes.append(check_nesterov_equivalence(data, kind, fresh_run(data, kind, nest, seed), seed))
                outcomes.append(check_y_identity(kind, fresh_run(data, kind, nest, seed)))
                traj = fresh_run(data, kind, nest, seed)
                outcomes.extend(check_dist_identity(kind, traj, momentum_buffers(traj)))
            else:
                outcomes.append(CheckOutcome(
                    "nesterov_equivalence", {"kind": kind, "beta": beta, "gamma": gamma, "steps": steps},
                    0.0, 0.0, "skip", "requires beta > 0",
                ))
                outcomes.append(check_beta_zero_reduction(data, kind, 0.4 * eta_cap, 0.6 * eta_cap, steps, seed))
        rows.extend(o.to_dict() for o in outcomes)
    return rows


class TestSharedTrajectories:
    # the counts are taken in this process, so the units run here too
    def _counted(self, monkeypatch):
        monkeypatch.setattr(verification, "SUITE_WORKERS", 1)
        calls = {"run": 0, "run_lookahead": 0}
        steps = {"total": 0}

        def counter(name, fn, count_steps):
            def wrapped(*args):
                calls[name] += 1
                steps["total"] += count_steps(*args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(verification, "run", counter("run", run, lambda d, k, hp, *_: hp.iterations))
        monkeypatch.setattr(verification, "run_lookahead", counter("run_lookahead", run_lookahead, lambda *a: a[4]))
        return calls, steps

    def test_call_counts_at_the_default_grid(self, monkeypatch):
        # the counts depend on the betas and losses only, so a short horizon
        # stands in for the verb's check_steps
        calls, steps = self._counted(monkeypatch)
        run_invariant_suite(steps=20)
        # m_recursion's pairs are 12 of the runs
        assert calls == {"run": 28, "run_lookahead": 6}
        # 68000 reference-loop steps at check_steps = 2000
        assert steps["total"] == 34 * 20

    def test_one_run_per_distinct_trajectory(self, monkeypatch):
        calls, _ = self._counted(monkeypatch)
        run_invariant_suite(betas=(0.0,), kinds=("logistic",), steps=20)
        # the heavy-ball run and the reduction's own beta = 0 run
        assert calls == {"run": 2, "run_lookahead": 0}

    def test_momentum_buffers_replayed_once_per_trajectory(self, monkeypatch):
        monkeypatch.setattr(verification, "SUITE_WORKERS", 1)
        replays = []
        replay = verification.momentum_buffers
        monkeypatch.setattr(verification, "momentum_buffers", lambda traj: replays.append(traj) or replay(traj))
        run_invariant_suite(steps=20)
        # per (kind, beta > 0): the heavy-ball run, m_recursion's two runs and
        # the Nesterov run; per kind at beta = 0, the heavy-ball run alone
        assert len(replays) == 2 * (3 * 4 + 1)
        assert len({id(traj) for traj in replays}) == len(replays)

    def test_suite_equals_checks_fed_fresh_runs(self):
        data = synthetic_binary_dataset(30, 5, seed=9, density=0.6, flip=0.15)
        kwargs = dict(kinds=LOSS_KINDS, betas=(0.0, 0.5, 0.9), steps=150, step_fraction=0.4, seed=8)
        suite = [o.to_dict() for o in run_invariant_suite(data=data, **kwargs)]
        assert suite == oracle_suite(data, **kwargs)


class TestSuiteOnWorkers:
    """The suite's units on forked workers give the report they give when
    they run in this process, one after another."""

    def _both(self, monkeypatch, **kwargs):
        """The to_dict() reports of a pooled and of an in-process run, and
        whether their reprs are equal: repr spells every float exactly, and
        unlike == it finds a NaN equal to itself."""
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(verification, "SUITE_WORKERS", workers)
            reports.append([o.to_dict() for o in run_invariant_suite(**kwargs)])
            assert multiprocessing.active_children() == []
        pooled, in_process = reports
        return pooled, repr(pooled) == repr(in_process)

    def test_both_losses_over_betas(self, monkeypatch):
        pooled, equal = self._both(monkeypatch, betas=(0.0, 0.5, 0.9), steps=150)
        assert equal
        assert {row["params"]["kind"] for row in pooled} == set(LOSS_KINDS)

    def test_diverging_config(self, monkeypatch):
        pooled, equal = self._both(monkeypatch, betas=(0.0, 0.9), steps=100, step_fraction=1e6)
        assert equal
        assert [row for row in pooled if row["name"] == "finite_runs"]

    def test_force_bug(self, monkeypatch):
        wrong_effective_step(monkeypatch)
        pooled, equal = self._both(monkeypatch, betas=(0.5,), steps=100)
        assert equal
        assert {row["name"] for row in pooled if row["status"] == "fail"} == {"y_identity"}

    @pytest.mark.parametrize("workers", [2, 1])
    def test_an_error_in_a_unit_keeps_its_type(self, monkeypatch, workers):
        def broken(kind, probes=10_000, seed=13):
            raise ValueError(f"broken convexity check for {kind}")

        monkeypatch.setattr(verification, "SUITE_WORKERS", workers)
        monkeypatch.setattr(verification, "check_convexity", broken)
        with pytest.raises(ValueError, match="broken convexity check"):
            run_invariant_suite(betas=(0.5,), steps=50)
        assert multiprocessing.active_children() == []


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    dim=st.integers(10, 16),
    weights=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_margins_equal_the_sparse_product_bit_for_bit(rows, dim, weights, seed):
    # real values over many magnitudes in rows of unequal length, some empty
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(rows)])
    indices = np.concatenate([np.sort(rng.choice(dim, k, replace=False)) for k in rows])
    values = rng.standard_normal(indptr[-1]) * 10.0 ** rng.integers(-8, 9, indptr[-1])
    data = Dataset(indptr, indices, values, np.ones(len(rows)), dim)
    W = rng.standard_normal((weights, dim)) * 10.0 ** rng.integers(-8, 9, (weights, dim))
    expected = csr_matrix(data) @ W.T
    assert margins(data, W).tobytes() == np.ascontiguousarray(expected).tobytes()


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(0.0, 0.99),
        share=st.floats(0.05, 1.0),
        scale=st.floats(0.05, 1.0),
        kind=st.sampled_from(LOSS_KINDS),
        seed=st.integers(0, 2**16),
    )
    def test_identities_hold_on_one_shared_run(self, small_data, beta, share, scale, kind, seed):
        alpha = smoothness(small_data, kind).alpha
        # split the condition's budget 1/alpha between the eta and gamma terms
        a = (1 + beta) * (3 - beta) / (1 - beta) ** 2
        b = (beta * beta + 3) / (2 * (1 - beta) ** 2)
        hp = HyperParams(
            beta=beta, gamma=scale * (1 - share) / (b * alpha), eta=scale * share / (a * alpha), iterations=120
        )
        assume(check_stab_condition(hp, alpha).satisfied)
        traj = fresh_run(small_data, kind, hp, seed)
        buffers = momentum_buffers(traj)
        outcomes = [
            check_y_identity(kind, traj), *check_dist_identity(kind, traj, buffers),
            check_momentum_unrolling(kind, traj, buffers),
        ]
        assert [o.status for o in outcomes] == ["pass"] * 4, [o.to_dict() for o in outcomes]

    @settings(max_examples=4, deadline=None)
    @given(
        betas=st.lists(st.sampled_from([0.0, 0.3, 0.9]), min_size=1, max_size=2, unique=True),
        kind=st.sampled_from(LOSS_KINDS),
        seed=st.integers(0, 1000),
    )
    def test_equal_config_writes_identical_report(self, tmp_path_factory, betas, kind, seed):
        overrides = [f"betas={','.join(map(str, betas))}", f"losses={kind}", "check_steps=60", f"seed={seed}"]
        reports = []
        for _ in range(2):
            out = tmp_path_factory.mktemp("inv")
            assert main(["verify-invariants", "--overrides", *overrides, f"outdir={out}"]) == EXIT_OK
            reports.append((out / "invariants.json").read_bytes())
        assert reports[0] == reports[1]
        assert len(json.loads(reports[0])) > 0
