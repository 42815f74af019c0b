import json
import math
import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from conftest import csr_matrix, wrong_effective_step
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgdm_stability import verification
from sgdm_stability.cli import EXIT_OK, main
from sgdm_stability.dataset import Dataset, parse_libsvm, synthetic_binary_dataset
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
    m_recursion_margins,
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
    return Trajectory(traj.iterates, gradients, traj.indices, traj.hp, traj.momenta)


def with_momentum_row_scaled(traj, row, factor):
    momenta = traj.momenta.copy()
    momenta[row] *= factor
    return Trajectory(traj.iterates, traj.gradients, traj.indices, traj.hp, momenta)


def neighbor_rows(data, seed):
    """check_m_recursion's perturbed index and its neighbor's rows, drawn as
    it draws them on data without a duplicate of the perturbed row: the
    replacement is the row 1 + integers(0, n - 1) places after the perturbed
    one, cyclically, so never the perturbed row itself."""
    rng = np.random.default_rng(seed + 1)
    rows = np.arange(data.n)
    perturbed = int(rng.integers(1, data.n + 1))
    rows[perturbed - 1] = (perturbed - 1 + 1 + int(rng.integers(0, data.n - 1))) % data.n
    return perturbed, rows


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
        # g_151 scaled by 1.001 against the momenta the run recorded; step 151
        # is not one of the unrolled points, but m_256 and m_300 hold g_151
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=4)
        assert check_momentum_unrolling("logistic", traj).status == "pass"
        scaled = with_gradient_row_scaled(traj, 150, 1.001)
        assert check_momentum_unrolling("logistic", scaled).status == "fail"

    @pytest.mark.parametrize("row", [1, 256, 300])
    def test_scaled_momentum_row_fails_unrolling_and_dist_identity(self, small_data, row):
        # m_row scaled by 1.001, at unrolled points 1, 256 and T = 300; the
        # distance identity reads every momentum
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=4)
        scaled = with_momentum_row_scaled(traj, row, 1.001)
        assert check_momentum_unrolling("logistic", traj).status == "pass"
        assert check_dist_identity("logistic", traj)[0].status == "pass"
        assert check_momentum_unrolling("logistic", scaled).status == "fail"
        assert check_dist_identity("logistic", scaled)[0].status == "fail"

    def test_scaled_gradient_row_fails_the_identities(self, small_data):
        # the checks read the trajectory they are handed, not a rerun
        alpha = smoothness(small_data, "squared").alpha
        hp = variant_params("hb", 0.5 * max_eta_hb(0.5, alpha), 0.5, 300)
        traj = fresh_run(small_data, "squared", hp, seed=4)
        scaled = with_gradient_row_scaled(traj, 150, 1.001)
        assert check_y_identity("squared", traj).status == "pass"
        assert check_y_identity("squared", scaled).status == "fail"
        assert check_dist_identity("squared", with_momentum_row_scaled(traj, 150, 1.001))[0].status == "fail"

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

    def test_m_recursion_runs_only_the_neighbor_of_the_drawn_row(self, small_data, monkeypatch):
        # the neighbor replays the base's stream on the rows `neighbor_rows`
        # draws, apart from the stream
        base = fresh_run(small_data, "logistic", variant_params("hb", 0.01, 0.5, 200), seed=2)
        ran = []
        monkeypatch.setattr(verification, "run", lambda d, *args: ran.append((d, args[-1].seed)) or run(d, *args))
        out = check_m_recursion(small_data, "logistic", base, seed=2)
        _, rows = neighbor_rows(small_data, 2)
        assert ran == [(small_data.take(rows), 2)] and small_data.take(rows) != small_data
        assert out.status == "pass" and out.observed > 0.0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**16))
    @example(n=60, seed=67)
    def test_m_recursion_neighbor_replaces_the_perturbed_row_by_another(self, n, seed):
        # at seed 67 on 60 rows a draw of the replacement from all n rows
        # picks the perturbed row itself, and the neighbor is the data; dense
        # rows, since two rows of one nonzero can be equal
        data = synthetic_binary_dataset(n, 3, seed=seed, density=1.0, flip=0.15)
        base = fresh_run(data, "squared", variant_params("hb", 0.01, 0.5, 400), seed)
        perturbed, rows = neighbor_rows(data, seed)
        ran = []
        with mock.patch.object(verification, "run", lambda d, *args: ran.append(d) or run(d, *args)):
            out = check_m_recursion(data, "squared", base, seed)
        assert rows[perturbed - 1] != perturbed - 1
        assert ran == [data.take(rows)] and out.status == "pass" and out.observed > 0.0

    def test_m_recursion_neighbor_steps_past_a_duplicate_of_the_perturbed_row(self, monkeypatch):
        # rows 1 and 2 are both `1:1` with label 1, and the suite's draw
        # replaces one by the other, a neighbor equal to the data whose
        # margins are all 0; the replacement steps on to a row that differs
        data = synthetic_binary_dataset(4, 3, seed=1068, density=0.6)
        assert all(map(np.array_equal, data.row(1), data.row(2)))
        ran = []
        monkeypatch.setattr(verification, "run", lambda d, *args: ran.append(d) or run(d, *args))
        outcomes = [o for o in run_invariant_suite(data=data, steps=200) if o.name == "m_recursion"]
        momentum = [o for o in outcomes if o.params["beta"] > 0.0]
        assert len(momentum) == 6 and all(o.status == "pass" and o.observed > 0.0 for o in momentum)
        assert data not in ran

    def test_lookahead_on_another_stream_fails_nesterov_equivalence(self, small_data):
        alpha = smoothness(small_data, "logistic").alpha
        hp = variant_params("nesterov", 0.5 * max_gamma_nesterov(0.9, alpha), 0.9, 300)
        traj = fresh_run(small_data, "logistic", hp, seed=2)
        assert check_nesterov_equivalence(small_data, "logistic", traj, seed=3).status == "fail"


class TestSkips:
    def test_m_recursion_skips_at_beta_zero(self, small_data):
        hp = variant_params("hb", 0.01, 0.0, 100)
        out = check_m_recursion(small_data, "logistic", fresh_run(small_data, "logistic", hp, 2), seed=2)
        assert out.status == "skip"
        assert "beta" in out.note

    def test_m_recursion_skips_when_the_stream_never_draws_the_perturbed_index(self, small_data, monkeypatch):
        perturbed, _ = neighbor_rows(small_data, 2)
        hp = variant_params("hb", 0.01, 0.5, 30)
        base = fresh_run(small_data, "logistic", hp, 2)
        first = int(np.flatnonzero(base.indices == perturbed)[0])
        short = fresh_run(small_data, "logistic", variant_params("hb", 0.01, 0.5, first), 2)
        ran = []
        monkeypatch.setattr(verification, "run", lambda *args: ran.append(args) or run(*args))
        out = check_m_recursion(small_data, "logistic", short, seed=2)
        assert (out.status, out.observed, ran) == ("skip", 0.0, [])
        assert f"perturbed index {perturbed}" in out.note

    @pytest.mark.parametrize(
        "data", [synthetic_binary_dataset(1, 3, seed=1068, density=0.6), parse_libsvm("1 1:1\n" * 3)]
    )
    def test_m_recursion_skips_when_no_row_differs_from_the_perturbed_one(self, data, monkeypatch):
        # one row, or rows all alike: every neighbor equals the data
        base = fresh_run(data, "logistic", variant_params("hb", 0.01, 0.5, 50), 2)
        ran = []
        monkeypatch.setattr(verification, "run", lambda *args: ran.append(args) or run(*args))
        out = check_m_recursion(data, "logistic", base, 2)
        assert (out.status, out.observed, ran) == ("skip", 0.0, [])
        assert out.note.startswith("no row differs from the perturbed row")

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
        pair = check_dist_identity("logistic", traj)
        assert [o.name for o in pair] == ["dist_identity", "dist_bound_margin"]
        assert all(o.status == "pass" for o in pair)

    def test_m_recursion_reports_the_margins_from_the_first_hit(self):
        # on the suite's default data: before the first hit both sides of the
        # bound are 0, from it on the smallest margin is positive
        data = synthetic_binary_dataset(60, 8, 3, density=0.6, flip=0.15)
        outcomes = [o for o in run_invariant_suite(steps=300) if o.name == "m_recursion" and o.status != "skip"]
        assert len(outcomes) == 2 * 3
        perturbed, rows = neighbor_rows(data, 3)
        for out in outcomes:
            p = out.params
            hp = HyperParams(beta=p["beta"], gamma=p["gamma"], eta=p["eta"], iterations=p["steps"])
            base = fresh_run(data, p["kind"], hp, 3)
            neighbor = fresh_run(data.take(rows), p["kind"], hp, 3)
            first_hit = int(np.flatnonzero(base.indices == perturbed)[0]) + 1
            assert out.note == f"first hit at step {first_hit}"
            assert out.observed == m_recursion_margins(base, neighbor)[first_hit - 1 :].min()
            assert out.observed > 0.0


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
            outcomes.extend(check_dist_identity(kind, fresh_run(data, kind, hb, seed)))
            outcomes.append(check_m_recursion(data, kind, fresh_run(data, kind, hb, seed), seed))
            outcomes.append(check_momentum_unrolling(kind, fresh_run(data, kind, hb, seed)))
            gamma = step_fraction * max_gamma_nesterov(beta, alpha)
            if beta > 0:
                nest = variant_params("nesterov", gamma, beta, steps)
                outcomes.append(check_nesterov_equivalence(data, kind, fresh_run(data, kind, nest, seed), seed))
                outcomes.append(check_y_identity(kind, fresh_run(data, kind, nest, seed)))
                outcomes.extend(check_dist_identity(kind, fresh_run(data, kind, nest, seed)))
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
        # the counts depend on the betas and losses only, once the stream has
        # drawn m_recursion's perturbed index (at step 78 of seed 3), so a
        # short horizon stands in for the verb's check_steps
        calls, steps = self._counted(monkeypatch)
        run_invariant_suite(steps=100)
        # m_recursion's neighbors are 6 of the runs; its base is the heavy-ball run
        assert calls == {"run": 22, "run_lookahead": 6}
        # 56000 reference-loop steps at check_steps = 2000
        assert steps["total"] == 28 * 100

    def test_one_run_per_distinct_trajectory(self, monkeypatch):
        calls, _ = self._counted(monkeypatch)
        run_invariant_suite(betas=(0.0,), kinds=("logistic",), steps=20)
        # the heavy-ball run and the reduction's own beta = 0 run
        assert calls == {"run": 2, "run_lookahead": 0}

    def test_suite_replays_no_momenta(self, monkeypatch):
        # the checks read the momenta `run` recorded: the one recursion left,
        # `_decayed_sums`, only ever sums the 1-D squared gradient norms
        monkeypatch.setattr(verification, "SUITE_WORKERS", 1)
        shapes = []
        decayed_sums = verification._decayed_sums
        monkeypatch.setattr(
            verification, "_decayed_sums", lambda decay, terms: shapes.append(terms.shape) or decayed_sums(decay, terms)
        )
        run_invariant_suite(steps=100)
        # per (kind, beta): the dist bound of the heavy-ball run, and for
        # beta > 0 of the Nesterov run and m_recursion's rhs
        assert shapes == [(100,)] * 2 * (3 * 3 + 1)
        assert not hasattr(verification, "momentum_buffers")

    def test_suite_equals_checks_fed_fresh_runs(self):
        data = synthetic_binary_dataset(30, 5, seed=9, density=0.6, flip=0.15)
        kwargs = dict(kinds=LOSS_KINDS, betas=(0.0, 0.5, 0.9), steps=150, step_fraction=0.4, seed=8)
        suite = [o.to_dict() for o in run_invariant_suite(data=data, **kwargs)]
        assert suite == oracle_suite(data, **kwargs)


def assert_no_child_left():
    # the workers are forked with os.fork, which multiprocessing does not see:
    # ChildProcessError says that this process has no child, running or not reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSuiteOnWorkers:
    """The suite's units on forked workers give the report they give when
    they run in this process, one after another."""

    def _both(self, monkeypatch, **kwargs):
        """The to_dict() reports of a two-worker and of an in-process run,
        and whether their reprs are equal: repr spells every float exactly,
        and unlike == it finds a NaN equal to itself."""
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(verification, "SUITE_WORKERS", workers)
            reports.append([o.to_dict() for o in run_invariant_suite(**kwargs)])
            assert_no_child_left()
        forked, in_process = reports
        return forked, repr(forked) == repr(in_process)

    def test_both_losses_over_betas(self, monkeypatch):
        forked, equal = self._both(monkeypatch, betas=(0.0, 0.5, 0.9), steps=150)
        assert equal
        assert {row["params"]["kind"] for row in forked} == set(LOSS_KINDS)

    def test_diverging_config(self, monkeypatch):
        forked, equal = self._both(monkeypatch, betas=(0.0, 0.9), steps=100, step_fraction=1e6)
        assert equal
        assert [row for row in forked if row["name"] == "finite_runs"]

    def test_force_bug(self, monkeypatch):
        wrong_effective_step(monkeypatch)
        forked, equal = self._both(monkeypatch, betas=(0.5,), steps=100)
        assert equal
        assert {row["name"] for row in forked if row["status"] == "fail"} == {"y_identity"}

    def test_units_start_longest_first_and_report_in_unit_order(self, monkeypatch):
        started = []
        run_units = verification._run_units
        monkeypatch.setattr(verification, "_run_units", lambda units: started.extend(units) or run_units(units))
        units = [(verification._loss_lemmas, ("logistic",)), (len, ("ab",)), (verification._loss_lemmas, ("squared",)),
                 (len, ("abc",))]
        outcomes = verification._map_units(units)
        assert [fn for fn, _ in started] == [len, len, verification._loss_lemmas, verification._loss_lemmas]
        assert outcomes[1::2] == [2, 3]
        assert [o.params["kind"] for o in outcomes[0]] == ["logistic"] * len(outcomes[0])
        assert [o.params["kind"] for o in outcomes[2]] == ["squared"] * len(outcomes[2])

    @pytest.mark.parametrize("workers", [2, 1])
    def test_an_error_in_a_unit_keeps_its_type(self, monkeypatch, workers):
        def broken(kind, probes=10_000, seed=13):
            raise ValueError(f"broken convexity check for {kind}")

        monkeypatch.setattr(verification, "SUITE_WORKERS", workers)
        monkeypatch.setattr(verification, "check_convexity", broken)
        with pytest.raises(ValueError, match="broken convexity check"):
            run_invariant_suite(betas=(0.5,), steps=50)
        assert_no_child_left()


def no_pickle(*args):
    # raised in a worker: the lock it holds cannot be pickled
    raise ValueError(threading.Lock())


class NoUnpickle(Exception):
    # pickles, but its class cannot be rebuilt from the args it pickles with
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def no_unpickle(*args):
    raise NoUnpickle(1, 2)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def slow_failure(message):
    time.sleep(0.2)
    raise ValueError(message)


def _timed_out(signum, frame):
    raise TimeoutError("_run_units did not return within 60 s")


class TestWorkerQueue:
    """`_run_units` on two forked workers: every unit number the queue took
    comes back once, in order, and every failure reaches the caller."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # a hang fails the test: the alarm interrupts this process, which
        # then closes its pipes and reaps the workers
        monkeypatch.setattr(verification, "SUITE_WORKERS", 2)
        previous = signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 5])
    def test_many_cheap_units_come_back_complete_and_in_order(self, monkeypatch, workers):
        # 20 000 numbers of 4 bytes fill more than a 64 KiB pipe buffer, and
        # most of them are more than one byte long; 5 workers outnumber the
        # cores of a small host
        monkeypatch.setattr(verification, "SUITE_WORKERS", workers)
        words = ["", "a", "ab", "abc", "abcd", "abcde", "abcdef"]
        units = [(len, (words[u % 7],)) for u in range(20_000)]
        assert verification._run_units(units) == [u % 7 for u in range(20_000)]

    @pytest.mark.parametrize("death, code", [((os._exit, (1,)), 1), ((kill_self, ()), -signal.SIGKILL)])
    def test_a_worker_that_dies_is_named(self, death, code):
        units = [(len, ("ab",))] * 6 + [death] + [(len, ("abc",))] * 6
        with pytest.raises(RuntimeError, match=rf"no suite worker sent back unit \d+: worker \d+ exited with code {code}$"):
            verification._run_units(units)

    @pytest.mark.parametrize("raiser, name", [(no_pickle, "ValueError"), (no_unpickle, "NoUnpickle")])
    def test_an_error_that_cannot_be_pickled_arrives_as_its_repr(self, raiser, name):
        with pytest.raises(RuntimeError, match=rf"suite unit 1 raised {name}\(.*\), which cannot be pickled"):
            verification._run_units([(len, ("ab",)), (raiser, ())])

    @pytest.mark.parametrize("first", [(int, ("one",)), (slow_failure, ("'one'",))])
    def test_the_first_failure_in_the_order_given_is_raised(self, first):
        # both workers stop on an error, and the later units never run; the
        # slow one fails after the unit behind it has
        units = [(len, ("ab",)), first, (float, ("two",)), (len, ("abc",)), (int, ("three",))]
        with pytest.raises(ValueError, match="'one'") as caught:
            verification._run_units(units)
        # Python 3.11 on: the note carries the worker's traceback
        if hasattr(caught.value, "add_note"):
            assert caught.value.__notes__[0].startswith("in suite unit 1 on worker ")


def numpy_decayed_sums(decay, terms):
    """`_decayed_sums` as a recursion over numpy scalars."""
    s = np.zeros(terms.shape[0] + 1)
    for k in range(1, s.shape[0]):
        s[k] = decay * s[k - 1] + terms[k - 1]
    return s


@settings(max_examples=200, deadline=None)
@given(
    decay=st.floats(0.0, 1.5),
    terms=st.lists(st.floats(0.0, allow_infinity=True) | st.sampled_from([1e308, 1.7e308]), max_size=40),
)
@example(decay=0.99, terms=[1e308] * 4)
@example(decay=0.0, terms=[math.inf, 1.0, 1.0])
def test_decayed_sums_equal_the_numpy_recursion_bit_for_bit(decay, terms):
    # the suite's terms are squared norms of finite runs, so >= 0 or inf;
    # Python floats take the same IEEE steps, also where a sum overflows to
    # inf and 0 * inf makes a NaN.  (Where a NaN meets a NaN term, the sign
    # of the NaN they give may differ between the two.)
    terms = np.array(terms, dtype=np.float64)
    with np.errstate(all="ignore"):
        expected = numpy_decayed_sums(decay, terms)
    assert verification._decayed_sums(decay, terms).tobytes() == expected.tobytes()


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
        outcomes = [
            check_y_identity(kind, traj), *check_dist_identity(kind, traj), check_momentum_unrolling(kind, traj),
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
