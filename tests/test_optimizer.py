import re
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    LookaheadState,
    SgdmState,
    average_iterate,
    empirical_risk,
    joined,
    lookahead_step,
    momentum_buffers,
    reference_pair,
    run_lookahead_per_step,
    run_per_step,
    sgdm_step,
    stack,
)
from sgdm_stability import optimizer
from sgdm_stability.dataset import DataError, Dataset, parse_libsvm, synthetic_binary_dataset
from sgdm_stability.losses import empirical_risk_many, grad_scales, loss_grad, signed_scales, smoothness
from sgdm_stability.theory import check_stab_condition, variant_params
from sgdm_stability.optimizer import (
    DivergenceError,
    HyperParams,
    SampleStream,
    Trajectory,
    coupled_distance_batch,
    run,
    run_lookahead,
)


class TestSgdmStep:
    def setup_method(self):
        self.hp = HyperParams(beta=0.5, gamma=0.1, eta=0.2, iterations=10)

    def test_hand_worked_first_step(self):
        s = SgdmState(w=np.array([1.0, 0.0]), m=np.zeros(2), step=0)
        s = sgdm_step(s, np.array([2.0, -1.0]), self.hp)
        np.testing.assert_allclose(s.m, [2.0, -1.0], rtol=0, atol=0)
        np.testing.assert_allclose(s.w, [0.4, 0.3], rtol=1e-15)
        assert s.step == 1

    def test_hand_worked_second_step(self):
        s = SgdmState(w=np.array([0.4, 0.3]), m=np.array([2.0, -1.0]), step=1)
        s = sgdm_step(s, np.array([1.0, 1.0]), self.hp)
        np.testing.assert_allclose(s.m, [2.0, 0.5], rtol=1e-15)
        np.testing.assert_allclose(s.w, [-0.1, 0.1], rtol=1e-15)

    def test_nonfinite_gradient_raises_with_step(self):
        s = SgdmState(w=np.zeros(2), m=np.zeros(2), step=7)
        with pytest.raises(DivergenceError) as exc:
            sgdm_step(s, np.array([np.inf, 0.0]), self.hp)
        assert exc.value.step == 8

    def test_overflowing_iterate_raises(self):
        s = SgdmState(w=np.array([1e308]), m=np.zeros(1), step=0)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=1.0, iterations=1)
        with pytest.raises(DivergenceError):
            sgdm_step(s, np.array([-1e308]), hp)

    def test_operation_order_is_pinned(self):
        # the loops share this arithmetic, so the per-step oracle cannot see
        # a reordering; spelled out here, it pins every rounding
        rng = np.random.default_rng(0)
        for _ in range(200):
            w, m, g = rng.standard_normal((3, 8)) * 10.0 ** rng.integers(-3, 4, (3, 8))
            beta, gamma, eta = rng.uniform(0, 1, 3)
            s = sgdm_step(SgdmState(w=w, m=m, step=0), g, HyperParams(beta, gamma, eta, 1))
            m_new = beta * m + g
            assert np.array_equal(s.m, m_new)
            assert np.array_equal(s.w, w - gamma * g - eta * m_new)
            la = lookahead_step(LookaheadState(u_curr=m, w=w, step=0), g, beta, gamma)
            u_new = w - gamma * g
            assert np.array_equal(la.u_curr, u_new)
            assert np.array_equal(la.w, u_new + beta * (u_new - m))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta=-0.1, gamma=0.0, eta=0.1, iterations=1),
            dict(beta=1.0, gamma=0.0, eta=0.1, iterations=1),
            dict(beta=0.5, gamma=-0.2, eta=0.1, iterations=1),
            dict(beta=0.5, gamma=0.0, eta=0.0, iterations=1),
            dict(beta=0.5, gamma=0.0, eta=0.1, iterations=0),
        ],
    )
    def test_hyperparam_validation(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)


class TestVariantBuilders:
    def test_hb_sets_gamma_zero(self):
        hp = variant_params("hb", 0.05, 0.9, 100)
        assert hp.gamma == 0.0 and hp.eta == 0.05 and hp.beta == 0.9

    def test_nesterov_ties_eta(self):
        hp = variant_params("nesterov", 0.1, 0.5, 100)
        assert hp.eta == pytest.approx(0.05, rel=0, abs=0)

    def test_hb_run_is_general_run_with_gamma_zero(self):
        data = synthetic_binary_dataset(30, 6, seed=0)
        hp1 = variant_params("hb", 0.05, 0.7, 200)
        hp2 = HyperParams(beta=0.7, gamma=0.0, eta=0.05, iterations=200)
        t1 = run(data, "logistic", hp1, np.zeros(6), SampleStream(4, 30))
        t2 = run(data, "logistic", hp2, np.zeros(6), SampleStream(4, 30))
        assert np.array_equal(t1.iterates, t2.iterates)


class TestBetaZeroReduction:
    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_matches_plain_sgd_per_coordinate(self, kind):
        data = synthetic_binary_dataset(40, 8, seed=1, scale=0.8)
        gamma, eta = 0.03, 0.07
        hp = HyperParams(beta=0.0, gamma=gamma, eta=eta, iterations=1000)
        traj = run(data, kind, hp, np.zeros(8), SampleStream(11, 40))
        w = np.zeros(8)
        idx = SampleStream(11, 40).prefix(1000)
        worst = 0.0
        for k in range(1000):
            w = w - (gamma + eta) * loss_grad(w, data, int(idx[k]) - 1, kind)
            worst = max(worst, float(np.abs(w - traj.iterates[k + 1]).max()))
        assert worst <= 1e-12


class TestLookahead:
    def test_first_step_matches_momentum_form(self):
        # with u_0 = w_1 both forms give w_2 = w_1 - gamma g - beta gamma g
        w1 = np.array([1.0, -2.0])
        g = np.array([0.5, 1.0])
        beta, gamma = 0.5, 0.1
        s = LookaheadState(u_curr=w1.copy(), w=w1.copy(), step=0)
        s = lookahead_step(s, g, beta, gamma)
        expected = w1 - gamma * g - beta * gamma * g
        np.testing.assert_allclose(s.w, expected, rtol=1e-15)

    def test_beta_zero_is_plain_sgd(self):
        w1 = np.array([2.0])
        g = np.array([1.0])
        s = LookaheadState(u_curr=w1.copy(), w=w1.copy(), step=0)
        s = lookahead_step(s, g, 0.0, 0.25)
        np.testing.assert_allclose(s.w, [1.75])

    def test_fixed_gradient_sequence_equivalence(self):
        # identical pre-drawn gradients through both forms, 1000 steps
        rng = np.random.default_rng(5)
        T, d = 1000, 6
        grads = rng.standard_normal((T, d)) * 0.1
        beta, gamma = 0.9, 0.05
        hp = HyperParams(beta=beta, gamma=gamma, eta=beta * gamma, iterations=T)
        sm = SgdmState(w=np.zeros(d), m=np.zeros(d), step=0)
        la = LookaheadState(u_curr=np.zeros(d), w=np.zeros(d), step=0)
        worst = 0.0
        for k in range(T):
            sm = sgdm_step(sm, grads[k], hp)
            la = lookahead_step(la, grads[k], beta, gamma)
            worst = max(worst, float(np.abs(sm.w - la.w).max()))
        assert worst <= 1e-9

    def test_data_driven_equivalence(self):
        data = synthetic_binary_dataset(50, 7, seed=2)
        beta, gamma = 0.8, 0.02
        hp = variant_params("nesterov", gamma, beta, 1000)
        traj = run(data, "logistic", hp, np.zeros(7), SampleStream(9, 50))
        la = run_lookahead(data, "logistic", beta, gamma, 1000, np.zeros(7), SampleStream(9, 50))
        assert float(np.abs(traj.iterates - la).max()) <= 1e-9


class TestSampleStream:
    def test_deterministic_and_order_independent(self):
        a = SampleStream(3, 17)
        b = SampleStream(3, 17)
        # query b's prefixes longest first, a's once
        vals_b = [b.prefix(k) for k in (500, 3, 42, 1)]
        vals_a = a.prefix(500)
        for v in vals_b:
            np.testing.assert_array_equal(v, vals_a[: v.size])

    def test_single_example_dataset(self):
        s = SampleStream(0, 1)
        assert s.prefix(100).tolist() == [1] * 100

    def test_range_is_one_based(self):
        s = SampleStream(1, 5)
        p = s.prefix(10_000)
        assert p.min() == 1 and p.max() == 5

    def test_marginal_frequencies_uniform(self):
        # 1e6 draws over 10 classes stay within 1% absolute of 0.1
        s = SampleStream(12345, 10)
        counts = np.bincount(s.prefix(1_000_000), minlength=11)[1:]
        freqs = counts / 1_000_000
        assert np.abs(freqs - 0.1).max() < 0.001

    def test_bad_args(self):
        with pytest.raises(ValueError):
            SampleStream(0, 0)

    @pytest.mark.parametrize("n", [1, 7, 40, 2**31 + 11])
    @pytest.mark.parametrize("size", [1, 3, 1000, 5000])
    def test_chunks_concatenate_to_prefix(self, n, size):
        blocks = list(SampleStream(9, n).chunks(4321, size))
        assert all(0 < b.shape[0] <= size for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), SampleStream(9, n).prefix(4321))


class TestRun:
    def test_single_step_shapes(self):
        data = parse_libsvm("1 1:1\n-1 2:1\n")
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.1, iterations=1)
        traj = run(data, "logistic", hp, np.zeros(2), SampleStream(0, 2))
        assert traj.iterates.shape == (2, 2)
        assert traj.gradients.shape == (1, 2)
        assert traj.indices.shape == (1,)

    def test_tiny_steps_stay_near_start(self):
        data = synthetic_binary_dataset(20, 4, seed=3)
        hp = HyperParams(beta=0.9, gamma=1e-9, eta=1e-9, iterations=50)
        w1 = np.full(4, 0.3)
        traj = run(data, "logistic", hp, w1, SampleStream(1, 20))
        assert float(np.abs(traj.iterates - w1).max()) < 1e-6

    def test_risk_decreases_on_separable_data(self):
        # two well-separated points, 500 steps of modest SGD
        data = parse_libsvm("1 1:1\n-1 1:-1\n")
        hp = HyperParams(beta=0.5, gamma=0.1, eta=0.1, iterations=500)
        traj = run(data, "logistic", hp, np.zeros(1), SampleStream(2, 2))
        avg = average_iterate(traj, 501)
        assert empirical_risk(avg, data, "logistic") < empirical_risk(np.zeros(1), data, "logistic")

    def test_replay_is_bit_exact(self):
        data = synthetic_binary_dataset(25, 5, seed=6)
        hp = HyperParams(beta=0.9, gamma=0.01, eta=0.02, iterations=300)
        traj = run(data, "logistic", hp, np.zeros(5), SampleStream(8, 25))
        state = SgdmState(w=traj.iterates[0].copy(), m=np.zeros(5), step=0)
        for k in range(hp.iterations):
            state = sgdm_step(state, traj.gradients[k], traj.hp)
            assert np.array_equal(state.w, traj.iterates[k + 1])

    def test_momentum_unrolls_to_geometric_sum(self):
        data = synthetic_binary_dataset(25, 5, seed=7)
        hp = HyperParams(beta=0.7, gamma=0.0, eta=0.05, iterations=100)
        traj = run(data, "logistic", hp, np.zeros(5), SampleStream(3, 25))
        m = traj.momenta
        for t in (1, 7, 50, 100):
            powers = 0.7 ** np.arange(t - 1, -1, -1.0)
            expected = powers @ traj.gradients[:t]
            scale = 1.0 + np.linalg.norm(m[t])
            assert np.linalg.norm(m[t] - expected) / scale <= 1e-10

    def test_divergence_on_squared_loss_big_step(self):
        data = parse_libsvm("100 1:10\n-100 1:10\n")
        hp = HyperParams(beta=0.0, gamma=0.0, eta=50.0, iterations=10_000)
        with pytest.raises(DivergenceError):
            run(data, "squared", hp, np.zeros(1), SampleStream(0, 2))


@st.composite
def small_datasets(draw):
    """Up to 6 rows over up to 5 features: empty rows, explicit zero values
    and all-zero rows included."""
    dim = draw(st.integers(1, 5))
    indptr, indices, values = [0], [], []
    n = draw(st.integers(1, 6))
    for _ in range(n):
        idx = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
        indices += idx
        values += draw(st.lists(st.just(0.0) | st.floats(-2.0, 2.0), min_size=len(idx), max_size=len(idx)))
        indptr.append(len(indices))
    labels = draw(st.lists(st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return Dataset(np.array(indptr), np.array(indices, dtype=np.intp), np.array(values), np.array(labels), dim)


def _outcome(fn, *args):
    """fn(*args), or the step of the DivergenceError it raises."""
    try:
        return fn(*args)
    except DivergenceError as e:
        return e.step


# two rows over three features, for runs far longer than the data
FEW_ROWS = Dataset(
    np.array([0, 2, 3]), np.array([0, 2, 1], dtype=np.intp), np.array([0.5, -1.5, 2.0]), np.array([1.0, -1.0]), 3
)
# the middle row is empty
EMPTY_ROW = Dataset(
    np.array([0, 2, 2, 3]), np.array([1, 3, 0], dtype=np.intp), np.array([1.0, -0.5, 2.0]),
    np.array([-1.0, 1.0, 0.5]), 4,
)


class TestReferenceLoops:
    """`run` and `run_lookahead` against their per-step oracles in conftest:
    the same bytes, or DivergenceError at the same step."""

    @settings(max_examples=60, deadline=None)
    @example(
        d=FEW_ROWS, kind="logistic", beta=0.9, gamma=0.1, eta=0.3, w1_scale=0.5, steps=3000, chunk=7, seed=11
    )
    @example(d=EMPTY_ROW, kind="squared", beta=0.5, gamma=0.2, eta=0.1, w1_scale=-0.7, steps=40, chunk=3, seed=5)
    @given(
        d=small_datasets(),
        kind=st.sampled_from(["logistic", "squared"]),
        beta=st.floats(0.0, 1.0, exclude_max=True),
        gamma=st.floats(0.0, 0.5),
        eta=st.floats(1e-6, 0.5),
        w1_scale=st.floats(-1.0, 1.0),
        steps=st.integers(1, 40),
        chunk=st.integers(1, 9),
        seed=st.integers(0, 2**32),
    )
    def test_matches_per_step_oracle_byte_for_byte(self, d, kind, beta, gamma, eta, w1_scale, steps, chunk, seed):
        hp = HyperParams(beta=beta, gamma=gamma, eta=eta, iterations=steps)
        w1 = np.linspace(-w1_scale, w1_scale, d.dim)
        with mock.patch.object(optimizer, "STREAM_CHUNK", chunk):
            fast = _outcome(run, d, kind, hp, w1, SampleStream(seed, d.n))
            la = _outcome(run_lookahead, d, kind, beta, gamma, steps, w1, SampleStream(seed, d.n))
        slow = _outcome(run_per_step, d, kind, hp, w1, SampleStream(seed, d.n))
        if isinstance(slow, int):
            assert fast == slow
        else:
            for name in ("iterates", "gradients", "indices", "momenta"):
                a, b = getattr(fast, name), getattr(slow, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        slow_la = _outcome(run_lookahead_per_step, d, kind, beta, gamma, steps, w1, SampleStream(seed, d.n))
        if isinstance(slow_la, int):
            assert la == slow_la
        else:
            assert la.shape == slow_la.shape and la.tobytes() == slow_la.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        d=small_datasets(),
        kind=st.sampled_from(["logistic", "squared"]),
        beta=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
        gamma=st.just(0.0) | st.floats(0.0, 0.5),
        eta=st.floats(1e-6, 0.5),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    def test_momenta_equal_the_replay_byte_for_byte(self, d, kind, beta, gamma, eta, steps, seed):
        # the momenta a run records are the ones a replay of its gradients gives
        hp = HyperParams(beta=beta, gamma=gamma, eta=eta, iterations=steps)
        traj = _outcome(run, d, kind, hp, np.full(d.dim, 0.25), SampleStream(seed, d.n))
        assume(not isinstance(traj, int))
        assert traj.momenta.shape == traj.iterates.shape
        assert traj.momenta.tobytes() == momentum_buffers(traj).tobytes()

    @pytest.mark.parametrize("label", [2.0, -0.5, 0.0, -0.0, 0.1])
    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_any_real_label_is_taken(self, kind, label):
        # the reference loop and `loss_grad` read the unsigned rows: a label
        # the fast paths refuse trains as any other, and each step's gradient
        # is `loss_grad` at its iterate
        d = synthetic_binary_dataset(12, 4, seed=3)
        labels = d.labels.copy()
        labels[5] = label
        d = Dataset(d.indptr, d.indices, d.values, labels, d.dim)
        hp = HyperParams(beta=0.5, gamma=0.05, eta=0.1, iterations=60)
        traj = run(d, kind, hp, np.full(d.dim, 0.3), SampleStream(2, d.n))
        steps = np.flatnonzero(traj.indices == 6)
        assert steps.size and np.isfinite(traj.iterates).all()
        for k in steps:
            assert traj.gradients[k].tobytes() == loss_grad(traj.iterates[k], d, 5, kind).tobytes()
        idx, vals, y = d.row(5)
        w = traj.iterates[-1]
        want = grad_scales(float(np.dot(w[idx], vals)), label, kind) * vals
        assert y == label and loss_grad(w, d, 5, kind)[idx].tobytes() == want.tobytes()

    def test_trajectory_needs_one_momentum_per_iterate(self):
        with pytest.raises(ValueError, match="one momentum per iterate"):
            Trajectory(
                iterates=np.zeros((3, 2)), gradients=np.zeros((2, 2)), indices=np.ones(2, dtype=np.int64),
                hp=HyperParams(beta=0.5, gamma=0.0, eta=0.1, iterations=2), momenta=np.zeros((2, 2)),
            )

    # the squared loss: its gradient grows with the iterate, so about a third
    # of these runs leave float range within their steps
    @settings(max_examples=60, deadline=None)
    @given(
        d=small_datasets(),
        beta=st.floats(0.0, 0.99),
        boost=st.floats(1e4, 1e12),
        steps=st.integers(1, 300),
        chunk=st.integers(1, 64),
        seed=st.integers(0, 2**32),
    )
    def test_far_above_the_cap_diverges_at_the_oracle_step(self, d, beta, boost, steps, chunk, seed):
        kind = "squared"
        alpha = smoothness(d, kind).alpha
        assume(alpha > 0.0)
        hp = variant_params("nesterov", boost / alpha, beta, steps)
        w1 = np.full(d.dim, 0.5)
        with mock.patch.object(optimizer, "STREAM_CHUNK", chunk):
            fast = _outcome(run, d, kind, hp, w1, SampleStream(seed, d.n))
            la = _outcome(run_lookahead, d, kind, hp.beta, hp.gamma, steps, w1, SampleStream(seed, d.n))
        slow = _outcome(run_per_step, d, kind, hp, w1, SampleStream(seed, d.n))
        slow_la = _outcome(run_lookahead_per_step, d, kind, hp.beta, hp.gamma, steps, w1, SampleStream(seed, d.n))
        for got, expected in ((fast, slow), (la, slow_la)):
            if isinstance(expected, int):
                assert got == expected
            else:
                assert not isinstance(got, int)

    # squared loss on the one row x = 1, y = 0 at beta = 0, gamma = 0, eta = 3:
    # w_{k+1} = -2 w_k exactly, and eta * w_k leaves float range first at the
    # step k with w_k = +-2**1023, so w_1 = 2**(1024 - k) diverges at step k
    ONE_ROW = "0 1:1\n"
    T = 1500

    @pytest.mark.parametrize("k", [1, 2, optimizer.STREAM_CHUNK, optimizer.STREAM_CHUNK + 1, T])
    def test_divergence_step_matches_oracle(self, k):
        data = parse_libsvm(self.ONE_ROW)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=self.T)
        w1 = np.array([2.0 ** (1024 - k)])
        assert _outcome(run_per_step, data, "squared", hp, w1, SampleStream(0, 1)) == k
        assert _outcome(run, data, "squared", hp, w1, SampleStream(0, 1)) == k
        assert _outcome(run_lookahead_per_step, data, "squared", 0.0, 3.0, self.T, w1, SampleStream(0, 1)) == k
        assert _outcome(run_lookahead, data, "squared", 0.0, 3.0, self.T, w1, SampleStream(0, 1)) == k

    @pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 1400])
    def test_divergent_run_stops_within_a_block(self, k, monkeypatch):
        # the loops check the recorded rows once per STREAM_CHUNK steps, so
        # they take steps up to the end of the block the divergence falls in
        calls = []
        for name in ("_sgdm_update", "_lookahead_update"):
            update = getattr(optimizer, name)
            monkeypatch.setattr(optimizer, name, lambda *args, update=update: calls.append(1) or update(*args))
        data = parse_libsvm(self.ONE_ROW)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=self.T)
        w1 = np.array([2.0 ** (1024 - k)])
        block_end = min(-(-k // optimizer.STREAM_CHUNK) * optimizer.STREAM_CHUNK, self.T)
        for loop in (
            lambda: run(data, "squared", hp, w1, SampleStream(0, 1)),
            lambda: run_lookahead(data, "squared", 0.0, 3.0, self.T, w1, SampleStream(0, 1)),
        ):
            calls.clear()
            with pytest.raises(DivergenceError) as exc:
                loop()
            assert exc.value.step == k
            assert len(calls) == block_end
            assert len(calls) - k < optimizer.STREAM_CHUNK

    @pytest.mark.parametrize("n,steps", [(60, 2000), (5, 300)])
    def test_reads_each_drawn_row_once(self, n, steps):
        # the loops read a drawn row once per call, not once per step
        d = synthetic_binary_dataset(n, 8, seed=3)
        hp = HyperParams(beta=0.5, gamma=0.1, eta=0.05, iterations=steps)
        drawn = set((SampleStream(0, n).prefix(steps) - 1).tolist())
        for loop in (
            lambda: run(d, "logistic", hp, np.zeros(d.dim), SampleStream(0, n)),
            lambda: run_lookahead(d, "logistic", 0.5, 0.1, steps, np.zeros(d.dim), SampleStream(0, n)),
        ):
            with mock.patch.object(Dataset, "row", autospec=True, side_effect=Dataset.row) as row:
                loop()
            read = [call.args[1] for call in row.call_args_list]
            assert len(read) == len(set(read)) and set(read) <= drawn


class TestCoupledRun:
    """The reference pair: `run` on a dataset and on its neighbor, one stream."""

    def _setup(self, seed=0, n=30, dim=5, steps=400):
        """(data, train rows, perturbed, replacement, hp): the first n rows
        train, and the neighbor takes the first row of a second dataset."""
        rng = np.random.default_rng(seed + 100)
        idx = int(rng.integers(1, n + 1))
        data, rows, pool_rows = joined(
            synthetic_binary_dataset(n, dim, seed=seed), synthetic_binary_dataset(n, dim, seed=seed + 1)
        )
        hp = HyperParams(beta=0.5, gamma=0.01, eta=0.02, iterations=steps)
        return data, rows, idx, pool_rows[0], hp

    def test_initial_distance_zero(self):
        data, rows, idx, row, hp = self._setup()
        _, _, distances = reference_pair(data, rows, idx, row, "logistic", hp, np.zeros(5), SampleStream(1, 30))
        assert distances[0] == 0.0
        assert distances.shape == (401,)

    def test_exact_zero_until_first_hit(self):
        data, rows, idx, row, hp = self._setup(seed=3)
        _, _, distances = reference_pair(data, rows, idx, row, "logistic", hp, np.zeros(5), SampleStream(7, 30))
        hits = np.flatnonzero(SampleStream(7, 30).prefix(400) == idx)
        assert hits.size > 0, "perturbed index never sampled; pick another seed"
        first = hits[0]  # 0-based step position
        assert np.all(distances[: first + 1] == 0.0)
        assert distances[first + 1] > 0.0

    def test_identical_replacement_keeps_distance_zero(self):
        data, rows, idx, _, hp = self._setup(seed=5)
        _, _, distances = reference_pair(data, rows, idx, idx - 1, "logistic", hp, np.zeros(5), SampleStream(2, 30))
        assert np.all(distances == 0.0)

    def test_both_runs_share_index_sequence(self):
        data, rows, idx, row, hp = self._setup(seed=8)
        base, neighbor, _ = reference_pair(data, rows, idx, row, "logistic", hp, np.zeros(5), SampleStream(4, 30))
        np.testing.assert_array_equal(base.indices, neighbor.indices)
        np.testing.assert_array_equal(base.indices, SampleStream(4, 30).prefix(400))

    def test_neighbor_divergence_is_labeled(self):
        # squared loss with an enormous replacement feature blows up only
        # the neighbor run; the kernel censors the pair on that side
        data, rows, (big,) = joined(parse_libsvm("1 1:1\n-1 1:1\n1 1:1\n"), parse_libsvm("1 1:1e155\n"))
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=500)
        with pytest.raises(DivergenceError):
            reference_pair(data, rows, 1, big, "squared", hp, np.zeros(1), SampleStream(0, 3))
        assert np.isfinite(run(data.take(rows), "squared", hp, np.zeros(1), SampleStream(0, 3)).iterates).all()
        batch = coupled_distance_batch(
            data, rows[None, :], [1], [big], [SampleStream(0, 3)], "squared", [hp], np.zeros(1), 1,
        )
        assert batch.diverged_which[0, 0] == "neighbor"


class TestCoupledRunDivergence:
    """The kernel's censoring of one pair at stride 1, against `run` on each side."""

    # squared loss, plain SGD at step 3 on rows x = 1: |w| doubles every step,
    # so a run on these rows alone leaves float range after about 1000 steps
    ROWS = "1 1:1\n-1 1:1\n1 1:1\n"
    HP = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=5000)

    def _censored(self, data, rows, perturbed, replacement, hp=HP, seed=0):
        """(step, side) at which the one-pair kernel censors the pair of the
        rows `rows` of `data` and its neighbor, which puts row `replacement`
        at 1-based position `perturbed`."""
        batch = coupled_distance_batch(
            data, np.asarray(rows)[None, :], [perturbed], [replacement], [SampleStream(seed, len(rows))],
            "squared", [hp], np.zeros(1), 1,
        )
        assert np.isnan(batch.distances[0, 0]).all()
        return int(batch.diverged_step[0, 0]), str(batch.diverged_which[0, 0])

    def _run_raises_at(self, data):
        with pytest.raises(DivergenceError) as exc:
            run(data, "squared", self.HP, np.zeros(1), SampleStream(0, data.n))
        return exc.value.step

    def test_side_that_diverges_first_is_labeled(self):
        # the neighbor's 1e155 feature overflows at its first hit, long before
        # the base leaves float range; the base with that row, the other way round
        data, rows, (big,) = joined(parse_libsvm(self.ROWS), parse_libsvm("1 1:1e155\n"))
        step, which = self._censored(data, rows, 1, big)
        assert which == "neighbor"
        swapped = [big, 1, 2]
        assert self._run_raises_at(data.take(swapped)) <= step < 100
        assert self._censored(data, swapped, 1, 0) == (step, "base")

    def test_tie_is_labeled_both(self):
        # with an identical replacement both sides leave float range together
        data = parse_libsvm(self.ROWS)
        step, which = self._censored(data, np.arange(3), 1, 0)
        assert which == "both"
        assert self._run_raises_at(data) <= step

    def test_distance_leaving_float_range_censors_both_at_first_hit(self):
        # w stays 0 on the empty rows; the stream draws row 2 once, at step 4,
        # and one step at eta = 1 on its feature of 1e308 takes the sides to
        # +-1e308 by its label: both finite, their gap not
        hp = HyperParams(beta=0.0, gamma=0.0, eta=1.0, iterations=8)
        data, rows, (low,) = joined(parse_libsvm("1\n1 1:1e308\n1\n"), parse_libsvm("-1 1:1e308\n"))
        assert np.flatnonzero(SampleStream(4, 3).prefix(8) == 2).tolist() == [3]
        assert self._censored(data, rows, 2, low, hp, seed=4) == (4, "both")
        # the reference loop raises on neither side
        for side, w in ((rows, 1e308), ([0, low, 2], -1e308)):
            iterates = run(data.take(side), "squared", hp, np.zeros(1), SampleStream(4, 3)).iterates
            assert iterates[-1].tolist() == [w]


def one_pair_series(data, rows, perturbed, replacement, kind, hp, w1, stream, stride):
    """Distance series of the one pair of the rows `rows` of `data` and its
    neighbor, which puts row `replacement` at 1-based position `perturbed`,
    from the batched kernel; the pair must not be censored."""
    batch = coupled_distance_batch(
        data, np.asarray(rows)[None, :], [perturbed], [replacement], [stream], kind, [hp], w1, stride,
    )
    assert batch.diverged_step[0, 0] == 0
    return batch.distances[0, 0]


class TestCoupledDistanceSeries:
    """The batched kernel on a single pair."""

    def test_matches_full_coupled_run(self):
        data, rows, pool_rows = joined(
            synthetic_binary_dataset(40, 6, seed=11), synthetic_binary_dataset(4, 6, seed=12)
        )
        pair = (data, rows, 5, pool_rows[0], "logistic")
        for beta, gamma, eta in [(0.0, 0.02, 0.03), (0.9, 0.0, 0.01), (0.5, 0.04, 0.02)]:
            hp = HyperParams(beta=beta, gamma=gamma, eta=eta, iterations=200)
            _, _, distances = reference_pair(*pair, hp, np.zeros(6), SampleStream(6, 40))
            fast = one_pair_series(*pair, hp, np.zeros(6), SampleStream(6, 40), stride=1)
            # fast[j] is the distance after step j+1 = distances[j+1]
            np.testing.assert_allclose(fast, distances[1:], rtol=1e-9, atol=1e-12)

    def test_stride_subsamples(self):
        pair = (synthetic_binary_dataset(40, 6, seed=13), np.arange(40), 2, 10, "logistic")
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.05, iterations=100)
        full = one_pair_series(*pair, hp, np.zeros(6), SampleStream(1, 40), stride=1)
        strided = one_pair_series(*pair, hp, np.zeros(6), SampleStream(1, 40), stride=25)
        np.testing.assert_allclose(strided, full[24::25], rtol=0, atol=0)

    def test_pre_hit_zero_is_exact(self):
        data, rows, pool_rows = joined(
            synthetic_binary_dataset(40, 6, seed=14), synthetic_binary_dataset(4, 6, seed=15)
        )
        hp = HyperParams(beta=0.9, gamma=0.01, eta=0.009, iterations=300)
        pair = (data, rows, 9, pool_rows[1], "logistic")
        series = one_pair_series(*pair, hp, np.zeros(6), SampleStream(21, 40), stride=1)
        idx = SampleStream(21, 40).prefix(300)
        hits = np.flatnonzero(idx == 9)
        assert hits.size > 0
        assert np.all(series[: hits[0]] == 0.0)


class TestCoupledBatch:
    """One batched call against per-pair references, every (rep, point)."""

    DIM = 6
    N_TRAIN = 24
    T = 96

    def _setup(self):
        data = synthetic_binary_dataset(30, self.DIM, seed=21)
        pool = synthetic_binary_dataset(8, self.DIM, seed=22)
        examples = stack([data, pool], self.DIM)
        nnz = examples.nnz.tolist()
        assert len(set(nnz)) > 2, "rows should have unequal nnz"
        rng = np.random.default_rng(5)
        train_rows = np.stack([np.sort(rng.choice(30, self.N_TRAIN, replace=False)) for _ in range(3)])
        perturbed = np.array([4, 11, 20])
        # each replacement comes from the pool and differs in nnz from the
        # train row it replaces
        replacements = []
        for r, pos in enumerate(perturbed):
            replaced = nnz[train_rows[r, pos - 1]]
            replacements.append(next(30 + i for i in range(8) if nnz[30 + i] != replaced))
        seeds = [3, 4, 5]
        return examples, train_rows, perturbed, np.array(replacements), seeds

    def _grid(self):
        T = self.T
        return [
            HyperParams(beta=0.0, gamma=0.0, eta=0.05, iterations=T),
            variant_params("hb", 0.04, 0.9, T),
            variant_params("nesterov", 0.05, 0.5, T),
            HyperParams(beta=0.5, gamma=0.03, eta=0.03, iterations=T),
        ]

    def _batch(self, kind, points, stride, w1, inputs=None):
        examples, train_rows, perturbed, replacements, seeds = inputs or self._setup()
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        batch = coupled_distance_batch(
            examples, train_rows, perturbed, replacements,
            streams, kind, points, w1, stride,
        )
        return batch, (examples, train_rows, perturbed, replacements, seeds)

    def _assert_every_pair_matches_reference(self, batch, inputs, kind, points, stride, w1):
        examples, train_rows, perturbed, replacements, seeds = inputs
        assert not batch.diverged_step.any()
        for r in range(3):
            pair = (examples, train_rows[r], int(perturbed[r]), int(replacements[r]), kind)
            for g, hp in enumerate(points):
                _, _, distances = reference_pair(*pair, hp, w1, SampleStream(seeds[r], self.N_TRAIN))
                np.testing.assert_allclose(batch.distances[r, g], distances[stride::stride], rtol=1e-9, atol=1e-12)
            assert batch.distances[r, :, -1].min() > 0.0, "perturbed index never sampled"

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_every_pair_matches_coupled_run(self, kind, monkeypatch):
        # small stream chunks put perturbed hits and strides across chunk ends
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 7)
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        stride = 3
        batch, inputs = self._batch(kind, points, stride, w1)
        assert batch.distances.shape == (3, 4, self.T // stride)
        self._assert_every_pair_matches_reference(batch, inputs, kind, points, stride, w1)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("case", ["empty_replacement", "same_step_hits", "chunk_edge_hits"])
    def test_edge_inputs_match_coupled_run(self, case, kind, monkeypatch):
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 8)
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        draws = [SampleStream(s, self.N_TRAIN).prefix(self.T) for s in seeds]
        if case == "empty_replacement":
            # repetition 0's neighbor takes a row with no entries
            examples = stack([examples, parse_libsvm("1\n")], self.DIM)
            replacements = np.array([examples.n - 1, *replacements[1:]])
            assert examples.nnz[-1] == 0
        elif case == "same_step_hits":
            # repetitions 0 and 1 both reach their perturbed index at step 11
            perturbed = np.array([draws[0][10], draws[1][10], perturbed[2]])
        else:
            # with 8-step chunks, repetition 0 hits on the first step of the
            # second chunk and repetition 1 on its last
            perturbed = np.array([draws[0][8], draws[1][15], perturbed[2]])
        inputs = (examples, train_rows, perturbed, replacements, seeds)
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        batch, _ = self._batch(kind, points, 1, w1, inputs)
        self._assert_every_pair_matches_reference(batch, inputs, kind, points, 1, w1)

    def test_pair_does_not_depend_on_its_batch(self):
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        batch, (examples, train_rows, perturbed, replacements, seeds) = self._batch(
            "logistic", points, 1, w1
        )
        for r in range(3):
            for g, hp in enumerate(points):
                alone = coupled_distance_batch(
                    examples, train_rows[r : r + 1], perturbed[r : r + 1], replacements[r : r + 1],
                    [SampleStream(seeds[r], self.N_TRAIN)], "logistic", [hp], w1, 1,
                )
                np.testing.assert_array_equal(batch.distances[r, g], alone.distances[0, 0])

    def test_pair_does_not_depend_on_pairs_censored_mid_block(self, monkeypatch):
        # squared loss: repetition 1's neighbor takes a huge row, so all its
        # pairs are censored at its first hit, and the two far-too-large
        # steps (one with beta > 0, one with gamma > 0 and beta = 0) censor
        # their pairs later; every censoring falls inside a 16-step stream
        # chunk, and the pairs that outlive it must not notice it
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 16)
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        examples = stack([examples, parse_libsvm("1 1:1e155\n")], self.DIM)
        replacements = np.array([replacements[0], examples.n - 1, replacements[2]])
        T = self.T
        points = [
            HyperParams(beta=0.0, gamma=0.0, eta=0.05, iterations=T),
            variant_params("hb", 1e4, 0.9, T),
            variant_params("hb", 0.04, 0.9, T),
            HyperParams(beta=0.0, gamma=3e3, eta=2e3, iterations=T),
            variant_params("nesterov", 0.05, 0.5, T),
            HyperParams(beta=0.5, gamma=0.03, eta=0.03, iterations=T),
        ]
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        risk_data = examples.take(train_rows[0])
        batch = coupled_distance_batch(
            examples, train_rows, perturbed, replacements, [SampleStream(s, self.N_TRAIN) for s in seeds],
            "squared", points, w1, 1, risk_data=risk_data,
        )
        steps = batch.diverged_step
        assert steps[1].all() and steps[[0, 2]][:, [1, 3]].all()
        assert not steps[[0, 2]][:, [0, 2, 4, 5]].any()
        censored = steps[steps > 0]
        assert len(set(censored.tolist())) > 2 and (censored % 16).all()
        for r in range(3):
            for g, hp in enumerate(points):
                alone = coupled_distance_batch(
                    examples, train_rows[r : r + 1], perturbed[r : r + 1], replacements[r : r + 1],
                    [SampleStream(seeds[r], self.N_TRAIN)], "squared", [hp], w1, 1, risk_data=risk_data,
                )
                np.testing.assert_array_equal(batch.distances[r, g], alone.distances[0, 0])
                np.testing.assert_array_equal(batch.sum_risk[r, g], alone.sum_risk[0, 0])
                assert batch.diverged_step[r, g] == alone.diverged_step[0, 0]
                assert batch.diverged_which[r, g] == alone.diverged_which[0, 0]

    def _censoring_inputs(self, censored_reps):
        """The setup with the neighbors of `censored_reps` taking a row whose
        feature of 1e155 sends their logistic margins out of float range."""
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        examples = stack([examples, parse_libsvm("1 1:1e155\n")], self.DIM)
        replacements = replacements.copy()
        replacements[censored_reps] = examples.n - 1
        return examples, train_rows, perturbed, replacements, seeds

    @staticmethod
    def _recorded_margins(monkeypatch):
        """A copy of the signed margins z = -y <w, x> of each scale call the
        kernel makes, in order."""
        recorded = []

        def recorded_signed(z, kind, out):
            recorded.append(z.copy())
            return signed_scales(z, kind, out)

        monkeypatch.setattr(optimizer, "signed_scales", recorded_signed)
        return recorded

    def test_censored_pair_is_frozen_finite(self, monkeypatch):
        # repetition 1's margins pass 709 and leave float range, and its pairs
        # are censored; frozen at w = m = 0, they hold no NaN, so every later
        # step's margins are finite again
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 16)
        recorded = self._recorded_margins(monkeypatch)
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        batch, _ = self._batch("logistic", self._grid(), 1, w1, self._censoring_inputs([1]))
        censored = batch.diverged_step[batch.diverged_step > 0]
        assert censored.size == 4 and not batch.diverged_step[[0, 2]].any()
        last = int(censored.max())
        finite = [np.isfinite(m).all() for m in recorded]
        assert len(recorded) == self.T and last < self.T
        assert any(((np.abs(m) > 709.0) & np.isfinite(m)).any() for m in recorded[:last])
        assert not all(finite[:last]) and all(finite[last:])

    def test_frozen_momentum_does_not_build_up(self, monkeypatch):
        # the feature of 1e308 censors the pair within a few steps; frozen,
        # it still reads that row about every other step, and at beta = 0.9
        # the momentum of those gradients would leave float range, so the
        # freeze sets beta to 0 too and every later margin is 0
        data = parse_libsvm("1 1:1e308\n-1 1:1\n")
        recorded = self._recorded_margins(monkeypatch)
        batch = coupled_distance_batch(
            data, np.array([[0, 1]]), [2], [1], [SampleStream(0, 2)], "logistic",
            [variant_params("hb", 0.1, 0.9, 50)], np.zeros(1), 1,
        )
        last = int(batch.diverged_step[0, 0])
        assert 0 < last < 40 and len(recorded) == 50
        assert not all(np.isfinite(m).all() for m in recorded[:last])
        assert not np.any(recorded[last:])

    def test_all_censored_call_stops_at_the_end_of_its_block(self, monkeypatch):
        # every neighbor takes the 1e155 row, so every pair is censored; the
        # call steps on to the end of the stream block of the last censoring
        chunk = 16
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", chunk)
        recorded = self._recorded_margins(monkeypatch)
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        batch, _ = self._batch("logistic", self._grid(), 1, w1, self._censoring_inputs([0, 1, 2]))
        assert batch.diverged_step.all()
        last = int(batch.diverged_step.max())
        block_end = -(-last // chunk) * chunk
        assert block_end < self.T
        assert last <= len(recorded) <= block_end

    @staticmethod
    def _plain_step_loop(monkeypatch):
        """The kernel with rows gathered one step at a time, numpy's updates in
        place of the compiled writes, each gradient scale from the scalar path
        of `grad_scales`, and every margin tested for finiteness, not their
        sum: the arithmetic of a plain step loop."""

        def add_rows(target, flat, values, colptr, scales):
            target.reshape(-1)[flat] += scales[:, :, None] * values

        def add_product(target, factor, source):
            target -= -factor * source

        def scalar_scales(z, kind, out):
            # the signed row of a label -1 is the row itself, so the scale at
            # z is the reference's at margin z and label -1
            out[...] = np.reshape([grad_scales(m, -1.0, kind) for m in z.ravel().tolist()], z.shape)
            return out

        monkeypatch.setattr(optimizer, "_add_rows", add_rows)
        monkeypatch.setattr(optimizer, "_add_product", add_product)
        monkeypatch.setattr(optimizer, "signed_scales", scalar_scales)
        # the kernel's `math` only tests the margins' sum: as never finite,
        # every step tests its margins one by one
        monkeypatch.setattr(optimizer, "math", SimpleNamespace(isfinite=lambda total: False))
        monkeypatch.setattr(optimizer, "_gather_steps", lambda width: 1)

    @pytest.mark.parametrize("case", ["drop_mid_sub_block", "chunk_not_a_multiple", "logistic_past_709"])
    def test_sub_blocks_and_compiled_writes_keep_the_plain_loop_bytes(self, case, monkeypatch):
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        if case == "drop_mid_sub_block":
            # the huge row censors repetition 1's pairs at its first hit, and
            # the far-too-large steps censor theirs later, inside 5-step
            # sub-blocks of 16-step stream blocks
            chunk, sub, kind, stride = 16, 5, "squared", 1
            examples = stack([examples, parse_libsvm("1 1:1e155\n")], self.DIM)
            replacements = np.array([replacements[0], examples.n - 1, replacements[2]])
            points = [
                HyperParams(beta=0.0, gamma=0.0, eta=0.05, iterations=self.T),
                variant_params("hb", 1e4, 0.9, self.T),
                HyperParams(beta=0.0, gamma=3e3, eta=2e3, iterations=self.T),
                variant_params("nesterov", 0.05, 0.5, self.T),
            ]
        elif case == "chunk_not_a_multiple":
            # 3-step sub-blocks of 7-step stream blocks: every block ends in a
            # one-step sub-block
            chunk, sub, kind, stride = 7, 3, "logistic", 3
            points = self._grid()
        else:
            # repetition 0's neighbor reads, at its first step, a row whose
            # margin is 709.0000362545957, where glibc's complex exp differs
            # from its exp in the last bit; its feature of 1e308 carries that
            # bit into the distance.  The other neighbors read the 1e155 row,
            # whose margins pass 709 and overflow, and the step of 1e4 censors
            # its pairs; the pairs left run to the end
            chunk, sub, kind, stride = 16, 5, "logistic", 1
            examples = stack([examples, parse_libsvm("1 1:1e155\n1 7:1 8:1e308\n")], self.DIM + 2)
            perturbed = np.array([SampleStream(seeds[0], self.N_TRAIN).prefix(1)[0], *perturbed[1:]])
            replacements = np.array([examples.n - 1, examples.n - 2, examples.n - 2])
            w1 = np.concatenate([w1, [709.0000362545957, 0.0]])
            points = [
                HyperParams(beta=0.0, gamma=0.0, eta=0.05, iterations=self.T),
                variant_params("hb", 1e4, 0.9, self.T),
                variant_params("nesterov", 0.05, 0.5, self.T),
                HyperParams(beta=0.5, gamma=0.03, eta=0.03, iterations=self.T),
            ]
        args = (
            examples, train_rows, perturbed, replacements, [SampleStream(s, self.N_TRAIN) for s in seeds],
            kind, points, w1, stride,
        )
        risk_data = examples.take(train_rows[0])
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", chunk)
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "_gather_steps", lambda width: sub)
            recorded = self._recorded_margins(patch)
            batch = coupled_distance_batch(*args, risk_data=risk_data)
        self._plain_step_loop(monkeypatch)
        plain = coupled_distance_batch(*args, risk_data=risk_data)
        if case == "drop_mid_sub_block":
            # block-local 0-based step of each drop; the first drop of a block
            # falls inside its sub-block when it is not the sub-block's last step
            local = (batch.diverged_step[batch.diverged_step > 0] - 1) % chunk
            assert ((local % sub != sub - 1) & (local != chunk - 1)).any()
            assert not batch.diverged_step[[0, 2]][:, [0, 3]].any()
        elif case == "chunk_not_a_multiple":
            assert not batch.diverged_step.any()
        else:
            # the first step's signed margins reach z = -709.0000362545957 (the
            # row's label is 1), margins past 709 and non-finite ones occur
            # later too, and so do steps whose margins are all finite;
            # repetition 0 keeps three pairs to the end
            assert -709.0000362545957 in recorded[0]
            assert any(((np.abs(m) > 709.0) & np.isfinite(m)).any() for m in recorded[1:])
            finite = [np.isfinite(m).all() for m in recorded]
            assert any(finite) and not all(finite)
            assert batch.diverged_step[1:].all() and (batch.diverged_step[0] > 0).sum() == 1
        for name in ("distances", "diverged_step", "diverged_which", "sum_risk"):
            assert getattr(batch, name).tobytes() == getattr(plain, name).tobytes(), name

    def test_labels_other_than_unit_are_refused(self, monkeypatch):
        # one row of the data, or of the risk data alone, takes another label;
        # the kernel reads signed rows only, and raises before its first step
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        monkeypatch.setattr(optimizer, "signed_scales", mock.Mock(side_effect=AssertionError("a step ran")))
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        points, w1 = self._grid(), np.zeros(self.DIM)
        for label in (2.0, -0.5, 0.0, -0.0, 0.1):
            labels = examples.labels.copy()
            labels[train_rows[0, 5]] = label
            other = Dataset(examples.indptr, examples.indices, examples.values, labels, examples.dim)
            for kind in ("logistic", "squared"):
                for data, risk_data in ((other, None), (examples, other.take(train_rows[0]))):
                    with pytest.raises(DataError, match=re.escape(f"labels of +-1, got {label!r}")):
                        coupled_distance_batch(
                            data, train_rows, perturbed, replacements, streams, kind, points, w1, 3,
                            risk_data=risk_data,
                        )

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_risks_match_coupled_run_base_iterates(self, kind, monkeypatch):
        # 10-step stream blocks cut T = 96 into uneven blocks; repetition 1's
        # neighbor takes a huge row, so its pairs are censored mid-run
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 10)
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        examples = stack([examples, parse_libsvm("1 1:1e155\n")], self.DIM)
        replacements = np.array([replacements[0], examples.n - 1, replacements[2]])
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        batch = coupled_distance_batch(
            examples, train_rows, perturbed, replacements, streams, kind, points, w1, 3,
            risk_data=examples.take(train_rows[0]),
        )
        assert batch.sum_risk.shape == (3, 4)
        censored = batch.diverged_step > 0
        assert censored[1].all() and not censored[[0, 2]].any()
        assert np.isnan(batch.sum_risk[censored]).all()
        risk_data = examples.take(train_rows[0])
        for r in (0, 2):
            train = examples.take(train_rows[r])
            for g, hp in enumerate(points):
                base = run(train, kind, hp, w1, SampleStream(seeds[r], self.N_TRAIN))
                expected = empirical_risk_many(base.iterates[: self.T], risk_data, kind).sum()
                np.testing.assert_allclose(batch.sum_risk[r, g], expected, rtol=1e-9, atol=1e-12)

    def test_without_risk_data_there_are_no_risks(self):
        batch, _ = self._batch("logistic", self._grid(), 3, np.zeros(self.DIM))
        assert batch.sum_risk is None

    def test_neighbor_divergence_is_labeled(self):
        # the enormous replacement feature blows up only the neighbor run
        data = parse_libsvm("1 1:1\n-1 1:1\n1 1:1\n")
        both = stack([data, parse_libsvm("1 1:1e155\n")], 1)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=500)
        batch = coupled_distance_batch(
            both, np.array([[0, 1, 2]]), [1], [3], [SampleStream(0, 3)], "squared", [hp],
            np.zeros(1), 10,
        )
        assert batch.diverged_step[0, 0] > 0
        assert batch.diverged_which[0, 0] == "neighbor"
        assert np.isnan(batch.distances[0, 0]).all()

    def test_rejects_mismatched_inputs(self):
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        hp = variant_params("hb", 0.01, 0.5, 10)
        w1 = np.zeros(self.DIM)
        with pytest.raises(ValueError, match="out of range"):
            coupled_distance_batch(examples, train_rows, [0, 1, 1], replacements, streams, "logistic", [hp], w1, 1)
        with pytest.raises(ValueError, match="iterations"):
            coupled_distance_batch(
                examples, train_rows, perturbed, replacements, streams, "logistic",
                [hp, variant_params("hb", 0.01, 0.5, 11)], w1, 1,
            )
        with pytest.raises(ValueError, match="stream"):
            coupled_distance_batch(examples, train_rows, perturbed, replacements, streams[:2], "logistic", [hp], w1, 1)
        with pytest.raises(ValueError, match="repetition"):
            coupled_distance_batch(examples, train_rows, perturbed, replacements, streams, "logistic", [], w1, 1)

    @pytest.mark.parametrize(
        "train, replacement", [(np.arange(-5, 5), 3), (np.arange(11, 21), 3), (np.arange(10), -1), (np.arange(10), 25)]
    )
    def test_rejects_row_positions_outside_the_data(self, train, replacement):
        # numpy would wrap a negative position to the end of the data
        data = synthetic_binary_dataset(20, 4, seed=1)
        with pytest.raises(ValueError, match=r"row positions must be in 0\.\.19"):
            coupled_distance_batch(
                data, train[None], [1], [replacement], [SampleStream(0, 10)], "logistic",
                [variant_params("hb", 0.01, 0.5, 10)], np.zeros(4), 1,
            )

    def test_memory_does_not_grow_with_iterations(self, monkeypatch):
        # index draws come STREAM_CHUNK steps per repetition at a time, so the
        # kernel's peak is the same at one and twenty times the horizon, and
        # far below a single (reps, T) index array of the longer run
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 64)
        data = synthetic_binary_dataset(400, 5, seed=0)
        # the row tables are built once per dataset, before the measured calls
        data.padded
        rng = np.random.default_rng(1)
        R, n = 10, 320
        train_rows = np.stack([np.sort(rng.choice(400, n, replace=False)) for _ in range(R)])
        peaks = {}
        for epochs in (1, 20):
            T = epochs * n
            args = (
                data, train_rows, rng.integers(1, n + 1, R), rng.integers(0, 400, R),
                [SampleStream(s, n) for s in range(R)], "logistic", [variant_params("hb", 0.01, 0.5, T)],
                np.zeros(5), T // 4,
            )
            tracemalloc.start()
            try:
                batch = coupled_distance_batch(*args)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert batch.distances.shape == (R, 1, 4)
        one_index_array = 8 * R * 20 * n
        assert peaks[20] < one_index_array / 5
        assert peaks[20] < 1.1 * peaks[1]

    @settings(max_examples=25, deadline=None)
    @given(
        beta=st.floats(0.0, 0.95),
        share=st.floats(0.05, 1.0),
        scale=st.floats(0.05, 1.0),
        kind=st.sampled_from(["logistic", "squared"]),
    )
    def test_property_matches_coupled_run_within_stab_condition(self, beta, share, scale, kind):
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        train0 = examples.take(train_rows[0])
        alpha = smoothness(train0, kind).alpha
        # split the condition's budget 1/alpha between the eta and gamma terms
        a = (1 + beta) * (3 - beta) / (1 - beta) ** 2
        b = (beta * beta + 3) / (2 * (1 - beta) ** 2)
        hp = HyperParams(
            beta=beta, gamma=scale * (1 - share) / (b * alpha), eta=scale * share / (a * alpha),
            iterations=2 * self.N_TRAIN,
        )
        assume(check_stab_condition(hp, alpha).satisfied)
        w1 = np.full(self.DIM, 0.1)
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        batch = coupled_distance_batch(
            examples, train_rows, perturbed, replacements, streams,
            kind, [hp], w1, 1,
        )
        for r in range(3):
            pair = (examples, train_rows[r], int(perturbed[r]), int(replacements[r]), kind)
            _, _, distances = reference_pair(*pair, hp, w1, SampleStream(seeds[r], self.N_TRAIN))
            np.testing.assert_allclose(batch.distances[r, 0], distances[1:], rtol=1e-9, atol=1e-12)


class TestCompiledWrites:
    """The kernel's compiled writes against numpy's updates, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.integers(1, 6),
        width=st.integers(1, 9),
        dim=st.integers(1, 12),
        gamma=st.floats(1e-5, 1e5),
        magnitude=st.floats(-5.0, 5.0),
        special=st.lists(st.sampled_from([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, 1e308, 5e-324]), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_numpy_updates(self, pairs, width, dim, gamma, magnitude, special, seed):
        rng = np.random.default_rng(seed)
        # padded (pair, side) rows of varying width: distinct columns first,
        # then column `dim` with value 0 up to the width
        cols = np.full((pairs, 2, width), dim)
        vals = np.zeros((pairs, 2, width))
        for p in range(pairs):
            for side in range(2):
                k = int(rng.integers(0, min(width, dim) + 1))
                cols[p, side, :k] = np.sort(rng.choice(dim, k, replace=False))
                vals[p, side, :k] = rng.standard_normal(k) * 10.0**magnitude
        flat = 2 * ((dim + 1) * np.arange(pairs)[:, None, None] + cols) + np.arange(2)[:, None]
        colptr = np.arange(0, 2 * pairs * width + 1, width, dtype=np.intp)
        state = rng.standard_normal((pairs, dim + 1, 2)) * 10.0 ** rng.uniform(-5, 5)
        momentum = rng.standard_normal(state.shape) * 10.0 ** rng.uniform(-5, 5)
        scales = rng.standard_normal((pairs, 2)) * 10.0**magnitude
        # non-finite scales and momenta; the state may be infinite but not NaN,
        # since a NaN entry stays NaN but its sign and payload may differ
        for value in special:
            for a in (scales, momentum) if np.isnan(value) else (scales, state, momentum):
                a.flat[rng.integers(a.size)] = value

        def check(update, compiled):
            want, got = state.copy(), state.copy()
            # as in the kernel, which censors what overflows
            with np.errstate(over="ignore", invalid="ignore"):
                update(want)
                compiled(got)
            assert got.tobytes() == want.tobytes()

        # the gradient write into the momentum, and into the iterate with gamma > 0
        def momentum_write(w):
            w.reshape(-1)[flat] += scales[:, :, None] * vals

        def iterate_write(w):
            w.reshape(-1)[flat] -= (gamma * scales)[:, :, None] * vals

        check(momentum_write, lambda w: optimizer._add_rows(w, flat, vals, colptr, scales))
        neg_gamma = -np.full((pairs, 1), gamma)
        check(iterate_write, lambda w: optimizer._add_rows(w, flat, vals, colptr, neg_gamma * scales))
        # the step w -= eta * m
        eta = np.broadcast_to(10.0 ** rng.uniform(-5, 5, (pairs, 1, 1)), state.shape).copy()

        def step(w):
            w -= eta * momentum

        check(step, lambda w: optimizer._add_product(w, -eta, momentum))


class TestAverageIterate:
    def test_upto_one_is_w1(self):
        data = synthetic_binary_dataset(10, 3, seed=0)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=5)
        w1 = np.array([1.0, 2.0, 3.0])
        traj = run(data, "logistic", hp, w1, SampleStream(0, 10))
        np.testing.assert_array_equal(average_iterate(traj, 1), w1)

    def test_hand_mean(self):
        iterates = np.array([[0.0], [2.0], [4.0]])
        traj = Trajectory(
            iterates=iterates,
            gradients=np.zeros((2, 1)),
            indices=np.ones(2, dtype=np.int64),
            hp=HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=2),
            momenta=np.zeros((3, 1)),
        )
        np.testing.assert_allclose(average_iterate(traj, 2), [1.0])
        np.testing.assert_allclose(average_iterate(traj, 3), [2.0])

    def test_range_validation(self):
        traj = Trajectory(
            iterates=np.zeros((3, 1)),
            gradients=np.zeros((2, 1)),
            indices=np.ones(2, dtype=np.int64),
            hp=HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=2),
            momenta=np.zeros((3, 1)),
        )
        with pytest.raises(ValueError):
            average_iterate(traj, 0)
        with pytest.raises(ValueError):
            average_iterate(traj, 4)
