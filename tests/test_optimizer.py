import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdm_stability import optimizer
from sgdm_stability.dataset import (
    Dataset,
    Example,
    NeighborSpec,
    SparseVector,
    parse_libsvm,
    synthetic_binary_dataset,
)
from sgdm_stability.losses import empirical_risk, loss_grad, smoothness
from sgdm_stability.theory import check_stab_condition
from sgdm_stability.optimizer import (
    DivergenceError,
    HyperParams,
    LookaheadState,
    SampleStream,
    SgdmState,
    Trajectory,
    average_iterate,
    coupled_distance_batch,
    coupled_distance_series,
    coupled_run,
    hb_params,
    lookahead_step,
    momentum_buffers,
    nesterov_params,
    padded_rows,
    read_iterates_bin,
    replay_matches,
    run,
    run_lookahead,
    sgdm_step,
    write_iterates_bin,
    write_trajectory_csv,
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
        hp = hb_params(0.05, 0.9, 100)
        assert hp.gamma == 0.0 and hp.eta == 0.05 and hp.beta == 0.9

    def test_nesterov_ties_eta(self):
        hp = nesterov_params(0.1, 0.5, 100)
        assert hp.eta == pytest.approx(0.05, rel=0, abs=0)

    def test_nesterov_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            nesterov_params(0.1, 0.0, 100)

    def test_hb_run_is_general_run_with_gamma_zero(self):
        data = synthetic_binary_dataset(30, 6, seed=0)
        hp1 = hb_params(0.05, 0.7, 200)
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
            w = w - (gamma + eta) * loss_grad(w, data.examples[idx[k] - 1], kind)
            worst = max(worst, float(np.abs(w - traj.iterates[k + 1]).max()))
        assert worst <= 1e-12


class TestLookahead:
    def test_first_step_matches_momentum_form(self):
        # with u_0 = w_1 both forms give w_2 = w_1 - gamma g - beta gamma g
        w1 = np.array([1.0, -2.0])
        g = np.array([0.5, 1.0])
        beta, gamma = 0.5, 0.1
        s = LookaheadState(u_prev=w1.copy(), u_curr=w1.copy(), w=w1.copy(), step=0)
        s = lookahead_step(s, g, beta, gamma)
        expected = w1 - gamma * g - beta * gamma * g
        np.testing.assert_allclose(s.w, expected, rtol=1e-15)

    def test_beta_zero_is_plain_sgd(self):
        w1 = np.array([2.0])
        g = np.array([1.0])
        s = LookaheadState(u_prev=w1.copy(), u_curr=w1.copy(), w=w1.copy(), step=0)
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
        la = LookaheadState(u_prev=np.zeros(d), u_curr=np.zeros(d), w=np.zeros(d), step=0)
        worst = 0.0
        for k in range(T):
            sm = sgdm_step(sm, grads[k], hp)
            la = lookahead_step(la, grads[k], beta, gamma)
            worst = max(worst, float(np.abs(sm.w - la.w).max()))
        assert worst <= 1e-9

    def test_data_driven_equivalence(self):
        data = synthetic_binary_dataset(50, 7, seed=2)
        beta, gamma = 0.8, 0.02
        hp = nesterov_params(gamma, beta, 1000)
        traj = run(data, "logistic", hp, np.zeros(7), SampleStream(9, 50))
        la = run_lookahead(data, "logistic", beta, gamma, 1000, np.zeros(7), SampleStream(9, 50))
        assert float(np.abs(traj.iterates - la).max()) <= 1e-9


class TestSampleStream:
    def test_deterministic_and_order_independent(self):
        a = SampleStream(3, 17)
        b = SampleStream(3, 17)
        # query b out of order, a in order
        vals_b = [b.index(k) for k in (500, 3, 42, 1)]
        vals_a = [a.index(k) for k in range(1, 501)]
        assert vals_b[0] == vals_a[499]
        assert vals_b[1] == vals_a[2]
        assert vals_b[2] == vals_a[41]
        assert vals_b[3] == vals_a[0]
        np.testing.assert_array_equal(a.prefix(500), b.prefix(500))

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
        with pytest.raises(ValueError):
            SampleStream(0, 5).index(0)

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
        assert replay_matches(traj)

    def test_momentum_unrolls_to_geometric_sum(self):
        data = synthetic_binary_dataset(25, 5, seed=7)
        hp = HyperParams(beta=0.7, gamma=0.0, eta=0.05, iterations=100)
        traj = run(data, "logistic", hp, np.zeros(5), SampleStream(3, 25))
        m = momentum_buffers(traj)
        for t in (1, 7, 50, 100):
            powers = 0.7 ** np.arange(t - 1, -1, -1.0)
            expected = powers @ traj.gradients[:t]
            scale = 1.0 + np.linalg.norm(m[t])
            assert np.linalg.norm(m[t] - expected) / scale <= 1e-10

    def test_risk_recording_stride(self):
        data = synthetic_binary_dataset(10, 3, seed=9)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.01, iterations=10)
        traj = run(data, "logistic", hp, np.zeros(3), SampleStream(0, 10), record_risk=True, risk_stride=5)
        assert traj.risks is not None
        assert traj.risks.shape == (3,)  # iterates 1, 6, 11
        direct = empirical_risk(traj.iterates[5], data, "logistic")
        assert traj.risks[1] == pytest.approx(direct, rel=1e-12)

    def test_divergence_on_squared_loss_big_step(self):
        data = parse_libsvm("100 1:10\n-100 1:10\n")
        hp = HyperParams(beta=0.0, gamma=0.0, eta=50.0, iterations=10_000)
        with pytest.raises(DivergenceError):
            run(data, "squared", hp, np.zeros(1), SampleStream(0, 2))


class TestCoupledRun:
    def _setup(self, seed=0, n=30, dim=5, steps=400):
        data = synthetic_binary_dataset(n, dim, seed=seed)
        rng = np.random.default_rng(seed + 100)
        idx = int(rng.integers(1, n + 1))
        repl_src = synthetic_binary_dataset(n, dim, seed=seed + 1)
        repl = repl_src.examples[0]
        spec = NeighborSpec(index=idx, replacement=repl)
        hp = HyperParams(beta=0.5, gamma=0.01, eta=0.02, iterations=steps)
        return data, spec, hp

    def test_initial_distance_zero(self):
        data, spec, hp = self._setup()
        trace = coupled_run(data, spec, "logistic", hp, np.zeros(5), SampleStream(1, 30))
        assert trace.distances[0] == 0.0
        assert trace.distances.shape == (401,)

    def test_exact_zero_until_first_hit(self):
        data, spec, hp = self._setup(seed=3)
        stream = SampleStream(7, 30)
        trace = coupled_run(data, spec, "logistic", hp, np.zeros(5), stream)
        idx = SampleStream(7, 30).prefix(400)
        hits = np.flatnonzero(idx == spec.index)
        assert hits.size > 0, "perturbed index never sampled; pick another seed"
        first = hits[0]  # 0-based step position
        assert np.all(trace.distances[: first + 1] == 0.0)
        assert trace.distances[first + 1] > 0.0

    def test_identical_replacement_keeps_distance_zero(self):
        data, spec, hp = self._setup(seed=5)
        same = NeighborSpec(index=spec.index, replacement=data.examples[spec.index - 1])
        trace = coupled_run(data, same, "logistic", hp, np.zeros(5), SampleStream(2, 30))
        assert np.all(trace.distances == 0.0)

    def test_both_runs_share_index_sequence(self):
        data, spec, hp = self._setup(seed=8)
        trace = coupled_run(data, spec, "logistic", hp, np.zeros(5), SampleStream(4, 30))
        np.testing.assert_array_equal(trace.base.indices, trace.neighbor.indices)

    def test_neighbor_divergence_is_labeled(self):
        # squared loss with an enormous replacement feature blows up only
        # the neighbor run
        data = parse_libsvm("1 1:1\n-1 1:1\n1 1:1\n")
        repl = Example(SparseVector((1,), (1e155,), 1), 1.0)
        spec = NeighborSpec(index=1, replacement=repl)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=500)
        with pytest.raises(DivergenceError) as exc:
            coupled_run(data, spec, "squared", hp, np.zeros(1), SampleStream(0, 3))
        assert exc.value.which == "neighbor"


class TestCoupledDistanceSeries:
    def test_matches_full_coupled_run(self):
        data = synthetic_binary_dataset(40, 6, seed=11)
        spec = NeighborSpec(index=5, replacement=synthetic_binary_dataset(4, 6, seed=12).examples[0])
        for beta, gamma, eta in [(0.0, 0.02, 0.03), (0.9, 0.0, 0.01), (0.5, 0.04, 0.02)]:
            hp = HyperParams(beta=beta, gamma=gamma, eta=eta, iterations=200)
            trace = coupled_run(data, spec, "logistic", hp, np.zeros(6), SampleStream(6, 40))
            fast = coupled_distance_series(
                data, spec, "logistic", hp, np.zeros(6), SampleStream(6, 40), stride=1
            )
            # fast[j] is the distance after step j+1 = trace.distances[j+1]
            np.testing.assert_allclose(fast, trace.distances[1:], rtol=1e-9, atol=1e-12)

    def test_stride_subsamples(self):
        data = synthetic_binary_dataset(40, 6, seed=13)
        spec = NeighborSpec(index=2, replacement=data.examples[10])
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.05, iterations=100)
        full = coupled_distance_series(data, spec, "logistic", hp, np.zeros(6), SampleStream(1, 40), stride=1)
        strided = coupled_distance_series(data, spec, "logistic", hp, np.zeros(6), SampleStream(1, 40), stride=25)
        np.testing.assert_allclose(strided, full[24::25], rtol=0, atol=0)

    def test_pre_hit_zero_is_exact(self):
        data = synthetic_binary_dataset(40, 6, seed=14)
        spec = NeighborSpec(index=9, replacement=synthetic_binary_dataset(4, 6, seed=15).examples[1])
        hp = HyperParams(beta=0.9, gamma=0.01, eta=0.009, iterations=300)
        series = coupled_distance_series(data, spec, "logistic", hp, np.zeros(6), SampleStream(21, 40), stride=1)
        idx = SampleStream(21, 40).prefix(300)
        hits = np.flatnonzero(idx == 9)
        assert hits.size > 0
        assert np.all(series[: hits[0]] == 0.0)


def _rep_dataset(examples, dim, train_rows):
    return Dataset(tuple(examples[i] for i in train_rows), dim)


class TestCoupledBatch:
    """One batched call against per-pair references, every (rep, point)."""

    DIM = 6
    N_TRAIN = 24
    T = 96

    def _setup(self):
        data = synthetic_binary_dataset(30, self.DIM, seed=21)
        pool = synthetic_binary_dataset(8, self.DIM, seed=22)
        examples = data.examples + pool.examples
        nnz = [len(ex.features.indices) for ex in examples]
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
            hb_params(0.04, 0.9, T),
            nesterov_params(0.05, 0.5, T),
            HyperParams(beta=0.5, gamma=0.03, eta=0.03, iterations=T),
        ]

    def _batch(self, kind, points, stride, w1):
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        batch = coupled_distance_batch(
            padded_rows(examples, self.DIM), train_rows, perturbed, replacements,
            streams, kind, points, w1, stride,
        )
        return batch, (examples, train_rows, perturbed, replacements, seeds)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_every_pair_matches_coupled_run(self, kind, monkeypatch):
        # small stream chunks put perturbed hits and strides across chunk ends
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 7)
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        stride = 3
        batch, (examples, train_rows, perturbed, replacements, seeds) = self._batch(
            kind, points, stride, w1
        )
        assert batch.distances.shape == (3, 4, self.T // stride)
        assert not batch.diverged_step.any()
        for r in range(3):
            train = _rep_dataset(examples, self.DIM, train_rows[r])
            spec = NeighborSpec(int(perturbed[r]), examples[replacements[r]])
            for g, hp in enumerate(points):
                trace = coupled_run(train, spec, kind, hp, w1, SampleStream(seeds[r], self.N_TRAIN))
                np.testing.assert_allclose(
                    batch.distances[r, g], trace.distances[stride::stride], rtol=1e-9, atol=1e-12
                )
            assert batch.distances[r, :, -1].min() > 0.0, "perturbed index never sampled"

    def test_pair_does_not_depend_on_its_batch(self):
        w1 = np.linspace(-0.5, 0.5, self.DIM)
        points = self._grid()
        batch, (examples, train_rows, perturbed, replacements, seeds) = self._batch(
            "logistic", points, 1, w1
        )
        rows = padded_rows(examples, self.DIM)
        for r in range(3):
            for g, hp in enumerate(points):
                alone = coupled_distance_batch(
                    rows, train_rows[r : r + 1], perturbed[r : r + 1], replacements[r : r + 1],
                    [SampleStream(seeds[r], self.N_TRAIN)], "logistic", [hp], w1, 1,
                )
                np.testing.assert_array_equal(batch.distances[r, g], alone.distances[0, 0])

    def test_neighbor_divergence_is_labeled(self):
        # the enormous replacement feature blows up only the neighbor run
        data = parse_libsvm("1 1:1\n-1 1:1\n1 1:1\n")
        repl = Example(SparseVector((1,), (1e155,), 1), 1.0)
        rows = padded_rows(data.examples + (repl,), 1)
        hp = HyperParams(beta=0.0, gamma=0.0, eta=3.0, iterations=500)
        batch = coupled_distance_batch(
            rows, np.array([[0, 1, 2]]), [1], [3], [SampleStream(0, 3)], "squared", [hp],
            np.zeros(1), 10,
        )
        assert batch.diverged_step[0, 0] > 0
        assert batch.diverged_which[0, 0] == "neighbor"
        assert np.isnan(batch.distances[0, 0]).all()

    def test_rejects_mismatched_inputs(self):
        examples, train_rows, perturbed, replacements, seeds = self._setup()
        rows = padded_rows(examples, self.DIM)
        streams = [SampleStream(s, self.N_TRAIN) for s in seeds]
        hp = hb_params(0.01, 0.5, 10)
        w1 = np.zeros(self.DIM)
        with pytest.raises(ValueError, match="out of range"):
            coupled_distance_batch(rows, train_rows, [0, 1, 1], replacements, streams, "logistic", [hp], w1, 1)
        with pytest.raises(ValueError, match="iterations"):
            coupled_distance_batch(
                rows, train_rows, perturbed, replacements, streams, "logistic",
                [hp, hb_params(0.01, 0.5, 11)], w1, 1,
            )
        with pytest.raises(ValueError, match="stream"):
            coupled_distance_batch(rows, train_rows, perturbed, replacements, streams[:2], "logistic", [hp], w1, 1)
        with pytest.raises(ValueError, match="repetition"):
            coupled_distance_batch(rows, train_rows, perturbed, replacements, streams, "logistic", [], w1, 1)

    def test_memory_does_not_grow_with_iterations(self, monkeypatch):
        # index draws come STREAM_CHUNK steps per repetition at a time, so the
        # kernel's peak is the same at one and twenty times the horizon, and
        # far below a single (reps, T) index array of the longer run
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 64)
        data = synthetic_binary_dataset(400, 5, seed=0)
        rows = padded_rows(data.examples, 5)
        rng = np.random.default_rng(1)
        R, n = 10, 320
        train_rows = np.stack([np.sort(rng.choice(400, n, replace=False)) for _ in range(R)])
        peaks = {}
        for epochs in (1, 20):
            T = epochs * n
            args = (
                rows, train_rows, rng.integers(1, n + 1, R), rng.integers(0, 400, R),
                [SampleStream(s, n) for s in range(R)], "logistic", [hb_params(0.01, 0.5, T)],
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
        train0 = _rep_dataset(examples, self.DIM, train_rows[0])
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
            padded_rows(examples, self.DIM), train_rows, perturbed, replacements, streams,
            kind, [hp], w1, 1,
        )
        for r in range(3):
            train = _rep_dataset(examples, self.DIM, train_rows[r])
            spec = NeighborSpec(int(perturbed[r]), examples[replacements[r]])
            trace = coupled_run(train, spec, kind, hp, w1, SampleStream(seeds[r], self.N_TRAIN))
            np.testing.assert_allclose(batch.distances[r, 0], trace.distances[1:], rtol=1e-9, atol=1e-12)


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
        )
        np.testing.assert_allclose(average_iterate(traj, 2), [1.0])
        np.testing.assert_allclose(average_iterate(traj, 3), [2.0])

    def test_range_validation(self):
        traj = Trajectory(
            iterates=np.zeros((3, 1)),
            gradients=np.zeros((2, 1)),
            indices=np.ones(2, dtype=np.int64),
            hp=HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=2),
        )
        with pytest.raises(ValueError):
            average_iterate(traj, 0)
        with pytest.raises(ValueError):
            average_iterate(traj, 4)


class TestExports:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        iterates = rng.standard_normal((17, 4))
        path = tmp_path / "traj.bin"
        write_iterates_bin(iterates, path)
        back = read_iterates_bin(path)
        np.testing.assert_array_equal(back, iterates)
        raw = path.read_bytes()
        assert raw[:8] == b"SGDMTRAJ"
        assert len(raw) == 16 + 17 * 4 * 8

    def test_binary_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_iterates_bin(path)

    def test_csv_export_columns(self, tmp_path):
        import csv

        data = synthetic_binary_dataset(10, 3, seed=1)
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.05, iterations=4)
        traj = run(data, "logistic", hp, np.zeros(3), SampleStream(0, 10), record_risk=True)
        trace_path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, trace_path)
        with open(trace_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {"step", "index", "risk", "iterate_norm"}
        assert rows[-1]["index"] == ""  # no step taken from the final iterate
        assert float(rows[0]["risk"]) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_csv_with_distances(self, tmp_path):
        import csv

        data = synthetic_binary_dataset(10, 3, seed=2)
        spec = NeighborSpec(index=1, replacement=data.examples[2])
        hp = HyperParams(beta=0.5, gamma=0.0, eta=0.05, iterations=4)
        trace = coupled_run(data, spec, "logistic", hp, np.zeros(3), SampleStream(0, 10))
        path = tmp_path / "coupled.csv"
        write_trajectory_csv(trace.base, path, distances=trace.distances)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert "distance" in rows[0]
        assert float(rows[0]["distance"]) == 0.0
