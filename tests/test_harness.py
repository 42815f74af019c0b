import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bound_check_draws, rep_draw, reference_pair
from sgdm_stability import losses, optimizer
from sgdm_stability.dataset import NeighborSpec, parse_libsvm, stack, synthetic_binary_dataset
from sgdm_stability.harness import (
    ConfigError,
    Draws,
    ExperimentConfig,
    PreconditionError,
    aggregate,
    grid_point_filename,
    grid_points,
    json_text,
    load_experiment_data,
    run_bound_check,
    run_stability_experiment,
    save_stability_result,
)
from sgdm_stability.losses import empirical_risk_many, smoothness
from sgdm_stability.optimizer import (
    DivergenceError,
    SampleStream,
    coupled_distance_batch,
)
from sgdm_stability.theory import max_eta_hb, max_step, stability_bound, variant_params


class TestAggregate:
    def test_hand_example(self):
        means, stds = aggregate([np.array([0.0, 2.0]), np.array([2.0, 0.0])])
        np.testing.assert_allclose(means, [1.0, 1.0])
        np.testing.assert_allclose(stds, [math.sqrt(2), math.sqrt(2)])

    def test_single_series_has_zero_std(self):
        means, stds = aggregate([np.array([3.0, 4.0, 5.0])])
        np.testing.assert_array_equal(means, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(stds, np.zeros(3))

    def test_ragged_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            aggregate([])


class TestVariantParams:
    def test_hb(self):
        hp = variant_params("hb", 0.05, 0.9, 10)
        assert (hp.beta, hp.gamma, hp.eta) == (0.9, 0.0, 0.05)

    def test_nesterov(self):
        hp = variant_params("nesterov", 0.1, 0.5, 10)
        assert (hp.beta, hp.gamma, hp.eta) == (0.5, 0.1, 0.05)

    def test_nesterov_beta_zero_falls_back_to_plain_sgd(self):
        hp = variant_params("nesterov", 0.1, 0.0, 10)
        assert (hp.beta, hp.gamma, hp.eta) == (0.0, 0.0, 0.1)

    def test_general(self):
        hp = variant_params("general", 0.02, 0.5, 10)
        assert (hp.gamma, hp.eta) == (0.02, 0.02)

    def test_unknown(self):
        with pytest.raises(ValueError):
            variant_params("adam", 0.1, 0.5, 10)


class TestDraws:
    """Both constructors make the one-at-a-time oracles' draws, array for array."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 300),
        fraction=st.floats(0.01, 0.99),
        cap=st.none() | st.integers(-3, 2),  # max_train - train split size
        seed=st.integers(0, 2**64 - 1),
        reps=st.integers(1, 6),
    )
    def test_sweep_equals_rep_draws(self, n, fraction, cap, seed, reps):
        n_train = math.floor(fraction * n)
        assume(1 <= n_train < n)
        max_train = None if cap is None else max(1, n_train + cap)
        cfg = ExperimentConfig(dataset="synthetic", fraction=fraction, seed=seed, max_train=max_train)
        oracle = [rep_draw(cfg, n, r) for r in range(reps)]
        draws = Draws.sweep(n, fraction, max_train, seed, reps)
        np.testing.assert_array_equal(draws.train_rows, np.stack([d.train_rows for d in oracle]))
        np.testing.assert_array_equal(draws.perturbed, [d.perturbed for d in oracle])
        np.testing.assert_array_equal(draws.replacements, [d.replacement for d in oracle])
        assert draws.stream_seeds.tolist() == [d.stream_seed for d in oracle]

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 300),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**64 - 1),
        samples=st.integers(1, 8),
    )
    def test_fixed_split_equals_bound_check_draws(self, n, fraction, seed, samples):
        n_train = math.floor(fraction * n)
        assume(1 <= n_train < n)
        perturbed, replacements, streams = bound_check_draws(n_train, n - n_train, seed, samples)
        draws = Draws.fixed_split(n_train, n - n_train, seed, samples)
        np.testing.assert_array_equal(draws.train_rows, np.tile(np.arange(n_train), (samples, 1)))
        np.testing.assert_array_equal(draws.perturbed, perturbed)
        np.testing.assert_array_equal(draws.replacements, replacements)
        assert draws.stream_seeds.tolist() == [s.seed for s in streams]


class TestLoadExperimentData:
    def test_synthetic(self):
        cfg = ExperimentConfig(dataset="synthetic", synth_n=50, synth_dim=7, seed=1)
        data = load_experiment_data(cfg)
        assert data.n == 50 and data.dim == 7

    def test_file_is_binarized(self, tmp_path):
        p = tmp_path / "multi.txt"
        p.write_text("0 1:1\n1 1:2\n2 1:3\n3 1:4\n")
        cfg = ExperimentConfig(dataset=str(p))
        data = load_experiment_data(cfg)
        assert sorted(set(data.labels.tolist())) == [-1.0, 1.0]


def one_pair_batch(train, spec, kind, hp, stream, stride, risk_data=None):
    """The batched kernel on the one pair (train, its neighbor under spec)."""
    return coupled_distance_batch(
        stack([train, spec.pool.take([spec.row])], train.dim),
        np.arange(train.n)[None, :],
        [spec.index],
        [train.n],
        [stream],
        kind,
        [hp],
        np.zeros(train.dim),
        stride,
        risk_data=risk_data,
    )


def run_repetition(train, spec, kind, hp, stream_seed, stride):
    """Distance series of one repetition at one grid point, from a batched call."""
    batch = one_pair_batch(train, spec, kind, hp, SampleStream(stream_seed, train.n), stride)
    assert batch.diverged_step[0, 0] == 0
    return batch.distances[0, 0]


class TestRunRepetition:
    """One repetition of the coupled protocol, run through the batched kernel."""

    def test_identity_replacement_gives_zero_series(self):
        train = synthetic_binary_dataset(20, 4, seed=0)
        spec = NeighborSpec(index=7, pool=train, row=6)
        hp = variant_params("hb", 0.05, 0.5, 100)
        series = run_repetition(train, spec, "logistic", hp, stream_seed=3, stride=20)
        assert series.shape == (5,)
        assert np.all(series == 0.0)

    def test_onset_matches_first_stream_hit(self):
        train = synthetic_binary_dataset(25, 4, seed=1)
        spec = NeighborSpec(index=11, pool=synthetic_binary_dataset(3, 4, seed=2), row=0)
        hp = variant_params("hb", 0.05, 0.5, 150)
        series = run_repetition(train, spec, "logistic", hp, stream_seed=9, stride=1)
        idx = SampleStream(9, 25).prefix(150)
        hits = np.flatnonzero(idx == 11)
        assert hits.size > 0
        first = hits[0]
        assert np.all(series[:first] == 0.0)
        assert series[first] > 0.0


def hb_grid(eta, beta, t):
    """The one-point heavy-ball grid of a t-step bound check at (beta, eta)."""
    return grid_points("hb", (beta,), [(eta,)], t, "step")


def tiny_config(**overrides):
    base = dict(
        dataset="synthetic",
        synth_n=40,
        synth_dim=5,
        steps=(0.01, 0.05),
        betas=(0.0, 0.5),
        repetitions=3,
        epochs=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStabilityExperiment:
    def test_shapes_and_grid(self):
        result = run_stability_experiment(tiny_config())
        assert len(result.points) == 4  # 2 betas x 2 steps
        n_train = result.n_train
        assert n_train == 32  # floor(0.8 * 40)
        assert result.stride == n_train
        for point in result.points:
            assert point.means.shape == (2,)  # one sample per epoch
            assert point.stds.shape == (2,)
            assert point.censored == 0
            assert np.all(np.isfinite(point.means))

    def test_rerun_is_bit_identical(self):
        r1 = run_stability_experiment(tiny_config())
        r2 = run_stability_experiment(tiny_config())
        for p1, p2 in zip(r1.points, r2.points):
            np.testing.assert_array_equal(p1.means, p2.means)
            np.testing.assert_array_equal(p1.stds, p2.stds)

    def test_custom_stride(self):
        result = run_stability_experiment(tiny_config(stride=16))
        assert result.stride == 16
        assert result.points[0].means.shape == (4,)  # 64 steps / 16

    def test_censoring_with_divergent_steps(self):
        # squared loss with a huge step diverges; every repetition is censored
        cfg = tiny_config(loss="squared", steps=(1e12,), betas=(0.9,), repetitions=2)
        result = run_stability_experiment(cfg)
        point = result.points[0]
        assert point.censored == 2
        assert np.all(np.isnan(point.means))
        assert not point.stab_condition.satisfied

    def test_partial_censoring_matches_per_pair_calls(self):
        # squared loss: step 10 at beta 0.5 loses some repetitions, larger
        # steps lose all of them, small ones none
        cfg = tiny_config(
            loss="squared", steps=(0.05, 10.0, 20.0), betas=(0.0, 0.5), repetitions=4,
            epochs=10, stride=8,
        )
        result = run_stability_experiment(cfg)
        counts = [p.censored for p in result.points]
        assert 0 in counts and cfg.repetitions in counts
        assert any(0 < c < cfg.repetitions for c in counts)

        data = load_experiment_data(cfg)
        draws = [rep_draw(cfg, data.n, r) for r in range(cfg.repetitions)]
        for point in result.points:
            hp = variant_params(cfg.variant, point.step, point.beta, cfg.epochs * result.n_train)
            expected, series = [], []
            for r, d in enumerate(draws):
                train = data.take(d.train_rows)
                spec = NeighborSpec(d.perturbed, data, d.replacement)
                stream = SampleStream(d.stream_seed, train.n)
                batch = one_pair_batch(train, spec, cfg.loss, hp, stream, result.stride)
                step = int(batch.diverged_step[0, 0])
                if step:
                    expected.append({"rep": r, "step": step, "which": str(batch.diverged_which[0, 0])})
                else:
                    series.append(batch.distances[0, 0])
            assert point.censored == len(expected)
            assert list(point.censored_reps) == expected
            if series:
                means, stds = aggregate(series)
                np.testing.assert_allclose(point.means, means, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(point.stds, stds, rtol=1e-9, atol=1e-12)

    def test_max_train_caps_split(self):
        result = run_stability_experiment(tiny_config(max_train=10))
        assert result.n_train == 10

    def test_alpha_comes_from_full_dataset(self):
        cfg = tiny_config()
        result = run_stability_experiment(cfg)
        data = load_experiment_data(cfg)
        assert result.alpha == pytest.approx(smoothness(data, cfg.loss).alpha)


class TestSaveResult:
    def test_csv_schema_and_manifest(self, tmp_path):
        result = run_stability_experiment(tiny_config())
        manifest = save_stability_result(result, tmp_path, extra={"overrides": ["seed=7"]})
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "manifest.json" in files
        assert len([f for f in files if f.endswith(".csv")]) == 4

        name = grid_point_filename(result.config, result.points[0])
        assert name == "hb_beta0_step0.01.csv"
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["epoch", "mean_dist", "std_dist", "censored_count"]
        assert len(rows) == 2
        assert float(rows[0]["epoch"]) == pytest.approx(1.0)
        assert float(rows[1]["epoch"]) == pytest.approx(2.0)
        # repr round-trip: the written mean parses back to the exact float
        assert float(rows[0]["mean_dist"]) == result.points[0].means[0]

        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(manifest))
        assert on_disk["dataset"]["n_train"] == result.n_train
        assert on_disk["overrides"] == ["seed=7"]
        assert len(on_disk["grid"]) == 4
        entry = on_disk["grid"][0]
        assert entry["csv"] == name
        assert "stab_condition" in entry and "opt_condition" in entry
        assert entry["stab_condition"]["satisfied"] is True

    def test_manifest_records_censored_reps(self, tmp_path):
        cfg = tiny_config(loss="squared", steps=(0.05, 10.0), betas=(0.5,), repetitions=4, epochs=10, stride=8)
        result = run_stability_experiment(cfg)
        manifest = save_stability_result(result, tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(manifest))
        calm, wild = on_disk["grid"]
        assert calm["censored"] == 0 and calm["censored_reps"] == []
        assert 0 < wild["censored"] < 4
        assert len(wild["censored_reps"]) == wild["censored"]
        for record in wild["censored_reps"]:
            assert set(record) == {"rep", "step", "which"}
            assert 0 <= record["rep"] < 4
            assert 1 <= record["step"] <= cfg.epochs * result.n_train
            assert record["which"] in ("base", "neighbor", "both")
        with open(tmp_path / wild["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["epoch", "mean_dist", "std_dist", "censored_count"]
        assert rows[0]["censored_count"] == str(wild["censored"])

    def test_nan_means_serialize_for_censored_grid(self, tmp_path):
        cfg = tiny_config(loss="squared", steps=(1e12,), betas=(0.9,), repetitions=2)
        result = run_stability_experiment(cfg)
        save_stability_result(result, tmp_path)
        name = grid_point_filename(cfg, result.points[0])
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert math.isnan(float(rows[0]["mean_dist"]))
        assert rows[0]["censored_count"] == "2"


class TestBoundCheck:
    def test_zero_loss_data_gives_zero_both_sides(self):
        # squared loss, all labels zero, started at zero: gradients vanish so
        # both the empirical divergence and the risk-driven bound are zero
        text = "".join(f"0 1:{v}\n" for v in (1.0, 2.0, 0.5, 1.5))
        train = parse_libsvm(text)
        pool = parse_libsvm("0 1:0.7\n0 1:1.2\n")
        alpha = smoothness(train, "squared").alpha
        grid = hb_grid(0.1 * max_eta_hb(0.0, alpha), 0.0, 20)
        (res,) = run_bound_check(train, pool, "squared", grid, alpha, samples=4, seed=0)
        assert res.empirical == 0.0
        assert res.theoretical == 0.0
        assert res.holds
        assert math.isinf(res.margin_ratio)

    def test_refuses_when_condition_fails(self):
        train = synthetic_binary_dataset(30, 5, seed=0)
        alpha = smoothness(train, "logistic").alpha
        grid = hb_grid(1.5 * max_eta_hb(0.0, alpha), 0.0, 10)
        with pytest.raises(PreconditionError):
            run_bound_check(train, train, "logistic", grid, alpha, samples=2, seed=0)

    def test_bound_dominates_on_synthetic(self):
        train = synthetic_binary_dataset(60, 6, seed=3)
        pool = synthetic_binary_dataset(20, 6, seed=4)
        alpha = smoothness(train, "logistic").alpha
        grid = hb_grid(0.5 * max_eta_hb(0.5, alpha), 0.5, 120)
        (res,) = run_bound_check(train, pool, "logistic", grid, alpha, samples=8, seed=1)
        assert res.holds
        assert res.theoretical >= res.empirical
        assert res.samples == 8

    def test_theoretical_grows_with_beta_at_fixed_eta(self):
        train = synthetic_binary_dataset(60, 6, seed=5)
        pool = synthetic_binary_dataset(20, 6, seed=6)
        alpha = smoothness(train, "logistic").alpha
        eta = 0.4 * max_eta_hb(0.5, alpha)
        (r0,) = run_bound_check(train, pool, "logistic", hb_grid(eta, 0.0, 60), alpha, 4, 2)
        (r5,) = run_bound_check(train, pool, "logistic", hb_grid(eta, 0.5, 60), alpha, 4, 2)
        assert r5.theoretical > r0.theoretical

    def test_deterministic(self):
        train = synthetic_binary_dataset(40, 5, seed=8)
        pool = synthetic_binary_dataset(10, 5, seed=9)
        alpha = smoothness(train, "logistic").alpha
        grid = hb_grid(0.3 * max_eta_hb(0.0, alpha), 0.0, 40)
        (a,) = run_bound_check(train, pool, "logistic", grid, alpha, samples=5, seed=11)
        (b,) = run_bound_check(train, pool, "logistic", grid, alpha, samples=5, seed=11)
        assert a.empirical == b.empirical
        assert a.theoretical == b.theoretical

    def test_to_dict_names_estimator(self):
        train = synthetic_binary_dataset(30, 4, seed=10)
        alpha = smoothness(train, "logistic").alpha
        grid = hb_grid(0.2 * max_eta_hb(0.0, alpha), 0.0, 10)
        d = run_bound_check(train, train, "logistic", grid, alpha, 2, 0)[0].to_dict()
        assert "Monte Carlo" in d["estimator"]
        assert d["inputs"]["n"] == 30

    ORACLE_CASES = [
        # every loss and beta at a lone iterate, a lone trailing risk
        # column and a lone trailing stream block
        *[(t, kind, beta) for t in (1, 257, 1025) for kind in ("logistic", "squared") for beta in (0.0, 0.9)],
        # the other block edges once each
        (255, "logistic", 0.9),
        (256, "squared", 0.0),
        (1023, "squared", 0.9),
        (1024, "logistic", 0.0),
        (3000, "logistic", 0.9),
    ]

    @staticmethod
    def _oracle_setup(t, kind, beta):
        train = synthetic_binary_dataset(30, 5, seed=12)
        pool = synthetic_binary_dataset(10, 5, seed=13)
        alpha = smoothness(train, kind).alpha
        grid = hb_grid(0.5 * max_eta_hb(beta, alpha), beta, t)
        specs = []
        for s in range(3):
            rng = np.random.default_rng([7, s])
            spec = NeighborSpec(int(rng.integers(1, train.n + 1)), pool, int(rng.integers(0, pool.n)))
            specs.append((spec, SampleStream(int(rng.integers(2**63)), train.n)))
        return train, pool, alpha, grid, specs

    @staticmethod
    def _assert_result(res, final_sq, sum_risks, hp, alpha, n):
        assert res.empirical == float(final_sq.mean())
        assert res.sum_risk == float(sum_risks.mean())
        assert res.theoretical == stability_bound(hp, alpha, n, hp.iterations, res.sum_risk, "hb").value
        assert res.empirical_se == float(final_sq.std(ddof=1) / np.sqrt(3))
        assert res.sum_risk_se == float(sum_risks.std(ddof=1) / np.sqrt(3))

    @pytest.mark.parametrize("t, kind, beta", ORACLE_CASES)
    def test_equals_one_pair_kernel_calls(self, t, kind, beta):
        # a pair does not depend on its batch: the samples batched together
        # give the bits of one kernel call per sample with the same draws
        train, pool, alpha, grid, specs = self._oracle_setup(t, kind, beta)
        hp = grid[0].hp
        final_sq, sum_risks = np.empty(3), np.empty(3)
        for s, (spec, stream) in enumerate(specs):
            batch = one_pair_batch(train, spec, kind, hp, stream, t, risk_data=train)
            assert batch.diverged_step[0, 0] == 0
            final_sq[s] = batch.distances[0, 0, 0] ** 2
            sum_risks[s] = batch.sum_risk[0, 0]
        (res,) = run_bound_check(train, pool, kind, grid, alpha, 3, seed=7)
        self._assert_result(res, final_sq, sum_risks, hp, alpha, train.n)

    @pytest.mark.parametrize("t, kind, beta", ORACLE_CASES)
    def test_streamed_equals_one_shot_oracle(self, t, kind, beta):
        # the one-shot evaluation of the reference loop: both whole
        # trajectories, the risks of all base iterates w_1..w_t in one call,
        # the last distance; the kernel holds to it at the tolerance of
        # TestCoupledBatch
        train, pool, alpha, grid, specs = self._oracle_setup(t, kind, beta)
        hp = grid[0].hp
        final_sq, sum_risks = np.empty(3), np.empty(3)
        for s, (spec, stream) in enumerate(specs):
            base, _, distances = reference_pair(train, spec, kind, hp, np.zeros(train.dim), stream)
            final_sq[s] = distances[-1] ** 2
            sum_risks[s] = empirical_risk_many(base.iterates[:t], train, kind).sum()
        for samples in (1, 3):
            (res,) = run_bound_check(train, pool, kind, grid, alpha, samples, seed=7)
            sum_risk = float(sum_risks[:samples].mean())
            close = dict(rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(res.empirical, final_sq[:samples].mean(), **close)
            np.testing.assert_allclose(res.sum_risk, sum_risk, **close)
            np.testing.assert_allclose(
                res.theoretical, stability_bound(hp, alpha, train.n, t, sum_risk, "hb").value, **close
            )
            if samples == 1:
                assert res.empirical_se is None and res.sum_risk_se is None
            else:
                np.testing.assert_allclose(res.empirical_se, final_sq.std(ddof=1) / np.sqrt(3), **close)
                np.testing.assert_allclose(res.sum_risk_se, sum_risks.std(ddof=1) / np.sqrt(3), **close)

    def test_divergence_raises_at_the_kernel_step(self):
        # squared loss: the pool row's 1e155 feature blows up the neighbor run
        # of any sample whose stream hits its perturbed index
        train = parse_libsvm("1 1:1\n-1 1:1\n1 1:1\n-1 1:0.5\n")
        pool = parse_libsvm("1 1:1e155\n")
        alpha = smoothness(train, "squared").alpha
        grid = hb_grid(0.5 * max_eta_hb(0.5, alpha), 0.5, 200)
        hp = grid[0].hp
        with pytest.raises(DivergenceError) as exc:
            run_bound_check(train, pool, "squared", grid, alpha, samples=2, seed=0)
        assert exc.value.which == "neighbor"
        # the lowest censored sample's step, as its one-pair kernel call reports it
        first = None
        for s in range(2):
            rng = np.random.default_rng([0, s])
            spec = NeighborSpec(int(rng.integers(1, train.n + 1)), pool, int(rng.integers(0, pool.n)))
            stream = SampleStream(int(rng.integers(2**63)), train.n)
            batch = one_pair_batch(train, spec, "squared", hp, stream, 200)
            if batch.diverged_step[0, 0] and first is None:
                first = int(batch.diverged_step[0, 0])
        assert exc.value.step == first

    def test_to_dict_carries_standard_errors(self):
        train = synthetic_binary_dataset(30, 4, seed=10)
        alpha = smoothness(train, "logistic").alpha
        grid = hb_grid(0.2 * max_eta_hb(0.0, alpha), 0.0, 10)
        one = run_bound_check(train, train, "logistic", grid, alpha, 1, 0)[0].to_dict()
        assert one["empirical_se"] is None and one["sum_risk_se"] is None
        assert one["sum_risk"] == one["inputs"]["sum_risk"] > 0
        four = run_bound_check(train, train, "logistic", grid, alpha, 4, 0)[0].to_dict()
        assert four["empirical_se"] >= 0 and four["sum_risk_se"] > 0
        json.dumps(four, allow_nan=False)

    def test_memory_does_not_grow_with_t(self, monkeypatch):
        # small blocks so both horizons fill them; each sample keeps a running
        # risk sum, so nothing grows with samples x t, and the peak stays far
        # below one (n, t) matrix.  One worker, so the peak does not depend on
        # how threads overlap.
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 64)
        monkeypatch.setattr(losses, "RISK_COLUMNS", 16)
        monkeypatch.setattr(losses, "RISK_WORKERS", 1)
        train = synthetic_binary_dataset(100, 5, seed=14)
        pool = synthetic_binary_dataset(10, 5, seed=15)
        alpha = smoothness(train, "logistic").alpha
        peaks = {}
        for factor in (2, 20):
            grid = hb_grid(0.5 * max_eta_hb(0.9, alpha), 0.9, factor * train.n)
            tracemalloc.start()
            try:
                run_bound_check(train, pool, "logistic", grid, alpha, 3, 0)
                peaks[factor] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        t = 20 * train.n
        assert peaks[20] < peaks[2] + 16_000
        assert peaks[20] < 8 * train.n * t / 10

    def test_short_last_block_is_not_copied(self, monkeypatch):
        # a horizon whose last stream block is 2 steps short of STREAM_CHUNK: its
        # base iterates are evaluated where they are buffered, so the peak is
        # that of a horizon of whole blocks, not one block buffer more
        monkeypatch.setattr(optimizer, "STREAM_CHUNK", 64)
        monkeypatch.setattr(losses, "RISK_COLUMNS", 16)
        monkeypatch.setattr(losses, "RISK_WORKERS", 1)
        train = synthetic_binary_dataset(100, 40, seed=14)
        pool = synthetic_binary_dataset(10, 40, seed=15)
        alpha = smoothness(train, "logistic").alpha
        samples = 8
        peaks = {}
        for t in (5 * 64, 5 * 64 - 2):
            grid = hb_grid(0.5 * max_eta_hb(0.9, alpha), 0.9, t)
            tracemalloc.start()
            try:
                run_bound_check(train, pool, "logistic", grid, alpha, samples, 0)
                peaks[t] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block_buffer = samples * 64 * train.dim * 8
        assert peaks[5 * 64 - 2] < peaks[5 * 64] + block_buffer / 4

    @pytest.mark.parametrize("variant", ["hb", "nesterov"])
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_grid_equals_its_points_one_at_a_time(self, kind, variant):
        train = synthetic_binary_dataset(30, 5, seed=16)
        pool = synthetic_binary_dataset(10, 5, seed=17)
        alpha = smoothness(train, kind).alpha
        betas = (0.0, 0.5, 0.9)
        steps = [(0.5 * max_step(variant, beta, alpha),) for beta in betas]
        grid = grid_points(variant, betas, steps, 300, "step_fraction")
        whole = run_bound_check(train, pool, kind, grid, alpha, 3, seed=7)
        alone = [run_bound_check(train, pool, kind, [point], alpha, 3, seed=7)[0] for point in grid]
        assert [(r.beta, r.step) for r in whole] == [(p.beta, p.step) for p in grid]
        assert json_text([r.to_dict() for r in whole]) == json_text([r.to_dict() for r in alone])


class TestGridPoints:
    @pytest.mark.parametrize(
        "variant, beta, step",
        # a step of 0, and a Nesterov eta = beta * step that rounds to 0
        [("hb", 0.5, 0.0), ("nesterov", 0.0, 0.0), ("nesterov", 0.5, 5e-324), ("general", 0.9, 0.0)],
    )
    def test_step_that_maps_to_no_update_names_its_key(self, variant, beta, step):
        with pytest.raises(ConfigError, match=r"^key 'steps': step .* gives no \w+ update: "):
            grid_points(variant, (0.3, beta), [(0.1,), (step,)], 10, "steps")

    def test_smallest_step_that_maps_to_an_update(self):
        (point,) = grid_points("nesterov", (0.5,), [(1e-323,)], 10, "steps")
        assert point.hp.gamma == 1e-323 and point.hp.eta == 5e-324
