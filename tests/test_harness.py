import csv
import json
import math

import numpy as np
import pytest

from sgdm_stability.dataset import Dataset, NeighborSpec, parse_libsvm, synthetic_binary_dataset
from sgdm_stability.harness import (
    ExperimentConfig,
    _rep_draws,
    PreconditionError,
    aggregate,
    grid_point_filename,
    load_experiment_data,
    run_bound_check,
    run_stability_experiment,
    save_stability_result,
    variant_params,
)
from sgdm_stability.losses import smoothness
from sgdm_stability.optimizer import (
    DivergenceError,
    SampleStream,
    coupled_distance_batch,
    coupled_distance_series,
    hb_params,
    padded_rows,
)
from sgdm_stability.theory import max_eta_hb


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
        assert sorted(set(e.label for e in data.examples)) == [-1.0, 1.0]


def run_repetition(train, spec, kind, hp, stream_seed, stride):
    """Distance series of one repetition at one grid point, from a batched call."""
    batch = coupled_distance_batch(
        padded_rows(train.examples + (spec.replacement,), train.dim),
        np.arange(train.n)[None, :],
        [spec.index],
        [train.n],
        [SampleStream(stream_seed, train.n)],
        kind,
        [hp],
        np.zeros(train.dim),
        stride,
    )
    assert batch.diverged_step[0, 0] == 0
    return batch.distances[0, 0]


class TestRunRepetition:
    """One repetition of the coupled protocol, run through the batched kernel."""

    def test_identity_replacement_gives_zero_series(self):
        train = synthetic_binary_dataset(20, 4, seed=0)
        spec = NeighborSpec(index=7, replacement=train.examples[6])
        hp = hb_params(0.05, 0.5, 100)
        series = run_repetition(train, spec, "logistic", hp, stream_seed=3, stride=20)
        assert series.shape == (5,)
        assert np.all(series == 0.0)

    def test_onset_matches_first_stream_hit(self):
        train = synthetic_binary_dataset(25, 4, seed=1)
        repl = synthetic_binary_dataset(3, 4, seed=2).examples[0]
        spec = NeighborSpec(index=11, replacement=repl)
        hp = hb_params(0.05, 0.5, 150)
        series = run_repetition(train, spec, "logistic", hp, stream_seed=9, stride=1)
        idx = SampleStream(9, 25).prefix(150)
        hits = np.flatnonzero(idx == 11)
        assert hits.size > 0
        first = hits[0]
        assert np.all(series[:first] == 0.0)
        assert series[first] > 0.0


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
        draws = [_rep_draws(cfg, data.n, r) for r in range(cfg.repetitions)]
        for point in result.points:
            hp = variant_params(cfg.variant, point.step, point.beta, cfg.epochs * result.n_train)
            expected, series = [], []
            for r, d in enumerate(draws):
                train = Dataset(tuple(data.examples[i] for i in d.train_rows), data.dim)
                spec = NeighborSpec(d.perturbed, data.examples[d.replacement])
                stream = SampleStream(d.stream_seed, train.n)
                try:
                    series.append(
                        coupled_distance_series(
                            train, spec, cfg.loss, hp, np.zeros(data.dim), stream, result.stride
                        )
                    )
                except DivergenceError as e:
                    expected.append({"rep": r, "step": e.step, "which": e.which})
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
        hp = hb_params(0.1 * max_eta_hb(0.0, alpha), 0.0, 20)
        res = run_bound_check(train, pool, "squared", hp, alpha, samples=4, seed=0, variant="hb")
        assert res.empirical == 0.0
        assert res.theoretical == 0.0
        assert res.holds
        assert math.isinf(res.margin_ratio)

    def test_refuses_when_condition_fails(self):
        train = synthetic_binary_dataset(30, 5, seed=0)
        alpha = smoothness(train, "logistic").alpha
        hp = hb_params(1.5 * max_eta_hb(0.0, alpha), 0.0, 10)
        with pytest.raises(PreconditionError):
            run_bound_check(train, train, "logistic", hp, alpha, samples=2, seed=0, variant="hb")

    def test_bound_dominates_on_synthetic(self):
        train = synthetic_binary_dataset(60, 6, seed=3)
        pool = synthetic_binary_dataset(20, 6, seed=4)
        alpha = smoothness(train, "logistic").alpha
        hp = hb_params(0.5 * max_eta_hb(0.5, alpha), 0.5, 120)
        res = run_bound_check(train, pool, "logistic", hp, alpha, samples=8, seed=1, variant="hb")
        assert res.holds
        assert res.theoretical >= res.empirical
        assert res.samples == 8

    def test_theoretical_grows_with_beta_at_fixed_eta(self):
        train = synthetic_binary_dataset(60, 6, seed=5)
        pool = synthetic_binary_dataset(20, 6, seed=6)
        alpha = smoothness(train, "logistic").alpha
        eta = 0.4 * max_eta_hb(0.5, alpha)
        r0 = run_bound_check(train, pool, "logistic", hb_params(eta, 0.0, 60), alpha, 4, 2, "hb")
        r5 = run_bound_check(train, pool, "logistic", hb_params(eta, 0.5, 60), alpha, 4, 2, "hb")
        assert r5.theoretical > r0.theoretical

    def test_deterministic(self):
        train = synthetic_binary_dataset(40, 5, seed=8)
        pool = synthetic_binary_dataset(10, 5, seed=9)
        alpha = smoothness(train, "logistic").alpha
        hp = hb_params(0.3 * max_eta_hb(0.0, alpha), 0.0, 40)
        a = run_bound_check(train, pool, "logistic", hp, alpha, samples=5, seed=11, variant="hb")
        b = run_bound_check(train, pool, "logistic", hp, alpha, samples=5, seed=11, variant="hb")
        assert a.empirical == b.empirical
        assert a.theoretical == b.theoretical

    def test_to_dict_names_estimator(self):
        train = synthetic_binary_dataset(30, 4, seed=10)
        alpha = smoothness(train, "logistic").alpha
        hp = hb_params(0.2 * max_eta_hb(0.0, alpha), 0.0, 10)
        d = run_bound_check(train, train, "logistic", hp, alpha, 2, 0, "hb").to_dict()
        assert "Monte Carlo" in d["estimator"]
        assert d["inputs"]["n"] == 30
