import importlib.machinery
import itertools
import math
import signal
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import csr_matrix, empirical_risk
from sgdm_stability import losses as losses_module
from sgdm_stability.dataset import DataError, Dataset, parse_libsvm, synthetic_binary_dataset
from sgdm_stability.losses import (
    RISK_COLUMNS,
    RISK_ROWS,
    empirical_risk_many,
    grad_scales,
    loss_grad,
    loss_value,
    losses,
    smoothness,
)
from sgdm_stability.optimizer import HyperParams, SampleStream, coupled_distance_batch
from sgdm_stability.verification import (
    check_co_coercivity,
    check_convexity,
    check_gradient_fd,
    check_self_bounding,
)


def _timed_out(signum, frame):
    raise TimeoutError("the risk sum's threads did not finish")


def ex(indices, values, label, dim=None):
    """One-row dataset; the loss functions below read its row 0."""
    dim = dim or (max(indices) if indices else 1)
    return Dataset([0, len(indices)], [i - 1 for i in indices], values, [float(label)], dim)


class TestLossValues:
    def test_logistic_at_zero_weights(self):
        z = ex([1, 2], [1.0, -1.0], 1.0)
        assert loss_value(np.zeros(2), z, 0, "logistic") == pytest.approx(math.log(2.0), rel=1e-15)

    def test_logistic_unit_margin(self):
        # closed form log(1 + exp(-1)) evaluated independently
        z = ex([1], [1.0], 1.0)
        w = np.array([1.0])
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss_value(w, z, 0, "logistic") == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.31326168751822286, rel=1e-15)

    def test_squared_zero_at_perfect_fit(self):
        z = ex([1, 3], [2.0, 1.0], 5.0)
        w = np.array([2.0, 0.0, 1.0])  # margin = 5
        assert loss_value(w, z, 0, "squared") == 0.0

    def test_squared_hand_value(self):
        z = ex([1], [2.0], 1.0)
        w = np.array([2.0])  # margin 4, residual 3
        assert loss_value(w, z, 0, "squared") == pytest.approx(4.5, rel=1e-15)

    @pytest.mark.parametrize("m", [-1000.0, -50.0, 50.0, 1000.0])
    def test_logistic_stable_at_extreme_margins(self, m):
        z = ex([1], [1.0], 1.0)
        w = np.array([m])
        # benign underflow to 0 is fine; overflow or nan is not
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            v = loss_value(w, z, 0, "logistic")
            s = float(grad_scales(m, 1.0, "logistic"))  # margin <w, x> = m, label 1
        assert math.isfinite(v) and math.isfinite(s)
        if m <= -50:
            # softplus(-m) ~ -m for large -m
            assert v == pytest.approx(-m, rel=1e-12)
            assert s == pytest.approx(-1.0, rel=1e-12)
        else:
            assert v >= 0.0
            assert -1.0 < s <= 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            loss_value(np.zeros(1), ex([1], [1.0], 1.0), 0, "hinge")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_value(np.zeros(2), ex([1, 5], [1.0, 1.0], 1.0, dim=5), 0, "logistic")


class TestGradients:
    def test_logistic_grad_at_zero(self):
        z = ex([1, 2], [1.0, 2.0], 1.0)
        g = loss_grad(np.zeros(2), z, 0, "logistic")
        np.testing.assert_allclose(g, [-0.5, -1.0], rtol=1e-15)

    def test_squared_grad_zero_at_fit(self):
        z = ex([1], [2.0], 6.0)
        g = loss_grad(np.array([3.0]), z, 0, "squared")
        np.testing.assert_allclose(g, [0.0])

    def test_grad_supported_on_example_indices(self):
        z = ex([2, 4], [1.0, 1.0], -1.0, dim=5)
        g = loss_grad(np.ones(5), z, 0, "logistic")
        assert g[0] == g[2] == g[4] == 0.0
        assert g[1] != 0.0 and g[3] != 0.0

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_matches_finite_differences(self, kind):
        outcome = check_gradient_fd(kind, probes=40, seed=2)
        assert outcome.status == "pass", outcome


class TestFormulas:
    """`losses` / `grad_scales` are the one home of both formulas."""

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_elementwise_equals_per_row(self, kind):
        rng = np.random.default_rng(3)
        d = synthetic_binary_dataset(30, 6, seed=5)
        w = rng.standard_normal(6) * 4.0
        # per-row sparse dots, the margins the per-row functions compute
        m = np.array([float(np.dot(w[idx], vals)) for idx, vals, _ in map(d.row, range(d.n))])
        np.testing.assert_array_equal(
            losses(m, d.labels, kind), [loss_value(w, d, i, kind) for i in range(d.n)]
        )
        s = grad_scales(m, d.labels, kind)
        for i in range(d.n):
            idx, vals, _ = d.row(i)
            np.testing.assert_array_equal(loss_grad(w, d, i, kind)[idx], s[i] * vals)

    def test_logistic_scale_is_the_textbook_form(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal(1000) * 30.0
        y = rng.choice([-1.0, 1.0], size=1000)
        from scipy.special import expit

        np.testing.assert_array_equal(grad_scales(m, y, "logistic"), -y * expit(-y * m))

    def test_logistic_loss_matches_logaddexp(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((500, 3)) * 30.0
        y = rng.choice([-1.0, 1.0], size=(500, 1))
        kept = m.copy()
        np.testing.assert_allclose(losses(m, y, "logistic"), np.logaddexp(0.0, -y * m), rtol=1e-15, atol=0)
        np.testing.assert_array_equal(m, kept)
        # Python floats in, a float out
        assert float(losses(2.0, -1.0, "logistic")) == pytest.approx(np.logaddexp(0.0, 2.0), rel=1e-15)

    @pytest.mark.parametrize("fn", [losses, grad_scales])
    def test_unknown_kind_rejected(self, fn):
        with pytest.raises(ValueError, match="hinge"):
            fn(np.zeros(2), np.ones(2), "hinge")


# the largest t with a finite exp(t) is LOG_MAX; 745.2 is past where
# exp(-t) leaves the subnormals
LOG_MAX = 709.782712893384
EDGE_MARGINS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-310, -1e-310,
    *(s * v for s in (1.0, -1.0) for v in (
        LOG_MAX, np.nextafter(LOG_MAX, math.inf), np.nextafter(LOG_MAX, 0.0), 745.2, 1e308,
    )),
]


def expit_scales(m, y):
    """The logistic gradient scale through scipy's expit, the oracle."""
    from scipy.special import expit

    return -y * expit(-y * m)


def assert_same_bits(actual, expected):
    # NaN signs included: the sigmoid repeats expit's operations exactly
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestSigmoidMatchesExpit:
    """`grad_scales` computes the logistic scale with the C library's exp,
    bit for bit as `-y * scipy.special.expit(-y * m)`, without importing scipy
    or warning; the warning filter of this suite turns a warning into an error."""

    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_python_floats_and_zero_d_arrays(self, y):
        for m in EDGE_MARGINS:
            oracle = expit_scales(np.float64(m), y)
            scale = grad_scales(float(m), y, "logistic")
            assert type(scale) is float
            assert_same_bits(scale, oracle)
            assert_same_bits(grad_scales(np.array(m), np.array(y), "logistic"), oracle)

    @settings(max_examples=300, deadline=None)
    @given(m=st.floats(allow_nan=True, allow_infinity=True), y=st.sampled_from([1.0, -1.0]))
    @example(m=LOG_MAX, y=-1.0)
    def test_any_float(self, m, y):
        assert_same_bits(grad_scales(m, y, "logistic"), expit_scales(np.float64(m), y))

    def test_pair_arrays(self):
        # the (P, 2) margins of the coupled kernel, edges included
        rng = np.random.default_rng(6)
        m = np.concatenate([rng.standard_normal(200) * 40.0, EDGE_MARGINS, rng.uniform(-800.0, 800.0, 200)])
        m = m[: m.size // 2 * 2].reshape(-1, 2)
        y = rng.choice([-1.0, 1.0], size=m.shape)
        assert_same_bits(grad_scales(m, y, "logistic"), expit_scales(m, y))

    def test_probe_broadcast(self):
        # the loss-lemma probes: (rows, 1) labels against (rows, side) margins
        rng = np.random.default_rng(7)
        m = np.concatenate([rng.standard_normal((20, 6)) * 30.0, np.resize(EDGE_MARGINS, (5, 6))])
        y = rng.choice([-1.0, 1.0], size=(25, 1))
        assert_same_bits(grad_scales(m, y, "logistic"), expit_scales(m, y))

    @pytest.mark.parametrize("t", [LOG_MAX, np.nextafter(LOG_MAX, math.inf), 745.2, 1e308, math.inf])
    def test_exp_overflow_gives_zero_not_overflow_error(self, t):
        # exp(y m) of a finite t past LOG_MAX is inf, as in C, so the scale is -0.0
        m = np.array([[t, 0.0], [1.0, t]])
        assert_same_bits(grad_scales(m, 1.0, "logistic"), expit_scales(m, 1.0))
        assert_same_bits(grad_scales(t, 1.0, "logistic"), expit_scales(np.float64(t), 1.0))

    # the band above 709 where glibc's cexp rescales, near and past overflow,
    # the edges, and any float
    SCALE_MARGINS = st.one_of(
        st.floats(709.0, LOG_MAX + 0.01),
        st.floats(-LOG_MAX - 0.01, -709.0),
        st.sampled_from([*EDGE_MARGINS, 745.0, -745.0, 709.0000362545957]),
        st.floats(-40.0, 40.0),
        st.floats(allow_nan=True, allow_infinity=True),
    )

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.tuples(SCALE_MARGINS, st.sampled_from([1.0, -1.0, 0.5, -3.0, 0.0])), min_size=1, max_size=40),
        kind=st.sampled_from(["logistic", "squared"]),
    )
    @example(entries=[(709.0000362545957, 1.0), (-709.0000362545957, -1.0)], kind="logistic")
    def test_array_path_is_the_scalar_path(self, entries, kind):
        # entry by entry, bit for bit, a NaN as a NaN of either sign: if a
        # platform's complex exp differs from its exp below 709, this fails
        m, y = np.array(entries).T
        # a non-unit label overflows y m, or makes 0 * inf, as the kernel may
        with np.errstate(over="ignore", invalid="ignore"):
            array = grad_scales(m, y, kind)
        scalar = np.array([grad_scales(a, b, kind) for a, b in entries])
        nan = np.isnan(scalar)
        np.testing.assert_array_equal(np.isnan(array), nan)
        np.testing.assert_array_equal(array[~nan].view(np.uint64), scalar[~nan].view(np.uint64))


class TestEmpiricalRisk:
    def test_mean_of_losses(self):
        d = parse_libsvm("1 1:1\n-1 1:2\n")
        w = np.array([0.5])
        expected = 0.5 * (
            loss_value(w, d, 0, "logistic") + loss_value(w, d, 1, "logistic")
        )
        assert empirical_risk(w, d, "logistic") == pytest.approx(expected, rel=1e-15)

    def test_at_zero_weights_logistic(self):
        d = synthetic_binary_dataset(37, 6, seed=0)
        assert empirical_risk(np.zeros(6), d, "logistic") == pytest.approx(math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_vectorized_matches_loop(self, kind):
        # summation oracle: naive per-example loop
        rng = np.random.default_rng(8)
        d = synthetic_binary_dataset(25, 9, seed=4)
        W = rng.standard_normal((6, 9))
        fast = empirical_risk_many(W, d, kind)
        slow = np.array(
            [np.mean([loss_value(w, d, i, kind) for i in range(d.n)]) for w in W]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-12)


class TestBlockedRisk:
    DATA = synthetic_binary_dataset(50, 7, seed=9)
    # more rows than two bands at the default band height
    TALL = synthetic_binary_dataset(2 * RISK_ROWS + 3, 7, seed=10)

    @staticmethod
    def unblocked(W, d, kind):
        # the n losses added in row order from the first: the last running sum
        L = losses(csr_matrix(d) @ W.T, d.labels[:, None], kind)
        return np.cumsum(L, axis=0)[-1] / d.n

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.sampled_from(
            [k * RISK_COLUMNS + off for k in (1, 2, 3) for off in (-1, 0, 1, 2)] + [1, 2, 3]
        )
        | st.integers(1, 3 * RISK_COLUMNS + 3),
        workers=st.sampled_from([1, 3]),
        kind=st.sampled_from(["logistic", "squared"]),
        tall=st.booleans(),
        band=st.sampled_from([1, 2, 7, 49, 50, RISK_ROWS]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=RISK_COLUMNS + 1, workers=3, kind="logistic", tall=False, band=RISK_ROWS, seed=0)
    @example(rows=RISK_COLUMNS, workers=1, kind="squared", tall=True, band=RISK_ROWS, seed=1)
    def test_equals_unblocked_formula_bitwise(self, rows, workers, kind, tall, band, seed):
        d = self.TALL if tall else self.DATA
        W = np.random.default_rng(seed).standard_normal((rows, d.dim))
        with mock.patch.object(losses_module, "RISK_WORKERS", workers), \
                mock.patch.object(losses_module, "RISK_ROWS", band):
            got = empirical_risk_many(W, d, kind)
        assert got.tobytes() == self.unblocked(W, d, kind).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_infinite_and_nan_risks_keep_their_bits(self, kind, workers):
        # margins past float range give inf losses, and inf - inf in the
        # product nan ones; each must reach its column's sum as in the mean
        d = self.TALL
        W = np.random.default_rng(3).standard_normal((RISK_COLUMNS + 5, d.dim))
        W[1::3] = 1e308
        W[2::3] *= np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with np.errstate(all="ignore"):
                want = self.unblocked(W, d, kind)
            with mock.patch.object(losses_module, "RISK_WORKERS", workers), \
                    mock.patch.object(losses_module, "RISK_ROWS", 7):
                got = empirical_risk_many(W, d, kind)
        assert np.isinf(want).any() and np.isnan(want).any() and np.isfinite(want).any()
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def kernel_bytes(kind):
        """The bytes of a small batched-kernel run: hits, a pair with gamma > 0
        and a risk sum, so every compiled routine the kernel calls runs."""
        d = synthetic_binary_dataset(30, 6, seed=16)
        rows = np.stack([np.arange(24), np.arange(6, 30)])
        points = [HyperParams(0.9, 0.0, 0.05, 120), HyperParams(0.5, 0.03, 0.03, 120)]
        batch = coupled_distance_batch(
            d, rows, [3, 17], [26, 2], [SampleStream(s, 24) for s in (1, 2)], kind, points,
            np.linspace(-0.5, 0.5, 6), 7, risk_data=d.take(rows[0]),
        )
        assert not batch.diverged_step.any()
        return batch.distances.tobytes() + batch.sum_risk.tobytes()

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_plain_import_where_the_extension_file_fails(self, kind, monkeypatch):
        # the routines' extension file fails to load: the module comes from
        # scipy.sparse's own import, and the risk sum and the kernel keep
        # their bits
        d = self.TALL
        W = np.random.default_rng(5).standard_normal((RISK_COLUMNS + 5, d.dim))
        want, want_kernel = self.unblocked(W, d, kind), self.kernel_bytes(kind)

        class FailingLoader(importlib.machinery.ExtensionFileLoader):
            def create_module(self, spec):
                raise ImportError("cannot load")

        imported = []
        import_module = importlib.import_module
        monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", FailingLoader)
        monkeypatch.setattr(importlib, "import_module", lambda name: imported.append(name) or import_module(name))
        losses_module._sparsetools.cache_clear()
        try:
            with mock.patch.object(losses_module, "RISK_ROWS", 7):
                got = empirical_risk_many(W, d, kind)
            got_kernel = self.kernel_bytes(kind)
        finally:
            losses_module._sparsetools.cache_clear()
        assert imported == ["scipy.sparse._sparsetools"]
        assert got.tobytes() == want.tobytes()
        assert got_kernel == want_kernel

    def test_installed_scipy_takes_the_direct_path(self):
        # a silent fallback to the plain import would pass every byte test and
        # cost the import of scipy.sparse: the extension file loads alone
        losses_module._sparsetools.cache_clear()
        with mock.patch.object(importlib, "import_module", side_effect=AssertionError("plain import")):
            module = losses_module._sparsetools()
        assert {"csr_matvecs", "csc_matvec", "dia_matvec"} <= set(dir(module))
        W = np.random.default_rng(6).standard_normal((RISK_COLUMNS + 5, self.TALL.dim))
        got = empirical_risk_many(W, self.TALL, "logistic")
        assert got.tobytes() == self.unblocked(W, self.TALL, "logistic").tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_threads_enter_the_caller_errstate(self, workers):
        # squared losses of margins past 1e154 overflow; the threads do what
        # the caller's np.errstate says, under the suite's error filter too
        W = np.full((RISK_COLUMNS + 5, self.DATA.dim), 1e200)
        with mock.patch.object(losses_module, "RISK_WORKERS", workers):
            with np.errstate(over="ignore"):
                assert np.isinf(empirical_risk_many(W, self.DATA, "squared")).all()
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                empirical_risk_many(W, self.DATA, "squared")

    def test_kernel_risk_sum_under_its_errstate(self):
        # squared loss on the one row x = 1, y = 0 at beta = 0, eta = 3: w_k =
        # (-2)^(k-1) 2^520 stays finite for the 10 steps, while its loss
        # 2^1039 overflows; the kernel's errstate covers its risk sum
        d = parse_libsvm("0 1:1\n0 1:1\n")
        batch = coupled_distance_batch(
            d, np.array([[0]]), [1], [1], [SampleStream(0, 1)], "squared", [HyperParams(0.0, 0.0, 3.0, 10)],
            np.array([2.0**520]), 5, risk_data=d,
        )
        assert batch.diverged_step.tolist() == [[0]]
        assert batch.sum_risk.tolist() == [[math.inf]]

    def test_memory_does_not_grow_with_n(self):
        # one block of weight rows, walked over bands: the tiles, not the
        # (n, block) margins, set the peak
        W = np.random.default_rng(4).standard_normal((RISK_COLUMNS, 8))
        peaks = {}
        for n in (2_000, 20_000):
            d = synthetic_binary_dataset(n, 8, seed=11)
            # the signed row values are built once per dataset, before the measured call
            d.signed_values
            tracemalloc.start()
            try:
                empirical_risk_many(W, d, "logistic")
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[20_000] - peaks[2_000]) < 8 * 20_000

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_weight_rows_give_no_risks(self, workers):
        with mock.patch.object(losses_module, "RISK_WORKERS", workers):
            for kind in ("logistic", "squared"):
                got = empirical_risk_many(np.zeros((0, self.DATA.dim)), self.DATA, kind)
                assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_labels_other_than_unit_keep_the_unsigned_bits(self, kind, workers):
        # no signed values for such labels (0.1 * x would round): the product
        # reads the plain values and the losses negate the labels, as `losses`
        # does
        d = self.TALL
        d = Dataset(d.indptr, d.indices, d.values, np.resize([2.0, -0.5, 0.0, -0.0, 0.1], d.n), d.dim)
        assert d.signed_values is None and d.signed_padded is None
        W = np.random.default_rng(7).standard_normal((2 * RISK_COLUMNS + 3, d.dim))
        with mock.patch.object(losses_module, "RISK_WORKERS", workers), \
                mock.patch.object(losses_module, "RISK_ROWS", 7):
            got = empirical_risk_many(W, d, kind)
        assert got.tobytes() == self.unblocked(W, d, kind).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_error_reaches_the_caller_once_every_thread_is_done(self, workers, monkeypatch):
        # the block that raises runs on whichever thread takes it; the caller
        # gets its exception after the other threads have finished
        W = np.random.default_rng(8).standard_normal((4 * RISK_COLUMNS, self.DATA.dim))
        # the tile numbers come from one atomic counter, so exactly one raises
        tiles = itertools.count()
        signed_losses = losses_module.signed_losses

        def failing(z, t):
            if next(tiles) == 1:
                raise KeyError("band")
            return signed_losses(z, t)

        monkeypatch.setattr(losses_module, "signed_losses", failing)
        threads = threading.active_count()
        with mock.patch.object(losses_module, "RISK_WORKERS", workers), pytest.raises(KeyError, match="band"):
            empirical_risk_many(W, self.DATA, "logistic")
        assert threading.active_count() == threads

    def test_threads_take_every_block_once_under_fast_switching(self, monkeypatch):
        # more threads than cores pull 64 two-row blocks from the shared
        # iterator while the interpreter switches threads every microsecond:
        # each (block, band) tile is computed exactly once, and every risk is
        # written; SIGALRM bounds a hang
        d, width, band = self.DATA, 2, 7
        W = np.random.default_rng(9).standard_normal((64 * width, d.dim))
        want = self.unblocked(W, d, "logistic")
        tiles = []
        signed_losses = losses_module.signed_losses
        monkeypatch.setattr(losses_module, "signed_losses", lambda z, t: tiles.append(None) or signed_losses(z, t))
        previous = (sys.getswitchinterval(), signal.signal(signal.SIGALRM, _timed_out))
        signal.alarm(60)
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(losses_module, "RISK_WORKERS", 8), \
                    mock.patch.object(losses_module, "RISK_COLUMNS", width), \
                    mock.patch.object(losses_module, "RISK_ROWS", band):
                got = empirical_risk_many(W, d, "logistic")
        finally:
            sys.setswitchinterval(previous[0])
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous[1])
        assert len(tiles) == 64 * -(-d.n // band)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 3 * RISK_COLUMNS + 3),
        workers=st.sampled_from([1, 3]),
        band=st.sampled_from([1, 7, 256]),
        kind=st.sampled_from(["logistic", "squared"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=1, workers=1, band=256, kind="logistic", seed=0)
    @example(rows=RISK_COLUMNS + 1, workers=3, band=7, kind="squared", seed=1)
    def test_a_row_alone_gives_its_bits_in_the_batch(self, rows, workers, band, kind, seed):
        # a lone row's column would be summed pairwise by numpy, a batch's
        # columns in row order; the kernel evaluates either, so both must agree
        W = np.random.default_rng(seed).standard_normal((rows, self.DATA.dim))
        with mock.patch.object(losses_module, "RISK_WORKERS", workers), \
                mock.patch.object(losses_module, "RISK_ROWS", band):
            batch = empirical_risk_many(W, self.DATA, kind)
            for i in {0, rows // 2, rows - 1}:
                alone = empirical_risk_many(W[i : i + 1], self.DATA, kind)
                assert alone.tobytes() == batch[i : i + 1].tobytes()


class TestSignedRows:
    """Rows times -y give z = -y <w, x> from the products themselves."""

    @staticmethod
    def kernel_products(W, values, indices):
        """The coupled kernel's margins of every row under the two rows of W,
        read at the row's padded positions, as its `matmul` takes them."""
        cells = np.concatenate([W, np.zeros((2, 1))], axis=1)[:, indices].transpose(1, 0, 2)
        return np.matmul(cells, values[:, :, None])[:, :, 0]

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 12),
        dim=st.integers(1, 6),
        density=st.floats(0.0, 1.0),
        weights=st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan]),
            min_size=12,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signed_margins_are_the_negated_unsigned_ones(self, rows, dim, density, weights, seed):
        # byte for byte, infs and NaNs included, up to the sign of a zero: a
        # sum that cancels or has no terms is +0 either way, which -y turns
        # into -0 for y = 1; neither the loss nor the scale at z = 0 reads it
        rng = np.random.default_rng(seed)
        mask = rng.random((rows, dim)) < density
        values = np.where(mask, rng.choice([1.0, -3.5, 1e-300, 1e300, 2.0**-1074], (rows, dim)), 0.0)
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        labels = rng.choice([-1.0, 1.0], rows)
        d = Dataset(indptr, np.nonzero(mask)[1], values[mask], labels, dim)
        W = np.resize(np.array(weights), (2, dim))
        signed = Dataset(d.indptr, d.indices, d.signed_values, d.labels, d.dim)
        indices, plain = d.padded
        with np.errstate(all="ignore"):
            pairs = [
                (losses_module.margins(signed, W), losses_module.margins(d, W)),
                (self.kernel_products(W, d.signed_padded, indices), self.kernel_products(W, plain, indices)),
            ]
            for z, m in pairs:
                assert (z + 0.0).tobytes() == (-labels[:, None] * m + 0.0).tobytes()

    def test_only_unit_labels_are_signed(self):
        d = parse_libsvm("1 1:2 3:-1\n-1 2:0.5\n1\n")
        assert d.signed_values.tolist() == [-2.0, 1.0, 0.5]
        assert d.signed_padded.tolist() == [[-2.0, 1.0], [0.5, 0.0], [-0.0, -0.0]]
        for label in (2.0, -0.5, 0.0, -0.0):
            other = parse_libsvm(f"1 1:2\n{label!r} 2:0.5\n")
            assert other.signed_values is None and other.signed_padded is None


class TestExpitLoaded:
    """The array logistic scale calls scipy's `expit` ufunc, loaded from the
    `special/_special_ufuncs` extension file alone where it can be."""

    # margins across +-800, the edges and 709.0000362545957
    MARGINS = np.concatenate([np.linspace(-800.0, 800.0, 41), EDGE_MARGINS, [709.0000362545957]])

    @pytest.mark.parametrize("cause", ["failing_loader", "missing_file"])
    def test_plain_import_where_the_extension_file_does_not_load(self, cause, monkeypatch):
        # the ufunc's extension file fails to load, or an older scipy has
        # none: expit comes from scipy.special's own import, and the scales
        # and the kernel keep their bits
        want_kernel = TestBlockedRisk.kernel_bytes("logistic")
        # loaded before the patches, so only expit's plain import is recorded
        losses_module._sparsetools()
        if cause == "failing_loader":

            class FailingLoader(importlib.machinery.ExtensionFileLoader):
                def create_module(self, spec):
                    raise ImportError("cannot load")

            monkeypatch.setattr(importlib.machinery, "ExtensionFileLoader", FailingLoader)
        else:

            class FinderWithoutIt(importlib.machinery.FileFinder):
                def find_spec(self, fullname, target=None):
                    return None if fullname == "scipy.special._special_ufuncs" else super().find_spec(fullname, target)

            monkeypatch.setattr(importlib.machinery, "FileFinder", FinderWithoutIt)
        imported = []
        import_module = importlib.import_module
        monkeypatch.setattr(importlib, "import_module", lambda name: imported.append(name) or import_module(name))
        losses_module._expit.cache_clear()
        try:
            got_kernel = TestBlockedRisk.kernel_bytes("logistic")
            got = grad_scales(self.MARGINS, -1.0, "logistic")
            expit = losses_module._expit()
        finally:
            losses_module._expit.cache_clear()
        from scipy.special import expit as plain

        assert imported == ["scipy.special"] and expit is plain
        assert_same_bits(got, expit_scales(self.MARGINS, -1.0))
        assert got_kernel == want_kernel

    def test_installed_scipy_takes_the_direct_path(self):
        # a silent fallback to the plain import would pass every byte test and
        # cost the import of scipy.special: the extension file loads alone
        losses_module._expit.cache_clear()
        with mock.patch.object(importlib, "import_module", side_effect=AssertionError("plain import")):
            expit = losses_module._expit()
        assert isinstance(expit, np.ufunc) and expit.__name__ == "expit"
        assert_same_bits(grad_scales(self.MARGINS, 1.0, "logistic"), expit_scales(self.MARGINS, 1.0))


class TestSmoothness:
    def test_logistic_quarter_norm(self):
        d = parse_libsvm("1 1:3 2:4\n-1 1:1\n")
        rep = smoothness(d, "logistic")
        np.testing.assert_allclose(rep.per_example, [6.25, 0.25])
        assert rep.alpha == 6.25

    def test_squared_full_norm(self):
        d = parse_libsvm("1 1:3 2:4\n-1 1:1\n")
        rep = smoothness(d, "squared")
        assert rep.alpha == 25.0

    def test_zero_features_zero_alpha(self):
        d = parse_libsvm("1\n-1\n")
        rep = smoothness(d, "logistic")
        assert rep.alpha == 0.0
        assert rep.per_example.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_large_finite_alpha_keeps_its_bits(self, kind):
        # 1e154 squares to 1e308, inside float range: no warning, and the
        # plain sum of squares
        d = parse_libsvm("1 1:1e154 2:3\n-1 1:1 2:1e-3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = smoothness(d, kind)
        norm_sq = 1e154 * 1e154 + 3.0 * 3.0
        assert rep.alpha == (norm_sq / 4.0 if kind == "logistic" else norm_sq)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_overflowing_alpha_is_a_data_error(self, kind):
        d = parse_libsvm("1 1:1e155 2:1\n-1 1:1 2:1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.norm_sq[0] == math.inf
            with pytest.raises(DataError, match="alpha overflows"):
                smoothness(d, kind)


class TestLossLemmas:
    """Inequality probes shared with the verify-invariants command."""

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_self_bounding(self, kind):
        outcome = check_self_bounding(kind, probes=10_000, seed=7)
        assert outcome.params["probes"] >= 10_000
        assert outcome.status == "pass", outcome

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_co_coercivity(self, kind):
        outcome = check_co_coercivity(kind, probes=10_000, seed=11)
        assert outcome.params["probes"] >= 10_000
        assert outcome.status == "pass", outcome

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    def test_convexity_first_order(self, kind):
        outcome = check_convexity(kind, probes=10_000, seed=13)
        assert outcome.status == "pass", outcome
