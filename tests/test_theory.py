import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import joined, reference_pair
from sgdm_stability.dataset import synthetic_binary_dataset
from sgdm_stability.optimizer import (
    HyperParams,
    SampleStream,
    Trajectory,
    run,
)
from sgdm_stability.theory import (
    check_opt_condition,
    check_stab_condition,
    epr_recipe,
    max_eta_hb,
    max_gamma_nesterov,
    max_step,
    optimization_bound,
    stability_bound,
    variant_params,
)
from sgdm_stability.verification import (
    auxiliary_sequence,
    check_dist_identity,
    check_y_identity,
    m_recursion_margins,
)


def hand_trajectory():
    """Two hand-worked steps at beta=0.5, gamma=0.1, eta=0.2 from w_1=(1,0),
    with their momenta m_0 = 0, m_1 = g_1 and m_2 = 0.5 m_1 + g_2."""
    hp = HyperParams(beta=0.5, gamma=0.1, eta=0.2, iterations=2)
    return Trajectory(
        iterates=np.array([[1.0, 0.0], [0.4, 0.3], [-0.1, 0.1]]),
        gradients=np.array([[2.0, -1.0], [1.0, 1.0]]),
        indices=np.ones(2, dtype=np.int64),
        hp=hp,
        momenta=np.array([[0.0, 0.0], [2.0, -1.0], [2.0, 0.5]]),
    )


class TestStepConditions:
    def test_stability_hand_value(self):
        hp = HyperParams(beta=0.5, gamma=0.01, eta=0.02, iterations=1)
        rep = check_stab_condition(hp, alpha=1.0)
        assert rep.lhs == pytest.approx(0.365, rel=1e-14)
        assert rep.rhs == 1.0
        assert rep.satisfied
        assert rep.slack == pytest.approx(0.635, rel=1e-14)

    def test_stability_beta_zero_closed_form(self):
        for gamma, eta in [(0.0, 0.1), (0.2, 0.05), (0.03, 0.2)]:
            hp = HyperParams(beta=0.0, gamma=gamma, eta=eta, iterations=1)
            rep = check_stab_condition(hp, alpha=2.0)
            assert rep.lhs == pytest.approx(3 * eta + 1.5 * gamma, rel=1e-15)

    def test_optimization_hand_value(self):
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=1)
        rep = check_opt_condition(hp, alpha=1.0)
        assert rep.lhs == pytest.approx(0.01, rel=1e-15)
        assert rep.rhs == pytest.approx(0.2 / 3, rel=1e-15)
        assert rep.satisfied

    def test_hb_opt_cap_is_exact_boundary(self):
        # eta = 2(1-b)^2 / (3 a (1+b)) makes lhs equal rhs
        for beta in (0.0, 0.5, 0.9):
            for alpha in (0.5, 2.0):
                eta = 2 * (1 - beta) ** 2 / (3 * alpha * (1 + beta))
                hp = HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=1)
                rep = check_opt_condition(hp, alpha)
                assert abs(rep.lhs - rep.rhs) <= 1e-12 * rep.rhs

    def test_alpha_zero_is_vacuous(self):
        hp = HyperParams(beta=0.9, gamma=5.0, eta=5.0, iterations=1)
        for rep in (check_stab_condition(hp, 0.0), check_opt_condition(hp, 0.0)):
            assert rep.rhs == math.inf
            assert rep.satisfied
            assert rep.slack == math.inf

    def test_negative_alpha_rejected(self):
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=1)
        with pytest.raises(ValueError):
            check_stab_condition(hp, -1.0)
        with pytest.raises(ValueError):
            check_opt_condition(hp, -1.0)


class TestStepCaps:
    def test_beta_zero_values(self):
        assert max_eta_hb(0.0, 1.0) == pytest.approx(1 / 3, rel=1e-15)
        assert max_gamma_nesterov(0.0, 1.0) == pytest.approx(2 / 3, rel=1e-15)

    def test_hand_values(self):
        assert max_eta_hb(0.9, 1.0) == pytest.approx(0.01 / 3.99, rel=1e-14)
        assert max_gamma_nesterov(0.5, 1.0) == pytest.approx(0.5 / 7, rel=1e-14)

    def test_caps_scale_inversely_with_alpha(self):
        assert max_eta_hb(0.5, 4.0) == pytest.approx(max_eta_hb(0.5, 1.0) / 4, rel=1e-15)

    def test_cap_saturates_stability_condition(self):
        # at the cap the heavy-ball stability condition holds with ~zero slack
        for beta in (0.0, 0.3, 0.7, 0.95):
            eta = max_eta_hb(beta, 2.0)
            rep = check_stab_condition(HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=1), 2.0)
            assert abs(rep.lhs - rep.rhs) <= 1e-12 * rep.rhs

    def test_fractional_cap_satisfies_both_conditions(self):
        # the stability cap is below the optimization cap for every beta,
        # so eta = f * max_eta_hb passes both checks whenever f <= 1
        for beta in (0.0, 0.5, 0.9, 0.99):
            for f in (0.25, 0.5, 1.0):
                eta = f * max_eta_hb(beta, 1.0)
                hp = HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=1)
                stab = check_stab_condition(hp, 1.0)
                opt = check_opt_condition(hp, 1.0)
                assert stab.slack >= -1e-12 * stab.rhs
                assert opt.satisfied

    @pytest.mark.parametrize("variant", ["hb", "nesterov", "general"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 0.99])
    @pytest.mark.parametrize("alpha", [0.25, 5.5])
    def test_max_step_sizes_the_variant_that_runs(self, variant, beta, alpha):
        # the step the variant's own hyperparameters admit: just below the cap
        # satisfies the condition, just above it does not
        cap = max_step(variant, beta, alpha)
        below = check_stab_condition(variant_params(variant, 0.999 * cap, beta, 1), alpha)
        above = check_stab_condition(variant_params(variant, 1.001 * cap, beta, 1), alpha)
        assert below.satisfied
        assert not above.satisfied

    @settings(max_examples=300, deadline=None)
    @given(
        variant=st.sampled_from(["hb", "nesterov", "general"]),
        beta=st.sampled_from([0.0, 0.5, 0.9, 0.99]) | st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False),
        alpha=st.floats(1e-6, 1e6),
    )
    @example(variant="hb", beta=0.0, alpha=25.835170422662706)
    def test_max_step_admits_itself_and_nothing_above(self, variant, beta, alpha):
        # the cap passes its own condition; where the closed form was refused
        # by a rounding and stepped down, the next float up is still refused
        def admitted(step):
            return check_stab_condition(variant_params(variant, step, beta, 1), alpha).satisfied

        cap = max_step(variant, beta, alpha)
        assert admitted(cap)
        if variant == "hb" or (variant == "nesterov" and beta == 0.0):
            closed = max_eta_hb(beta, alpha)
        elif variant == "nesterov":
            closed = max_gamma_nesterov(beta, alpha)
        else:
            closed = 2 * (1 - beta) ** 2 / (alpha * (9 + 4 * beta - beta * beta))
        if admitted(closed):
            assert cap == closed
        else:
            assert cap < closed
            assert not admitted(math.nextafter(cap, math.inf))

    def test_max_step_closed_forms(self):
        assert max_step("hb", 0.5, 2.0) == max_eta_hb(0.5, 2.0)
        assert max_step("nesterov", 0.5, 2.0) == max_gamma_nesterov(0.5, 2.0)
        assert max_step("nesterov", 0.0, 2.0) == max_eta_hb(0.0, 2.0)
        assert max_step("general", 0.0, 1.0) == pytest.approx(2 / 9, rel=1e-15)
        with pytest.raises(ValueError):
            max_step("adam", 0.5, 1.0)
        with pytest.raises(ValueError):
            max_step("general", 1.0, 1.0)
        with pytest.raises(ValueError):
            max_step("hb", 0.5, math.nan)

    def test_huge_step_is_unsatisfied_not_an_overflow(self):
        hp = HyperParams(beta=0.5, gamma=1e300, eta=1e300, iterations=1)
        rep = check_opt_condition(hp, 1.0)
        assert rep.lhs == math.inf
        assert not rep.satisfied

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            max_eta_hb(1.0, 1.0)
        with pytest.raises(ValueError):
            max_eta_hb(0.5, 0.0)
        with pytest.raises(ValueError):
            max_gamma_nesterov(-0.1, 1.0)


class TestStabilityBound:
    def test_hand_value_hb(self):
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=100)
        rep = stability_bound(hp, alpha=1.0, n=100, t=100, sum_risk=50.0, variant="hb")
        assert rep.value == pytest.approx(0.12 * math.e, rel=1e-14)
        assert rep.formula == "stab_hb"
        assert rep.condition_ok

    def test_zero_risk_gives_zero(self):
        hp = variant_params("hb", 0.01, 0.5, 10)
        rep = stability_bound(hp, alpha=1.0, n=50, t=10, sum_risk=0.0)
        assert rep.value == 0.0

    def test_specialization_consistency(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            beta = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.1, 5.0))
            n = int(rng.integers(10, 1000))
            t = int(rng.integers(1, 5000))
            sum_risk = float(rng.uniform(0.0, 100.0))
            eta = float(rng.uniform(1e-4, 0.5))
            hb = HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=t)
            a = stability_bound(hb, alpha, n, t, sum_risk, "hb").value
            b = stability_bound(hb, alpha, n, t, sum_risk, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)
            gamma = float(rng.uniform(1e-4, 0.5))
            nest = variant_params("nesterov", gamma, beta, t)
            a = stability_bound(nest, alpha, n, t, sum_risk, "nesterov").value
            b = stability_bound(nest, alpha, n, t, sum_risk, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_monotone_in_beta(self):
        values = []
        for beta in (0.0, 0.3, 0.6, 0.9):
            hp = HyperParams(beta=beta, gamma=0.0, eta=0.01, iterations=200)
            values.append(stability_bound(hp, 1.0, 100, 200, 10.0, "hb").value)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_condition_flag_advisory(self):
        hp = HyperParams(beta=0.9, gamma=0.0, eta=10.0, iterations=5)
        rep = stability_bound(hp, alpha=1.0, n=10, t=5, sum_risk=1.0, variant="hb")
        assert not rep.condition_ok
        assert math.isfinite(rep.value)

    def test_variant_shape_enforced(self):
        hp = HyperParams(beta=0.5, gamma=0.1, eta=0.2, iterations=5)
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 10, 5, 1.0, variant="hb")
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 10, 5, 1.0, variant="nesterov")

    def test_bad_inputs(self):
        hp = variant_params("hb", 0.01, 0.5, 5)
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 0, 5, 1.0)
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 10, 0, 1.0)
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 10, 5, -1.0)
        with pytest.raises(ValueError):
            stability_bound(hp, 1.0, 10, 5, 1.0, variant="banana")


class TestOptimizationBound:
    def test_hand_value_hb(self):
        hp = HyperParams(beta=0.0, gamma=0.0, eta=0.1, iterations=100)
        rep = optimization_bound(hp, alpha=1.0, dist_sq=1.0, t=100, ref_risk=0.2, variant="hb")
        assert rep.value == pytest.approx(0.21, rel=1e-14)
        assert rep.formula == "opt_hb"

    def test_specialization_consistency(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            beta = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.1, 5.0))
            t = int(rng.integers(1, 5000))
            dist_sq = float(rng.uniform(0.0, 10.0))
            ref = float(rng.uniform(0.0, 2.0))
            eta = float(rng.uniform(1e-4, 0.5))
            hb = HyperParams(beta=beta, gamma=0.0, eta=eta, iterations=t)
            a = optimization_bound(hb, alpha, dist_sq, t, ref, "hb").value
            b = optimization_bound(hb, alpha, dist_sq, t, ref, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)
            gamma = float(rng.uniform(1e-4, 0.5))
            nest = variant_params("nesterov", gamma, beta, t)
            a = optimization_bound(nest, alpha, dist_sq, t, ref, "nesterov").value
            b = optimization_bound(nest, alpha, dist_sq, t, ref, "general").value
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)

    def test_first_term_scales_inversely_with_t(self):
        hp = variant_params("hb", 0.05, 0.5, 100)
        v1 = optimization_bound(hp, 1.0, 2.0, 100, 0.0, "hb").value
        v2 = optimization_bound(hp, 1.0, 2.0, 200, 0.0, "hb").value
        assert v2 == pytest.approx(v1 / 2, rel=1e-14)

    def test_residual_term_survives_large_t(self):
        hp = variant_params("hb", 0.05, 0.5, 100)
        floor = 3 * 1.0 * 1.5 * 0.05 * 0.3 / 0.25  # 3 a (1+b) eta ref / (1-b)^2
        v = optimization_bound(hp, 1.0, 2.0, 10**9, 0.3, "hb").value
        assert v == pytest.approx(floor, rel=1e-6)

    def test_bad_inputs(self):
        hp = variant_params("hb", 0.05, 0.5, 10)
        with pytest.raises(ValueError):
            optimization_bound(hp, 1.0, -1.0, 10, 0.1)
        with pytest.raises(ValueError):
            optimization_bound(hp, 1.0, 1.0, 0, 0.1)
        with pytest.raises(ValueError):
            optimization_bound(hp, 1.0, 1.0, 10, -0.1)


class TestAuxiliarySequence:
    def test_starts_at_w1_and_hand_value(self):
        y, effective_step = auxiliary_sequence(hand_trajectory())
        np.testing.assert_array_equal(y[0], [1.0, 0.0])
        np.testing.assert_allclose(y[1], [0.0, 0.5], atol=1e-15)
        np.testing.assert_allclose(y[2], [-0.5, 0.0], atol=1e-15)
        assert effective_step == pytest.approx(0.5, rel=1e-15)

    def test_identity_residual_small_on_hand_example(self):
        traj = hand_trajectory()
        y, _ = auxiliary_sequence(traj)
        # the check reports the residual over 1 + max_k ||y_k||
        scale = 1.0 + float(np.linalg.norm(y, axis=1).max())
        assert check_y_identity("logistic", traj).observed <= 1e-15 / scale

    def test_beta_zero_aux_equals_iterates(self):
        data = synthetic_binary_dataset(30, 5, seed=0)
        hp = HyperParams(beta=0.0, gamma=0.04, eta=0.06, iterations=300)
        traj = run(data, "logistic", hp, np.zeros(5), SampleStream(3, 30))
        y, _ = auxiliary_sequence(traj)
        np.testing.assert_array_equal(y, traj.iterates)
        assert check_y_identity("logistic", traj).observed <= 1e-12

    @pytest.mark.parametrize("beta,gamma,eta", [(0.5, 0.1, 0.2), (0.9, 0.0, 0.005), (0.8, 0.02, 0.016)])
    def test_identity_holds_on_data_runs(self, beta, gamma, eta):
        data = synthetic_binary_dataset(50, 8, seed=1)
        hp = HyperParams(beta=beta, gamma=gamma, eta=eta, iterations=500)
        traj = run(data, "logistic", hp, np.zeros(8), SampleStream(5, 50))
        assert check_y_identity("logistic", traj).observed <= 1e-10


class TestDistIdentity:
    def test_hand_values(self):
        traj = hand_trajectory()
        y, _ = auxiliary_sequence(traj)
        lhs_2 = float(np.sum((y[1] - traj.iterates[1]) ** 2))
        assert lhs_2 == pytest.approx(0.2, rel=1e-14)
        identity, margin = check_dist_identity("logistic", traj)
        assert identity.observed <= 1e-14
        assert margin.observed >= -1e-14

    def test_bound_grows_with_gradient_history(self):
        data = synthetic_binary_dataset(40, 6, seed=2)
        hp = HyperParams(beta=0.9, gamma=0.01, eta=0.009, iterations=400)
        traj = run(data, "logistic", hp, np.zeros(6), SampleStream(7, 40))
        identity, margin = check_dist_identity("logistic", traj)
        assert identity.observed <= 1e-10
        assert margin.observed >= -1e-10


class TestMomentumRecursionBound:
    def _runs(self, beta, steps=200, seed=4):
        data, rows, pool_rows = joined(
            synthetic_binary_dataset(30, 5, seed=seed), synthetic_binary_dataset(5, 5, seed=seed + 1)
        )
        hp = HyperParams(beta=beta, gamma=0.01, eta=0.02, iterations=steps)
        base, neighbor, _ = reference_pair(
            data, rows, 3, pool_rows[0], "logistic", hp, np.zeros(5), SampleStream(seed, 30)
        )
        return base, neighbor

    def test_margins_nonnegative(self):
        for beta in (0.3, 0.5, 0.9):
            margins = m_recursion_margins(*self._runs(beta))
            assert margins.shape == (200,)
            assert margins.min() >= -1e-10

    def test_first_hit_margin_matches_slack_factor(self):
        # up to the first perturbed-index hit both sides are zero; at the hit
        # rhs = (1 + 1/delta) * lhs, so the margin is strictly positive there
        base, neighbor = self._runs(0.5)
        hits = np.flatnonzero(base.indices == 3)
        assert hits.size > 0
        first = hits[0]
        margins = m_recursion_margins(base, neighbor)
        assert np.all(margins[:first] == 0.0)
        assert margins[first] > 0.0

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            m_recursion_margins(*self._runs(0.0))

    def test_runs_of_different_streams_rejected(self):
        base, _ = self._runs(0.5)
        other, _ = self._runs(0.5, seed=5)
        with pytest.raises(ValueError, match="index stream"):
            m_recursion_margins(base, other)


class TestEprRecipe:
    def test_hand_high_noise(self):
        r = epr_recipe(10_000, 0.9, 0.01, "hb", alpha=1.0)
        assert r.regime == "high_noise"
        assert r.t == 100_000
        assert r.rho == pytest.approx(10.0, rel=1e-15)
        assert r.step == pytest.approx(1e-3, rel=1e-14)

    def test_low_noise(self):
        r = epr_recipe(1000, 0.5, 1e-6, "nesterov", alpha=0.01)
        assert r.regime == "low_noise"
        assert r.rho == 1.0
        assert r.t == 2000
        assert r.step == pytest.approx(0.25, rel=1e-15)  # below the cap at this alpha

    def test_boundary_l_star_is_high_noise(self):
        r = epr_recipe(100, 0.0, 1.0 / 100, "hb", alpha=0.001)
        assert r.regime == "high_noise"
        assert r.rho == pytest.approx(1.0)

    def test_clamp_activates_for_large_alpha(self):
        r = epr_recipe(100, 0.5, 1e-9, "hb", alpha=100.0)
        assert r.step == pytest.approx(r.cap, rel=0, abs=0)
        assert r.cap == pytest.approx(max_eta_hb(0.5, 100.0), rel=1e-15)

    def test_nesterov_uses_its_own_cap(self):
        r = epr_recipe(100, 0.5, 1e-9, "nesterov", alpha=100.0)
        assert r.cap == pytest.approx(max_gamma_nesterov(0.5, 100.0), rel=1e-15)

    def test_nesterov_beta_zero_uses_the_plain_sgd_cap(self):
        r = epr_recipe(100, 0.0, 1e-9, "nesterov", alpha=100.0)
        assert r.cap == max_eta_hb(0.0, 100.0)

    def test_round_trip_dict(self):
        d = epr_recipe(50, 0.0, 0.5, "hb", alpha=1.0).to_dict()
        assert d["regime"] == "high_noise"
        assert set(d) == {"regime", "t", "rho", "step", "l_star_estimate", "cap"}

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            epr_recipe(0, 0.5, 0.1, "hb", 1.0)
        with pytest.raises(ValueError):
            epr_recipe(10, 0.5, -0.1, "hb", 1.0)
        with pytest.raises(ValueError):
            epr_recipe(10, 0.5, 0.1, "general", 1.0)
        with pytest.raises(ValueError):
            epr_recipe(10, 1.0, 0.1, "hb", 1.0)
