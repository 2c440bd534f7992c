"""Weight-map, MW-update, and binomial utility tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwadversary import (
    ExpertState,
    KExpertParams,
    ModelParams,
    binomial,
    false_policy,
    mw_step,
    system_prediction,
    weight_power,
    weight_update_g,
    weight_update_g_inv,
)
from mwadversary.core import _MAX_EXP

E = math.e


def params(epsilon=1 / E, mu=0.5, horizon=10, rho0=0.5, loss=None):
    return ModelParams(epsilon=epsilon, mu=mu, horizon=horizon, rho0=rho0, loss=loss)


class TestModelParams:
    def test_accepts_interior_values(self):
        p = params(epsilon=0.3, mu=0.6, horizon=5, rho0=0.2)
        assert p.is_absolute and p.q(0.25) == 0.25

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_epsilon(self, eps):
        with pytest.raises(ValueError):
            params(epsilon=eps)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_degenerate_mu(self, mu):
        with pytest.raises(ValueError):
            params(mu=mu)

    @pytest.mark.parametrize("horizon", [0, -3, 2.5])
    def test_rejects_horizon(self, horizon):
        with pytest.raises(ValueError):
            params(horizon=horizon)

    @pytest.mark.parametrize("rho0", [0.0, 1.0])
    def test_rejects_boundary_rho0(self, rho0):
        with pytest.raises(ValueError):
            params(rho0=rho0)

    def test_rejects_decreasing_loss(self):
        with pytest.raises(ValueError):
            params(loss=lambda y: -y)

    def test_rejects_negative_loss_at_zero(self):
        with pytest.raises(ValueError):
            params(loss=lambda y: y - 0.5)

    @pytest.mark.parametrize("loss", [
        lambda y: math.nan,
        lambda y: math.inf,
        lambda y: y if y <= 0.5 else math.nan,
        lambda y: y if y < 1.0 else math.inf,
    ], ids=["nan", "inf", "nan-above-half", "inf-at-one"])
    def test_rejects_non_finite_loss(self, loss):
        with pytest.raises(ValueError, match="finite"):
            params(loss=loss)

    def test_accepts_squared_loss(self):
        p = params(loss=lambda y: y * y)
        assert not p.is_absolute
        assert p.q(0.5) == 0.25


@pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda n: params(horizon=n),
    lambda n: KExpertParams(epsilon=0.5, horizon=n, accuracies=(0.5,), initial_weights=(1.0, 1.0)),
    false_policy,
], ids=["ModelParams", "KExpertParams", "false_policy"])
def test_non_finite_horizon_is_a_value_error(build, horizon):
    with pytest.raises(ValueError, match="horizon must be a positive integer"):
        build(horizon)


@pytest.mark.parametrize("horizon", [7, np.int64(7), 7.0, np.float64(7.0)])
def test_integral_horizon_types_are_accepted(horizon):
    assert params(horizon=horizon).horizon == 7
    assert type(params(horizon=horizon).horizon) is int
    assert false_policy(horizon).horizon == 7


class TestWeightMaps:
    def test_g_fixed_point_at_one(self):
        for eps in (0.1, 1 / E, 0.9):
            assert weight_update_g(1.0, params(epsilon=eps)) == 1.0
            assert weight_update_g_inv(1.0, params(epsilon=eps)) == 1.0

    def test_g_anchor(self):
        assert weight_update_g(0.5, params()) == pytest.approx(1 / (1 + E), abs=1e-15)

    def test_g_inv_anchor(self):
        assert weight_update_g_inv(0.5, params()) == pytest.approx(E / (1 + E), abs=1e-15)

    def test_g_inv_undoes_g_example(self):
        assert weight_update_g_inv(1 / (1 + E), params()) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_inverse_composition(self, rho):
        p = params(epsilon=0.3)
        assert weight_update_g(weight_update_g_inv(rho, p), p) == pytest.approx(rho, abs=1e-12)
        assert weight_update_g_inv(weight_update_g(rho, p), p) == pytest.approx(rho, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1 / E, 0.8])
    def test_monotone_and_ordered_on_grid(self, eps):
        p = params(epsilon=eps)
        grid = np.linspace(1e-4, 1 - 1e-4, 1000)
        g = np.array([weight_update_g(r, p) for r in grid])
        g_inv = np.array([weight_update_g_inv(r, p) for r in grid])
        assert np.all(g < grid) and np.all(grid < g_inv)
        assert np.all(np.diff(g) > 0) and np.all(np.diff(g_inv) > 0)

    @pytest.mark.parametrize("rho", [0.0, -0.2, 1.1])
    def test_domain_errors(self, rho):
        with pytest.raises(ValueError):
            weight_update_g(rho, params())
        with pytest.raises(ValueError):
            weight_update_g_inv(rho, params())


class TestWeightPower:
    def test_zero_offset_is_identity(self):
        for rho in (0.05, 0.3, 0.5, 0.97):
            assert weight_power(0, rho, params()) == pytest.approx(rho, abs=1e-14)

    def test_anchor(self):
        w = weight_power(2, 0.5, params())
        assert type(w) is float and w == pytest.approx(1 / (1 + E**2), abs=1e-14)

    def test_unit_weight_is_a_fixed_point(self):
        assert weight_power(5, 1.0, params()) == 1.0
        assert weight_power(np.arange(-3, 4), 1.0, params()).tolist() == [1.0] * 7

    def test_matches_iterated_composition(self):
        p = params(epsilon=0.4)
        rho = 0.5
        fwd = rho
        back = rho
        for _ in range(3):
            fwd = weight_update_g(fwd, p)
            back = weight_update_g_inv(back, p)
        assert weight_power(3, rho, p) == pytest.approx(fwd, abs=1e-12)
        assert weight_power(-3, rho, p) == pytest.approx(back, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        j1=st.integers(-20, 20),
        j2=st.integers(-20, 20),
        rho=st.floats(0.01, 0.99),
        eps=st.floats(0.05, 0.95),
    )
    def test_composition_law(self, j1, j2, rho, eps):
        """Offsets compose additively.  A double can only carry the identity
        while the intermediate weight stays away from the 0/1 fixed points
        (rounding the weight near 1 discards the offset information, which
        is why states are tracked as integers, never as weights)."""
        p = params(epsilon=eps)
        mid = weight_power(j2, rho, p)
        assume(1e-4 <= mid <= 1 - 1e-4)
        lhs = weight_power(j1 + j2, rho, p)
        rhs = weight_power(j1, mid, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_composition_law_canonical_grid(self):
        p = params()
        for rho in (0.2, 0.5, 0.8):
            for j1 in range(-8, 9):
                for j2 in range(-8, 9):
                    lhs = weight_power(j1 + j2, rho, p)
                    rhs = weight_power(j1, weight_power(j2, rho, p), p)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_saturates_for_huge_offsets(self):
        p = params()
        assert 0.0 <= weight_power(10**6, 0.5, p) <= 1e-200
        assert weight_power(-(10**6), 0.5, p) == pytest.approx(1.0, abs=1e-200)

    @pytest.mark.parametrize("rho", [1e-5, 1e-300])
    def test_tiny_weight_saturates_to_zero_without_warning(self, rho):
        """(1/rho - 1) * e^700 overflows for such rho: the weight is then the
        exact limit 0, and no overflow warning is raised."""
        p = params()
        j = np.arange(-800, 801)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = weight_power(j, rho, p)
            assert weight_power(750, rho, p) == 0.0
        assert np.all(w[-math.log(p.epsilon) * j >= _MAX_EXP] == 0.0)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_array_input(self):
        p = params()
        j = np.arange(-3, 4)
        w = weight_power(j, 0.5, p)
        assert w.shape == j.shape
        assert np.all(np.diff(w) < 0)  # more punished lies => less weight
        assert w[3] == pytest.approx(0.5, abs=1e-14)


class TestExpertState:
    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf],
                                         [0.0, 1.0], [-1.0, 1.0]])
    def test_rejects_non_finite_or_nonpositive_weights(self, weights):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            ExpertState(np.array(weights))


class TestSystemPrediction:
    def test_unanimous(self):
        assert system_prediction(ExpertState(np.array([1.0, 1.0])), [1, 1]) == 1.0

    def test_equal_split(self):
        assert system_prediction(ExpertState(np.array([1.0, 1.0])), [1, 0]) == 0.5

    def test_normalization(self):
        got = system_prediction(ExpertState(np.array([1.0, E])), [1, 0])
        assert got == pytest.approx(1 / (1 + E), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            system_prediction(ExpertState(np.array([1.0, 1.0])), [1, 0, 1])

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            system_prediction(ExpertState(np.array([1.0, 1.0])), [0.5, 1])


class TestMwStep:
    def test_both_correct_unchanged(self):
        s = mw_step(ExpertState(np.array([1.0, 1.0])), [1, 1], 1, params())
        assert np.array_equal(s.weights, [1.0, 1.0])

    def test_adversary_punished(self):
        s = mw_step(ExpertState(np.array([1.0, 1.0])), [0, 1], 1, params())
        np.testing.assert_allclose(s.weights, [1 / E, 1.0])
        assert s.normalized[0] == pytest.approx(1 / (1 + E), abs=1e-15)

    def test_both_wrong_relative_weight_unchanged(self):
        s = mw_step(ExpertState(np.array([1.0, 1.0])), [0, 0], 1, params())
        np.testing.assert_allclose(s.weights, [1 / E, 1 / E])
        np.testing.assert_allclose(s.normalized, [0.5, 0.5])

    @pytest.mark.parametrize("x1", [0, 1])
    @pytest.mark.parametrize("x2", [0, 1])
    @pytest.mark.parametrize("y", [0, 1])
    def test_two_expert_reduction_all_cases(self, x1, x2, y):
        """The normalized-weight transition matches the three-case relative
        update for every (x1, x2, y) combination."""
        p = params(epsilon=0.37)
        state = ExpertState(np.array([0.8, 1.7]))
        rho = float(state.normalized[0])
        new = mw_step(state, [x1, x2], y, p)
        if x1 == x2:
            expected = rho
        elif x1 != y:  # adversary wrong, honest right
            expected = weight_update_g(rho, p)
        else:  # adversary right, honest wrong
            expected = weight_update_g_inv(rho, p)
        assert float(new.normalized[0]) == pytest.approx(expected, abs=1e-12)

    def test_normalized_weights_conserved(self):
        rng = np.random.default_rng(3)
        state = ExpertState(np.array([1.0, 1.0]))
        p = params()
        for _ in range(50):
            preds = list(rng.integers(0, 2, size=2))
            state = mw_step(state, preds, int(rng.integers(0, 2)), p)
            assert abs(state.normalized.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mw_step(ExpertState(np.array([1.0, 1.0])), [1], 1, params())

    def test_weights_track_mistake_counts(self):
        """After any prediction history each weight equals epsilon to the
        power of that expert's mistake count."""
        rng = np.random.default_rng(8)
        p = params(epsilon=0.6)
        state = ExpertState(np.array([1.0, 1.0, 1.0]))
        mistakes = np.zeros(3, dtype=int)
        for _ in range(30):
            preds = rng.integers(0, 2, size=3)
            y = int(rng.integers(0, 2))
            state = mw_step(state, list(preds), y, p)
            mistakes += preds != y
        np.testing.assert_allclose(state.weights, 0.6**mistakes, rtol=1e-12)


class TestBinomial:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_empty(self, p):
        d = binomial(0, p)
        assert d.pmf.tolist() == [1.0]
        assert d.tails.tolist() == [0.0]

    def test_two_trials(self):
        d = binomial(2, 0.5)
        np.testing.assert_allclose(d.pmf, [0.25, 0.5, 0.25], atol=1e-15)
        assert d.tails[0] == pytest.approx(0.75, abs=1e-15)
        assert d.tails[1] == pytest.approx(0.25, abs=1e-15)
        assert d.tails[2] == 0.0

    def test_degenerate_p(self):
        assert binomial(5, 1.0).pmf.tolist() == [0, 0, 0, 0, 0, 1]
        assert binomial(5, 0.0).pmf.tolist() == [1, 0, 0, 0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 40), p=st.floats(0.0, 1.0))
    def test_matches_direct_formula(self, n, p):
        d = binomial(n, p)
        direct = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
        np.testing.assert_allclose(d.pmf, direct, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 300), p=st.floats(0.0, 1.0))
    def test_mass_sums_to_one(self, n, p):
        assert abs(binomial(n, p).pmf.sum() - 1.0) <= 1e-12

    def test_tail_monotone(self):
        d = binomial(17, 0.3)
        tails = d.tails
        assert np.all(np.diff(tails) <= 0)
        assert tails[-1] == 0.0

    def test_mode_anchor_for_long_horizons(self):
        # (1-p)^n underflows here; the mode-anchored recurrence must not
        d = binomial(2000, 0.5)
        assert abs(d.pmf.sum() - 1.0) <= 1e-12
        assert d.pmf[1000] == max(d.pmf)

    @pytest.mark.parametrize("n, p", [(1000, 0.7), (2000, 0.3), (2000, 0.5), (2000, 0.7),
                                      (8000, 0.3), (8000, 0.5), (8000, 0.7)])
    def test_anchored_law_sums_to_one(self, n, p):
        """The lgamma anchor's rounding scaled these laws by up to 5e-12."""
        assert n * math.log1p(-p) <= -700  # (1-p)**n underflows: the anchored branch
        assert abs(binomial(n, p).pmf.sum() - 1.0) <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("n, p", [(9, 0.3), (100, 0.9), (300, 0.7), (1000, 0.3),
                                      (1000, 0.5), (2000, 0.2), (5000, 0.1)])
    def test_law_from_the_start_value_sums_to_one(self, n, p):
        """Rounding exp(n log1p(-p)) scaled these laws by up to 7.4e-14."""
        assert n * math.log1p(-p) > -700  # the recurrence starts at (1-p)**n
        assert abs(binomial(n, p).pmf.sum() - 1.0) <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("n, p", [(2000, 0.3), (2000, 0.7), (8000, 0.5)])
    def test_anchored_law_matches_the_exact_law(self, n, p):
        """Against the law of the float p itself, C(n, k) a^k (b-a)^(n-k) / b^n
        for p = a/b, each entry rounded once from exact integers."""
        a, b = p.as_integer_ratio()
        term, scale, exact = (b - a) ** n, b**n, []
        for k in range(n + 1):
            exact.append(term / scale)
            term = term * (n - k) * a // ((k + 1) * (b - a))
        assert math.fsum(np.abs(binomial(n, p).pmf - exact)) <= 5e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binomial(-1, 0.5)
        with pytest.raises(ValueError):
            binomial(3, 1.5)

    @pytest.mark.parametrize("trials", [math.inf, -math.inf, math.nan, 2.5])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be a nonnegative integer"):
            binomial(trials, 0.5)
