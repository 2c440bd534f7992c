"""Backward-induction solvers, Monte Carlo harness, and baselines."""

import math

import numpy as np
import pytest

from mwadversary import (
    ExpertState,
    KExpertParams,
    ModelParams,
    OnlinePolicy,
    clairvoyant_value,
    clairvoyant_values,
    exhaustive_offline_optimum,
    monte_carlo_k_expert,
    mw_step,
    no_info_conditional_losses,
    no_information_baseline,
    no_information_values,
    optimal_policy,
    optimal_value,
    optimal_values,
    simulate_online,
    solve_k_expert,
    solve_two_expert,
    system_prediction,
    weight_power,
)
from mwadversary.core import GuardError
from mwadversary.online_dp import _philox
from mwadversary.verify import expectimax_value

E = math.e


def params(mu=0.5, horizon=2, rho0=0.5, epsilon=1 / E, loss=None):
    return ModelParams(epsilon=epsilon, mu=mu, horizon=horizon, rho0=rho0, loss=loss)


# nondecreasing losses Q of the prediction error (None is the absolute loss)
LOSSES = {
    "absolute": None,
    "squared": lambda y: y * y,
    "sqrt": np.sqrt,
    "capped": lambda y: np.minimum(1.0, 2.0 * y),
}


class TestSolveTwoExpert:
    @pytest.mark.parametrize("mu,rho0", [(0.3, 0.5), (0.5, 0.5), (0.7, 0.2)])
    def test_single_stage(self, mu, rho0):
        table = solve_two_expert(params(mu=mu, horizon=1, rho0=rho0))
        assert table.lie_optimal[0][0]
        assert table.root_value == pytest.approx(1 - mu + mu * rho0, abs=1e-12)

    def test_two_stage_anchor(self):
        table = solve_two_expert(params())
        assert table.root_value == pytest.approx(1.442236, abs=1e-6)
        assert table.lie_optimal[0][0]

    def test_terminal_and_sign_structure(self):
        table = solve_two_expert(params(horizon=12))
        assert np.all(table.values[12] == 0.0)
        for k in range(13):
            assert table.values[k].size == 2 * k + 1
            assert np.all(table.values[k] >= 0.0)

    def test_values_nonincreasing_in_offset(self):
        """More punished lies means less weight and (numerically) no more
        achievable loss; checked as an observation, not proved."""
        for mu in (0.3, 0.5, 0.7):
            table = solve_two_expert(params(mu=mu, horizon=25))
            for k in range(26):
                assert np.all(np.diff(table.values[k]) <= 1e-12)

    def test_bellman_consistency(self):
        p = params(mu=0.4, horizon=20)
        table = solve_two_expert(p)
        mu = p.mu
        for k in range(p.horizon):
            for j in range(-k, k + 1):
                rho = weight_power(j, p.rho0, p)
                v = table.values[k + 1]  # offset i of stage k + 1 at index i + k + 1
                lie = 1 - mu + mu * rho + mu * v[j + k + 2] + (1 - mu) * v[j + k + 1]
                truth = (1 - mu) * (1 - rho) + (1 - mu) * v[j + k] + mu * v[j + k + 1]
                assert table.values[k][j + k] == pytest.approx(max(lie, truth), abs=1e-12)
                assert table.tie_flags[k][j + k] == (abs(lie - truth) <= 1e-12 * max(1.0, abs(lie), abs(truth)))

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_state_count_probe(self, n):
        """Exactly 2k+1 offsets are touched at stage k, so total work is
        quadratic in the horizon."""
        table = solve_two_expert(params(horizon=n))
        assert table.states_evaluated == n * n
        assert all(table.values[k].size == 2 * k + 1 for k in range(n + 1))

    def test_quadratic_work_scaling(self):
        counts = {n: solve_two_expert(params(horizon=n)).states_evaluated for n in (100, 200, 400)}
        assert counts[200] / counts[100] == 4.0
        assert counts[400] / counts[200] == 4.0


class TestOptimalValue:
    def test_anchors(self):
        assert optimal_value(params(horizon=1)) == pytest.approx(0.75, abs=1e-12)
        assert optimal_value(params(horizon=2)) == pytest.approx(1.442236, abs=1e-6)

    def test_loose_sanity_bounds(self):
        for mu in (0.3, 0.5, 0.7):
            v = optimal_value(params(mu=mu, horizon=100))
            assert (1 - mu) * 100 < v < 100


class TestSimulateOnline:
    def test_deterministic(self):
        p = params(horizon=10)
        table = solve_two_expert(p)
        a = simulate_online(p, table, trials=500, seed=42)
        b = simulate_online(p, table, trials=500, seed=42)
        assert a.mean == b.mean and a.stderr == b.stderr
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_stderr_definition(self):
        p = params(horizon=10)
        res = simulate_online(p, solve_two_expert(p), trials=400, seed=5)
        assert res.stderr == pytest.approx(res.per_trial.std(ddof=1) / 20.0, abs=1e-15)

    def test_near_deterministic_honest_expert(self):
        p = params(mu=0.999, horizon=5)
        table = solve_two_expert(p)
        res = simulate_online(p, table, trials=4000, seed=11)
        assert abs(res.mean - table.root_value) <= 3 * res.stderr

    def test_clt_band_large_run(self):
        p = params(horizon=20)
        table = solve_two_expert(p)
        res = simulate_online(p, table, trials=100_000, seed=7)
        assert abs(res.mean - table.root_value) <= 4 * res.stderr

    def test_mismatched_params(self):
        table = solve_two_expert(params(horizon=5))
        with pytest.raises(ValueError):
            simulate_online(params(horizon=6), table, trials=10, seed=0)

    @pytest.mark.parametrize("trials", [0, 2.5, math.nan, math.inf])
    def test_rejects_non_integer_trials(self, trials):
        p = params(horizon=5)
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            simulate_online(p, optimal_policy(p), trials=trials, seed=0)

    def test_integral_float_trials(self):
        """Trials follow the horizon rule: an integral float is its int."""
        p = params(horizon=5)
        a = simulate_online(p, optimal_policy(p), trials=5.0, seed=3)
        b = simulate_online(p, optimal_policy(p), trials=5, seed=3)
        assert a.trials == 5 and type(a.trials) is int
        assert np.array_equal(a.per_trial, b.per_trial)


def _row_major_simulation(p, table, trials, seed):
    """Reference play of a table: every trial's draws in one (trials, N)
    block of the seeded stream, read column by column."""
    n = p.horizon
    correct = np.random.Generator(np.random.Philox(key=seed)).random((trials, n)) < p.mu
    rho_all = weight_power(np.arange(-n, n + 1), p.rho0, p)
    j = np.zeros(trials, dtype=np.int64)
    loss = np.zeros(trials)
    for k in range(n):
        lie = table.lie_optimal[k][j + k]
        c = correct[:, k]
        rho = rho_all[j + n]
        loss += p.q_vec(np.where(lie, np.where(c, rho, 1.0), np.where(c, 0.0, 1.0 - rho)))
        j = j + np.where(lie & c, 1, 0) - np.where(~lie & ~c, 1, 0)
    return loss


class TestOptimalPolicy:
    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7, 0.93])
    @pytest.mark.parametrize("rho0", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_matches_value_table(self, mu, rho0, n):
        """Root value and every stage's actions, tie states included, are
        the full table's bit for bit."""
        p = params(mu=mu, horizon=n, rho0=rho0)
        policy, table = optimal_policy(p), solve_two_expert(p)
        assert isinstance(table, OnlinePolicy) and policy.params == table.params == p
        assert policy.root_value == table.root_value
        assert len(policy.lie_optimal) == n
        for k in range(n):
            got = policy.lie_optimal[k]
            assert got.dtype == bool and np.array_equal(got, table.lie_optimal[k])
        assert np.array_equal(policy.lie_optimal[-1], table.lie_optimal[-1])

    @pytest.mark.parametrize("mu,rho0,loss", [
        pytest.param(0.3, 0.5, None, id="0.3-0.5"),
        pytest.param(0.5, 0.05, None, id="0.5-0.05"),
        pytest.param(0.93, 0.9, None, id="0.93-0.9"),
        pytest.param(0.7, 0.2, LOSSES["squared"], id="0.7-0.2-squared"),
        pytest.param(0.5, 0.3, math.sqrt, id="0.5-0.3-math.sqrt"),  # scalar-only loss
    ])
    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("trials", [1, 249, 250, 251, 777])
    def test_simulation_bit_identical(self, mu, rho0, loss, n, trials):
        """Lean record and table play the same per-trial losses, equal to a
        row-major play of the whole draw block at once."""
        p = params(mu=mu, horizon=n, rho0=rho0, loss=loss)
        table = solve_two_expert(p)
        lean = simulate_online(p, optimal_policy(p), trials, seed=1729)
        full = simulate_online(p, table, trials, seed=1729)
        assert np.array_equal(lean.per_trial, full.per_trial)
        assert np.array_equal(lean.per_trial, _row_major_simulation(p, table, trials, 1729))
        assert (lean.mean, lean.stderr) == (full.mean, full.stderr)

    @pytest.mark.parametrize("n", [1, 7, 60, 301, 1000])
    def test_actions_are_packed_bits(self, n):
        """The stored actions total at most N^2/8 + N bytes, one bit per
        state plus at most one partial byte per stage."""
        packed = optimal_policy(params(horizon=n)).lie_optimal.packed
        assert sum(a.nbytes for a in packed) <= n * n / 8 + n


class TestGeneralLoss:
    @pytest.mark.parametrize("loss", list(LOSSES))
    @pytest.mark.parametrize("mu,rho0,epsilon", [(0.3, 0.2, 1 / E), (0.5, 0.5, 0.6),
                                                 (0.7, 0.5, 1 / E)])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_two_expert_matches_expectimax_over_raw_weights(self, loss, mu, rho0, epsilon, n):
        """Every two-expert entry point solves the loss Q that an oracle
        without the offset lattice plays on raw weights."""
        p = params(mu=mu, horizon=n, rho0=rho0, epsilon=epsilon, loss=LOSSES[loss])
        kp = KExpertParams(epsilon=epsilon, horizon=n, accuracies=(mu,),
                           initial_weights=(rho0, 1.0 - rho0))
        want = expectimax_value(kp, p.loss)
        for got in (solve_two_expert(p).root_value, optimal_policy(p).root_value,
                    optimal_values(p)[-1], optimal_value(p)):
            assert got == pytest.approx(want, rel=1e-13)


def test_expectimax_one_stage_closed_form():
    """With one stage left the adversary lies: if the honest expert is right
    the error is the adversary's weight share rho0, otherwise it is 1."""
    for mu, rho0 in [(0.3, 0.2), (0.7, 0.5), (0.5, 0.9)]:
        kp = KExpertParams(epsilon=1 / E, horizon=1, accuracies=(mu,),
                           initial_weights=(rho0, 1.0 - rho0))
        for q in (None, LOSSES["squared"]):
            lie = mu * (rho0 if q is None else q(rho0)) + (1.0 - mu)
            assert expectimax_value(kp, q) == pytest.approx(lie, rel=1e-15)


class TestSolveKExpert:
    def test_two_expert_reduction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            eps = float(rng.uniform(0.1, 0.9))
            mu = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(1, 26))
            w1, w2 = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
            kp = KExpertParams(epsilon=eps, horizon=n, accuracies=(mu,), initial_weights=(w1, w2))
            direct = optimal_value(
                ModelParams(epsilon=eps, mu=mu, horizon=n, rho0=w1 / (w1 + w2))
            )
            assert solve_k_expert(kp) == pytest.approx(direct, abs=1e-9)

    def test_three_expert_single_stage(self):
        kp = KExpertParams(epsilon=1 / E, horizon=1, accuracies=(0.5, 0.5), initial_weights=(1.0, 1.0, 1.0))
        # lying dominates: expected loss is the mean over the four honest
        # outcome combinations of the wrong-weight share
        assert solve_k_expert(kp) == pytest.approx(2 / 3, abs=1e-12)

    def test_five_expert_tracks_reduced_model(self):
        for n in (6, 10):
            kp = KExpertParams(epsilon=1 / E, horizon=n, accuracies=(0.5,) * 4, initial_weights=(1.0,) * 5)
            v2 = optimal_value(ModelParams(epsilon=1 / E, mu=0.5, horizon=n, rho0=0.2))
            assert abs(solve_k_expert(kp) - v2) <= 0.05 * n

    @pytest.mark.parametrize("accuracies, weights, epsilon, n", [
        ((0.3, 0.8), (1.0, 2.0, 0.5), 0.4, 5),
        ((0.6, 0.45, 0.9), (0.7, 1.0, 2.5, 0.3), 1 / E, 5),
        ((0.2, 0.55, 0.7, 0.85), (1.5, 0.4, 1.0, 2.0, 0.8), 0.6, 3),
        ((0.5, 0.35, 0.65, 0.5), (1.0, 3.0, 0.2, 1.0, 1.0), 0.15, 2),
    ])
    def test_matches_expectimax_over_raw_weights(self, accuracies, weights, epsilon, n):
        kp = KExpertParams(epsilon=epsilon, horizon=n, accuracies=accuracies,
                           initial_weights=weights)
        assert solve_k_expert(kp) == pytest.approx(expectimax_value(kp, None), rel=1e-12)

    def test_guards(self):
        with pytest.raises(GuardError):
            solve_k_expert(
                KExpertParams(epsilon=0.5, horizon=5, accuracies=(0.5,) * 5, initial_weights=(1.0,) * 6)
            )
        with pytest.raises(GuardError):
            solve_k_expert(
                KExpertParams(epsilon=0.5, horizon=61, accuracies=(0.5,), initial_weights=(1.0, 1.0))
            )
        with pytest.raises(GuardError):
            solve_k_expert(
                KExpertParams(epsilon=0.5, horizon=20, accuracies=(0.5,) * 4, initial_weights=(1.0,) * 5)
            )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KExpertParams(epsilon=0.5, horizon=5, accuracies=(1.0,), initial_weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            KExpertParams(epsilon=0.5, horizon=5, accuracies=(0.5,), initial_weights=(1.0,))

    def test_overflowing_weights_are_a_guard_violation(self):
        # eps^-40 overflows at epsilon = 1e-9, where the two-expert solver
        # (overflow-safe weights) still gives a finite value
        kp = KExpertParams(epsilon=1e-9, horizon=40, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        assert math.isfinite(optimal_value(params(epsilon=1e-9, horizon=40)))
        with pytest.raises(GuardError, match=r"epsilon=1e-09 and N=40"):
            solve_k_expert(kp)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                         (1.0, 1e308, 1e308)])
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            KExpertParams(epsilon=0.5, horizon=5, accuracies=(0.5, 0.5), initial_weights=weights)


class TestClairvoyant:
    def test_single_stage_correct_honest(self):
        kp = KExpertParams(epsilon=1 / E, horizon=1, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        assert clairvoyant_value([[1]], kp) == pytest.approx(0.5, abs=1e-15)

    def test_single_stage_wrong_honest(self):
        kp = KExpertParams(epsilon=1 / E, horizon=1, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        # honest wrong: lying costs 1 now, truth costs 1 - rho; lying wins
        assert clairvoyant_value([[0]], kp) == pytest.approx(1.0, abs=1e-15)

    def test_dominates_fixed_response(self):
        """On the all-correct path the clairvoyant optimum beats replaying
        the all-lies response."""
        n = 8
        kp = KExpertParams(epsilon=1 / E, horizon=n, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        all_lie_loss = sum(
            weight_power(j, 0.5, params(horizon=n)) for j in range(n)
        )
        assert clairvoyant_value(np.ones((1, n), dtype=int), kp) >= all_lie_loss - 1e-12

    @pytest.mark.parametrize("n", [6, 10])
    def test_average_clairvoyance_dominates_online(self, n):
        kp = KExpertParams(epsilon=1 / E, horizon=n, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        total = 0.0
        for code in range(1 << n):
            path = np.array([[(code >> k) & 1 for k in range(n)]])
            total += clairvoyant_value(path, kp)
        assert total / (1 << n) >= optimal_value(params(horizon=n)) - 1e-12

    def test_dimension_mismatch(self):
        kp = KExpertParams(epsilon=1 / E, horizon=3, accuracies=(0.5, 0.5), initial_weights=(1.0,) * 3)
        with pytest.raises(ValueError):
            clairvoyant_value(np.ones((1, 3), dtype=int), kp)


def replayed_clairvoyant_value(realized, kp):
    """Best total loss over all 2^N lie/truth sequences against one honest
    realization, each replayed with mw_step/system_prediction (outcome fixed
    to 1, which the relative encoding makes harmless)."""
    honest, n = realized.shape
    mw = ModelParams(epsilon=kp.epsilon, mu=0.5, horizon=n, rho0=0.5)
    best = -math.inf
    for code in range(1 << n):
        state = ExpertState(np.array(kp.initial_weights))
        loss = 0.0
        for k in range(n):
            predictions = [0 if (code >> k) & 1 else 1, *(int(c) for c in realized[:, k])]
            loss += abs(system_prediction(state, predictions) - 1)
            state = mw_step(state, predictions, 1, mw)
        best = max(best, loss)
    return best


class TestClairvoyantValues:
    @pytest.mark.parametrize("honest", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_matches_replayed_sequences(self, honest, n):
        kp = KExpertParams(epsilon=0.4, horizon=n, accuracies=(0.6,) * honest,
                           initial_weights=(1.0, 2.0, 0.5, 1.5)[: honest + 1])
        realized = (np.random.default_rng(n * 10 + honest).random((4, honest, n)) < 0.6).astype(int)
        got = clairvoyant_values(realized, kp)
        assert got.shape == (4,)
        for value, r in zip(got, realized):
            assert value == pytest.approx(replayed_clairvoyant_value(r, kp), rel=1e-12)

    @pytest.mark.parametrize("trials", [1, 249, 250, 251, 777])
    def test_monte_carlo_blocks_equal_one_draw(self, trials):
        kp = KExpertParams(epsilon=1 / E, horizon=9, accuracies=(0.5, 0.7, 0.3),
                           initial_weights=(1.0,) * 4)
        draws = (_philox(11).random((trials, 3, 9)) < np.array([0.5, 0.7, 0.3])[:, None]).astype(int)
        want = [clairvoyant_value(d, kp) for d in draws]
        assert np.array_equal(monte_carlo_k_expert(kp, trials, 11).per_trial, want)

    def test_underflowing_weights_are_a_guard_violation(self):
        # at epsilon = 1e-9, 36 mistakes of every expert underflow all weights to 0
        kp = KExpertParams(epsilon=1e-9, horizon=60, accuracies=(0.3,), initial_weights=(1.0, 1.0))
        with pytest.raises(GuardError, match=r"epsilon=1e-09 and N=60"):
            clairvoyant_values(np.zeros((2, 1, 60), dtype=int), kp)
        with pytest.raises(GuardError, match=r"epsilon=1e-09 and N=60"):
            monte_carlo_k_expert(kp, trials=200, seed=1729)

    def test_rejects_bad_realizations(self):
        kp = KExpertParams(epsilon=1 / E, horizon=3, accuracies=(0.5, 0.5), initial_weights=(1.0,) * 3)
        with pytest.raises(ValueError):
            clairvoyant_values(np.ones((2, 3), dtype=int), kp)
        with pytest.raises(ValueError):
            clairvoyant_values(np.full((1, 2, 3), 2), kp)


class TestMonteCarloKExpert:
    def test_deterministic(self):
        kp = KExpertParams(epsilon=1 / E, horizon=8, accuracies=(0.5,) * 4, initial_weights=(1.0,) * 5)
        a = monte_carlo_k_expert(kp, trials=50, seed=3)
        b = monte_carlo_k_expert(kp, trials=50, seed=3)
        assert a.mean == b.mean and a.stderr == b.stderr
        assert np.array_equal(a.per_trial, b.per_trial)

    @pytest.mark.parametrize("trials", [0, 2.5, math.nan, math.inf])
    def test_rejects_non_integer_trials(self, trials):
        kp = KExpertParams(epsilon=1 / E, horizon=4, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            monte_carlo_k_expert(kp, trials=trials, seed=3)

    def test_integral_float_trials(self):
        kp = KExpertParams(epsilon=1 / E, horizon=4, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        a, b = monte_carlo_k_expert(kp, trials=5.0, seed=3), monte_carlo_k_expert(kp, 5, 3)
        assert a.trials == 5 and type(a.trials) is int
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_clairvoyant_mean_dominates_online_in_two_expert_case(self):
        kp = KExpertParams(epsilon=1 / E, horizon=12, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        res = monte_carlo_k_expert(kp, trials=300, seed=17)
        assert res.mean >= optimal_value(params(horizon=12)) - 3 * res.stderr


class TestNoInformationBaseline:
    def test_single_stage(self):
        assert no_information_baseline(params(horizon=1)) == pytest.approx(0.5, abs=1e-15)

    def test_equalization_identity(self):
        for mu in (0.3, 0.5, 0.9):
            for rho in (0.1, 0.5, 0.8):
                c0, c1 = no_info_conditional_losses(0.5, rho, mu)
                assert abs(c0 - c1) <= 1e-12

    def test_coin_is_maximin(self):
        # any q != 1/2 lowers the worse of the two conditional losses
        for q in (0.0, 0.3, 0.8, 1.0):
            c0, c1 = no_info_conditional_losses(q, 0.5, 0.5)
            e0, e1 = no_info_conditional_losses(0.5, 0.5, 0.5)
            assert min(c0, c1) <= min(e0, e1) + 1e-15

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_dominated_by_online_optimum(self, mu, n):
        p = params(mu=mu, horizon=n)
        assert no_information_baseline(p) <= optimal_value(p) + 1e-12

    def test_rejects_general_loss(self):
        with pytest.raises(ValueError):
            no_information_baseline(params(loss=lambda y: y * y))


def test_online_dominates_offline_with_strictness():
    diffs = []
    for n in range(1, 11):
        p = params(horizon=n)
        _, v_off = exhaustive_offline_optimum(p)
        diffs.append(optimal_value(p) - v_off)
    assert all(d >= -1e-9 for d in diffs)
    assert max(diffs) > 1e-6  # adaptivity strictly helps somewhere


class TestOptimalValues:
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("rho0", [0.2, 0.5])
    def test_every_prefix_is_the_full_solve(self, mu, rho0):
        """Offset 0 at stage 60 - r of one horizon-60 pass is the root of the
        horizon-r table, bit for bit."""
        values = optimal_values(params(mu=mu, horizon=60, rho0=rho0))
        assert values.shape == (61,)
        assert values[0] == 0.0
        for r in range(1, 61):
            assert values[r] == solve_two_expert(params(mu=mu, horizon=r, rho0=rho0)).root_value


def test_no_information_values_cost_half_per_stage_at_even_odds():
    # at mu = 1/2 the coin-flip adversary's per-stage loss 1 - mu + mu*rho -
    # rho/2 is 1/2 whatever the weight, so every prefix costs r/2
    for rho0 in (0.2, 0.5):
        values = no_information_values(params(horizon=40, rho0=rho0))
        assert values == pytest.approx(0.5 * np.arange(41), abs=1e-12)
