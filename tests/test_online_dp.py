"""Backward-induction solvers, Monte Carlo harness, and baselines."""

import math
from dataclasses import replace
from itertools import product

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
    mixed_policy_values,
    monte_carlo_k_expert,
    monte_carlo_k_expert_values,
    mw_step,
    no_info_conditional_losses,
    no_information_baseline,
    no_information_values,
    optimal_policy,
    optimal_value,
    optimal_values,
    simulate_online,
    solve_k_expert,
    solve_k_expert_values,
    solve_two_expert,
    system_prediction,
    weight_power,
)
from mwadversary.core import GuardError
from mwadversary import online_dp
from mwadversary.exact_eval import _offset_losses, _stage_costs
from mwadversary.online_dp import (
    _backward,
    _byte_split,
    _clairvoyant_forward,
    _full_row,
    _honest_outcomes,
    _saturated_bounds,
)
from mwadversary.verify import backward_clairvoyant_values, expectimax_value

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

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_stages_own_their_values(self, n):
        """The table keeps every stage as its own array: no two stages share
        memory, and every stage is still the Bellman step (costs, then the
        moved offset, then the kept one) from the next."""
        p = params(mu=0.3, horizon=n, rho0=0.2)
        table = solve_two_expert(p)
        lie_costs, truth_costs = _stage_costs(p)
        mu = p.mu
        for k in range(n):
            assert not any(np.shares_memory(table.values[k], table.values[i])
                           for i in range(k + 1, n + 1))
            v, window = table.values[k + 1], slice(n - k, n + k + 1)
            lie = lie_costs[window] + mu * v[2:] + (1.0 - mu) * v[1:-1]
            truth = truth_costs[window] + (1.0 - mu) * v[:-2] + mu * v[1:-1]
            assert np.array_equal(table.values[k], np.maximum(lie, truth))
            assert np.array_equal(table.lie_optimal[k], lie >= truth)

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_backward_stages_can_be_kept(self, n):
        """Every array the backward pass yields is new, so a caller may keep
        them all: no two kept arrays share memory, and each kept stage's
        values, expanded by their edge cells to the full row, are the larger
        action, each action the Bellman step from the kept next stage."""
        p = params(mu=0.3, horizon=n, rho0=0.2)
        stages = list(_backward(p))
        assert [k for k, *_ in stages] == list(range(n - 1, -1, -1))
        kept = [a for _, _, *arrays in stages for a in arrays]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(kept) for b in kept[i + 1:])
        lie_costs, truth_costs = _stage_costs(p)
        mu = p.mu
        nxt = np.zeros(2 * n + 1)
        for k, start, *arrays in stages:
            v, lie, truth = (_full_row(a, k, start) for a in arrays)
            window = slice(n - k, n + k + 1)
            assert np.array_equal(lie, lie_costs[window] + mu * nxt[2:] + (1.0 - mu) * nxt[1:-1])
            assert np.array_equal(truth, truth_costs[window] + (1.0 - mu) * nxt[:-2] + mu * nxt[1:-1])
            assert np.array_equal(v, np.maximum(lie, truth))
            nxt = v

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_state_count_probe(self, n):
        """The table holds 2k+1 offsets at stage k, N^2 states in all; the
        pass evaluates only the window of each stage (see
        ``TestSaturatedWindow``) and copies the rest from its edge cells."""
        table = solve_two_expert(params(horizon=n))
        assert table.states_evaluated == n * n
        assert all(table.values[k].size == 2 * k + 1 for k in range(n + 1))

    def test_quadratic_work_scaling(self):
        counts = {n: solve_two_expert(params(horizon=n)).states_evaluated for n in (100, 200, 400)}
        assert counts[200] / counts[100] == 4.0
        assert counts[400] / counts[200] == 4.0


def _full_cone_backward(p):
    """The Bellman step on every offset -k..k of every stage, with no window:
    the reference that the windowed pass must equal bit for bit."""
    n, mu = p.horizon, p.mu
    lie_costs, truth_costs = _stage_costs(p)
    v = np.zeros(2 * n + 1)
    for k in range(n - 1, -1, -1):
        window = slice(n - k, n + k + 1)
        up, down = mu * v, (1.0 - mu) * v
        lie = lie_costs[window] + up[2:]
        lie += down[1:-1]
        truth = truth_costs[window] + down[:-2]
        truth += up[1:-1]
        v = np.maximum(lie, truth)
        yield k, v, lie, truth


def _same_played_rows(a, b):
    """Whether two policies store the same reachable intervals and rows."""
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("lo", "hi", "actions"))


WINDOW_GRID = list(product((0.1, 0.3, 0.5, 0.93), (1e-12, 0.05, 0.5, 0.9, 1 - 1e-9), LOSSES))


class TestSaturatedWindow:
    """Past the offsets where rho_j rounds to 0 or 1 both stage costs are
    constant, and the backward pass evaluates only the window of offsets
    that meet a non-constant cost in their remaining stages."""

    @staticmethod
    def _check(p):
        policy, table = optimal_policy(p), solve_two_expert(p)
        ref_values = np.zeros(p.horizon + 1)
        for (k, start, *arrays), (k_ref, *ref) in zip(_backward(p), _full_cone_backward(p),
                                                      strict=True):
            assert k == k_ref
            for got, want in zip(arrays, ref):
                assert np.array_equal(_full_row(got, k, start), want)
            assert np.array_equal(table.lie_optimal[k], ref[1] >= ref[2])
            ref_values[p.horizon - k] = ref[0][k]
        assert policy.root_value == table.root_value == ref[0][0]
        assert _same_played_rows(policy, table)
        assert np.array_equal(optimal_values(p), ref_values)

    @pytest.mark.parametrize("eps", [1e-3, 1 / E, 0.6, 0.9, 0.99],
                             ids=["1e-3", "1/e", "0.6", "0.9", "0.99"])
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_window_is_the_full_cone_bit_for_bit(self, eps, n):
        """Each windowed stage, expanded by its edge cells, is the full-cone
        Bellman step bit for bit, as are the root value, the table's actions,
        the policy's played rows and every horizon's value, on extreme
        weights and every test loss."""
        for mu, rho0, loss in WINDOW_GRID:
            self._check(params(mu=mu, horizon=n, rho0=rho0, epsilon=eps, loss=LOSSES[loss]))

    def test_window_is_the_full_cone_at_a_long_horizon(self):
        self._check(params(mu=0.3, horizon=2000, rho0=0.2))

    @pytest.mark.parametrize("eps,bound", [(1 / E, 0.55), (0.9, 0.70)])
    def test_window_skips_the_saturated_offsets(self, eps, bound):
        """The windows hold about half of the N^2 states at N = 2000 (0.519
        at eps = 1/e, 0.661 at eps = 0.9)."""
        n = 2000
        sizes = [v.size for _, _, v, _, _ in _backward(params(horizon=n, epsilon=eps))]
        assert len(sizes) == n and sum(sizes) <= bound * n * n


# (mu, rho0, epsilon, loss) of problems stepped together by one backward pass
BATCHES = {
    "mixed-bounds": [(0.3, 0.2, 0.6, None), (0.5, 0.5, 0.6, None), (0.7, 0.9, 0.6, None)],
    "squared": [(mu, 0.5, 1 / E, LOSSES["squared"]) for mu in (0.3, 0.5, 0.7)],
    "eps-0.99": [(0.3, 0.2, 0.99, None), (0.7, 0.5, 0.99, None)],
    "one": [(0.3, 0.2, 0.6, None)],
}


class TestBatchedBackward:
    """A sequence of problems of one horizon shares one backward pass on
    offset-major (window, m) stages; every column is its problem's own pass
    bit for bit."""

    @staticmethod
    def _problems(batch, n):
        return [params(mu=mu, horizon=n, rho0=rho0, epsilon=eps, loss=loss)
                for mu, rho0, eps, loss in BATCHES[batch]]

    @pytest.mark.parametrize("batch", list(BATCHES))
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_rows_are_the_per_problem_passes_bit_for_bit(self, batch, n):
        problems = self._problems(batch, n)
        rows = optimal_values(problems)
        assert rows.shape == (len(problems), n + 1)
        for p, row in zip(problems, rows):
            assert np.array_equal(row.view(np.int64), optimal_values(p).view(np.int64))

    @pytest.mark.parametrize("batch", list(BATCHES))
    def test_stages_are_the_per_problem_stages_bit_for_bit(self, batch):
        """Each batched stage is an offset-major (window, m) array over the
        union of the problems' windows; column i, expanded by its edge
        cells, is problem i's stage.  The mixed batch's problems have
        different saturated bounds."""
        problems = self._problems(batch, 300)
        if batch == "mixed-bounds":
            assert len({_saturated_bounds(*_stage_costs(p)) for p in problems}) == len(problems)
        singles = [list(_backward(p)) for p in problems]
        for k, start, *arrays in _backward(problems):
            for i, own in enumerate(singles):
                k_own, own_start, *own_arrays = own[299 - k]
                assert k_own == k
                for got, want in zip(arrays, own_arrays):
                    assert got.shape[1] == len(problems)
                    assert np.array_equal(_full_row(got[:, i], k, start).view(np.int64),
                                          _full_row(want, k, own_start).view(np.int64))

    def test_mismatched_horizons_raise(self):
        with pytest.raises(ValueError, match="one horizon"):
            optimal_values([params(horizon=5), params(mu=0.3, horizon=6)])
        with pytest.raises(ValueError, match="one horizon"):
            next(_backward([params(horizon=5), params(horizon=4)]))
        with pytest.raises(ValueError, match="one horizon"):
            optimal_values([])

    def test_single_problem_yields_1d_stages(self):
        stages = list(_backward(params(mu=0.3, horizon=50, rho0=0.2)))
        assert all(a.ndim == 1 for _, _, *arrays in stages for a in arrays)
        assert optimal_values(params(horizon=50)).shape == (51,)


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

    def test_one_trial_leaves_stderr_undefined(self):
        p = params(horizon=5)
        res = simulate_online(p, optimal_policy(p), trials=1, seed=3)
        assert res.mean == res.per_trial[0] and math.isnan(res.stderr)

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


def _decoded_outcomes(seed, mus, trials):
    """Plain-Python decoding of the honest outcomes of ``trials`` trials,
    cell c of a trial correct with probability mus[c]: trial t's cells are
    the first bytes, little-endian, of its own ceil(cells / 8) words of
    ``Philox(key=seed).random_raw``; with 256 mu = m + r, byte b is correct
    iff b < m, or b == m and U < r, U = (x >> 11) / 2**53 for the next word
    x of ``Philox(key=seed).jumped()`` (no word taken where r == 0)."""
    cells = len(mus)
    words = -(-cells // 8)
    raw = np.random.Philox(key=seed).random_raw(trials * words).tolist()
    tie_words = np.random.Philox(key=seed).jumped()
    split = [(math.floor(256 * mu), 256 * mu - math.floor(256 * mu)) for mu in mus]
    out = []
    for t in range(trials):
        row = b"".join(w.to_bytes(8, "little") for w in raw[t * words:(t + 1) * words])
        trial = []
        for b, (m, r) in zip(row, split):  # the first `cells` bytes
            if b == m and r > 0:
                trial.append((tie_words.random_raw() >> 11) / 2**53 < r)
            else:
                trial.append(b < m)
        out.append(trial)
    return np.array(out, dtype=bool)


def _row_major_simulation(p, table, trials, seed):
    """Reference play of a table: every trial's outcomes decoded at once,
    read column by column."""
    n = p.horizon
    correct = _decoded_outcomes(seed, [p.mu] * n, trials)
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


class TestHonestOutcomes:
    @pytest.mark.parametrize("mu", [0.5, 0.3, 1 / 3, 0.999, 2**-10, 1 - 2**-53])
    def test_byte_split_is_exact(self, mu):
        m, r = _byte_split(mu)
        assert m == math.floor(256 * mu) and 0.0 <= r < 1.0
        assert m / 256 + r / 256 == mu

    def test_half_draws_no_tie_uniform(self, monkeypatch):
        """At mu = 1/2, 256 mu is whole: every cell is its byte below 128 and
        the tie stream is never opened."""

        class NoJump(np.random.Philox):
            def jumped(self, *args, **kwargs):
                raise AssertionError("a tie uniform was drawn")

        raw = np.random.Philox(key=3).random_raw(300 * 2).astype("<u8").view(np.uint8)
        p = params(horizon=13)
        policy = optimal_policy(p)
        monkeypatch.setattr(np.random, "Philox", NoJump)
        with pytest.raises(AssertionError, match="tie uniform"):
            next(_honest_outcomes(3, np.full(13, 0.3), 1))
        got = np.concatenate(list(_honest_outcomes(3, np.full(13, 0.5), 300)))
        assert np.array_equal(got, raw.reshape(300, 16)[:, :13] < 128)
        simulate_online(p, policy, 300, 3)

    @pytest.mark.parametrize("trials", [1, 7, 9, 255, 257])
    def test_trials_are_a_prefix(self, trials):
        """The first t trials are the same whatever number follows them."""
        p = params(mu=0.3, horizon=11, rho0=0.2)
        policy = optimal_policy(p)
        sim = simulate_online(p, policy, trials, 5).per_trial
        assert np.array_equal(sim, simulate_online(p, policy, 777, 5).per_trial[:trials])
        kp = KExpertParams(epsilon=0.4, horizon=6, accuracies=(0.3, 0.5, 0.9),
                           initial_weights=(1.0, 2.0, 0.5, 1.5))
        mc = monte_carlo_k_expert(kp, trials, 5).per_trial
        assert np.array_equal(mc, monte_carlo_k_expert(kp, 777, 5).per_trial[:trials])

    @pytest.mark.parametrize("mu", [0.3, 0.999])
    def test_frequency_within_five_sigma(self, mu):
        trials, cells = 2**10, 2**12
        hits = sum(int(np.count_nonzero(c)) for c in _honest_outcomes(17, np.full(cells, mu), trials))
        n = trials * cells
        assert abs(hits / n - mu) <= 5 * math.sqrt(mu * (1 - mu) / n)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_simulated_mean_near_online_value(self, mu, seed):
        """The benchmark's correctness gate on its long run, at a quarter of
        its horizon and at every accuracy, the tied bytes included."""
        p = params(mu=mu, horizon=2000)
        policy = optimal_policy(p)
        res = simulate_online(p, policy, 2000, seed)
        assert abs(res.mean - policy.root_value) <= 5 * res.stderr


class TestOptimalPolicy:
    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.5, 0.7, 0.93])
    @pytest.mark.parametrize("rho0", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_matches_value_table(self, mu, rho0, n):
        """Root value and played rows are the full table's bit for bit, and
        stage k's row holds the table's actions, tie states included, on
        its reachable offsets lo_k..hi_k."""
        p = params(mu=mu, horizon=n, rho0=rho0)
        policy, table = optimal_policy(p), solve_two_expert(p)
        assert isinstance(table, OnlinePolicy) and policy.params == table.params == p
        assert policy.root_value == table.root_value
        assert _same_played_rows(policy, table)
        lo, hi = policy.lo, policy.hi
        assert lo.shape == hi.shape == (n,)
        for k in range(n):
            bits = np.unpackbits(policy.actions[k], count=hi[-1] - lo[-1] + 1).view(bool)
            assert np.array_equal(bits[lo[k] - lo[-1] : hi[k] - lo[-1] + 1],
                                  table.lie_optimal[k][lo[k] + k : hi[k] + k + 1])

    @pytest.mark.parametrize("eps", [1 / E, 0.9, 0.99], ids=["1/e", "0.9", "0.99"])
    @pytest.mark.parametrize("n", [1, 8, 9, 301])
    def test_one_format_for_both_solvers(self, eps, n):
        """The lean policy and the full table store the same played rows, on
        extreme weights, every test loss and the widest intervals."""
        for mu, rho0, loss in WINDOW_GRID:
            p = params(mu=mu, horizon=n, rho0=rho0, epsilon=eps, loss=LOSSES[loss])
            assert _same_played_rows(optimal_policy(p), solve_two_expert(p))

    @pytest.mark.parametrize("mu,rho0,loss", [
        pytest.param(0.3, 0.5, None, id="0.3-0.5"),
        pytest.param(0.5, 0.05, None, id="0.5-0.05"),
        pytest.param(0.93, 0.9, None, id="0.93-0.9"),
        pytest.param(0.7, 0.2, LOSSES["squared"], id="0.7-0.2-squared"),
        pytest.param(0.5, 0.3, math.sqrt, id="0.5-0.3-math.sqrt"),  # scalar-only loss
    ])
    @pytest.mark.parametrize("n", [1, 7, 60, 15, 16, 17, 33])
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 777])
    def test_simulation_bit_identical(self, mu, rho0, loss, n, trials):
        """Lean record and table play the same per-trial losses, equal to a
        row-major play of every trial's decoded outcomes at once, on both
        sides of every edge of the blocks of draws (trials)."""
        p = params(mu=mu, horizon=n, rho0=rho0, loss=loss)
        table = solve_two_expert(p)
        lean = simulate_online(p, optimal_policy(p), trials, seed=1729)
        full = simulate_online(p, table, trials, seed=1729)
        assert np.array_equal(lean.per_trial, full.per_trial)
        assert np.array_equal(lean.per_trial, _row_major_simulation(p, table, trials, 1729))
        np.testing.assert_equal((lean.mean, lean.stderr), (full.mean, full.stderr))  # NaN == NaN

    @pytest.mark.parametrize("n", [1, 7, 60, 301, 1000])
    def test_actions_are_packed_bits(self, n):
        """The stored actions take one bit per stage and reachable offset:
        ceil(N/8)*8 rows of ceil(W/8) bytes, W = hi[-1] - lo[-1] + 1."""
        policy = optimal_policy(params(horizon=n))
        width = int(policy.hi[-1] - policy.lo[-1]) + 1
        assert policy.actions.dtype == np.uint8
        assert policy.actions.nbytes == -(-n // 8) * 8 * -(-width // 8)


def _per_stage_replay(p, lie_rows, trials, seed):
    """The replay as one step per stage on the full action rows
    ``lie_rows`` (a table's ``lie_optimal``), every trial's outcomes drawn
    at once: every trial's loss, added stage by stage from the flat loss
    table, and each stage's lowest and highest offset."""
    n = p.horizon
    correct = np.concatenate(list(_honest_outcomes(seed, np.full(n, p.mu), trials)))
    q_lie, q_truth = _offset_losses(p, p.rho0)
    table = np.stack([q_truth, np.full_like(q_truth, p.q(1.0)),
                      np.full_like(q_truth, p.q(0.0)), q_lie], axis=1).ravel()
    j, loss, seen = np.zeros(trials, dtype=np.intp), np.zeros(trials), np.empty((n, 2), int)
    for k in range(n):
        seen[k] = j.min(), j.max()
        code = lie_rows[k].view(np.uint8)[j + k] + 2 * correct[:, k]
        loss += table[4 * (j + n) + code]
        j += np.array([-1, 0, 0, 1])[code]
    return loss, seen


def _lie_rows(p):
    """``solve_two_expert(p).lie_optimal`` without the values and ties, for
    a horizon whose full table is too large to hold (640 MB at N = 8000)."""
    rows = [np.empty(0, dtype=bool)] * p.horizon
    for k, start, _, lie, truth in _backward(p):
        rows[k] = _full_row(lie >= truth, k, start)
    return rows


@pytest.fixture
def map_shapes(monkeypatch):
    """The (patterns, 8, width) shape of every block map a replay builds."""
    shapes, build = [], online_dp._block_maps

    def recording(patterns, table):
        shapes.append(patterns.shape)
        return build(patterns, table)

    monkeypatch.setattr(online_dp, "_block_maps", recording)
    return shapes


class TestBlockReplay:
    """The replay looks up eight stages at a time over each stage's reachable
    offsets, and falls back to one step per stage when its maps would pass
    the budget; both add every trial's losses in stage order, so each
    per-trial loss is the per-stage oracle's bit for bit."""

    @pytest.mark.parametrize("budget", ["module", "none"])
    @pytest.mark.parametrize("eps", [1 / E, 0.9, 0.99], ids=["1/e", "0.9", "0.99"])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 17, 301])
    def test_matches_the_per_stage_oracle(self, monkeypatch, map_shapes, n, eps, budget):
        if budget == "none":
            monkeypatch.setattr(online_dp, "_BLOCK_MAP_CELLS", 0)
        losses = {**LOSSES, "math.sqrt": math.sqrt}  # a loss that takes only scalars
        grid = [*WINDOW_GRID, *product((0.3, 0.93), (0.5,), ["math.sqrt"])]
        for mu, rho0, loss in grid:
            p = params(mu=mu, horizon=n, rho0=rho0, epsilon=eps, loss=losses[loss])
            table = solve_two_expert(p)
            want, _ = _per_stage_replay(p, table.lie_optimal, 37, 11)
            for policy in (optimal_policy(p), table):
                assert np.array_equal(simulate_online(p, policy, 37, 11).per_trial, want)
        if budget == "none":
            assert not map_shapes
        elif n == 301:  # both paths run at 1/e and 0.9, only steps at 0.99
            assert len(map_shapes) < 2 * len(grid)
            assert bool(map_shapes) == (eps != 0.99)
        for patterns, _, width in map_shapes:
            assert patterns * width * 256 <= online_dp._BLOCK_MAP_CELLS

    def test_long_configuration_takes_the_block_path(self, map_shapes):
        """The benchmark's ``long`` call, N = 8000 at mu = 1/2 with 2000 trials:
        the oracle's per-trial losses, from maps within the budget over at
        most eight offsets."""
        p = params(mu=0.5, horizon=8000)
        policy = optimal_policy(p)
        want, seen = _per_stage_replay(p, _lie_rows(p), 2000, 3)
        assert np.array_equal(simulate_online(p, policy, 2000, 3).per_trial, want)
        [(patterns, _, width)] = map_shapes
        assert width <= 8 and patterns * width * 256 <= online_dp._BLOCK_MAP_CELLS
        lo, hi = policy.lo, policy.hi
        assert np.all((lo <= seen[:, 0]) & (seen[:, 1] <= hi)) and hi[-1] - lo[-1] < 8

    @pytest.mark.parametrize("budget", ["module", "none"])
    def test_replay_reads_the_stored_rows(self, monkeypatch, budget):
        """The replay derives nothing from a policy: with the interval pass
        made to raise once the policies are built, both paths still play the
        oracle's per-trial losses."""
        built = []
        for mu, n, eps in product((0.3, 0.5, 0.93), (9, 301), (1 / E, 0.99)):
            p = params(mu=mu, horizon=n, epsilon=eps)
            built.append((p, optimal_policy(p), solve_two_expert(p)))

        def derive(*args):
            raise AssertionError("the replay derived the played rows")

        monkeypatch.setattr(online_dp, "_reachable_actions", derive)
        if budget == "none":
            monkeypatch.setattr(online_dp, "_BLOCK_MAP_CELLS", 0)
        for p, policy, table in built:
            want, _ = _per_stage_replay(p, table.lie_optimal, 37, 11)
            for played in (policy, table):
                assert np.array_equal(simulate_online(p, played, 37, 11).per_trial, want)

    @pytest.mark.parametrize("eps", [1 / E, 0.9, 0.99], ids=["1/e", "0.9", "0.99"])
    @pytest.mark.parametrize("n", [1, 9, 60, 301])
    def test_reachable_interval_is_sound_and_exact(self, n, eps):
        """Every trial of the per-stage replay sits inside stage k's interval
        lo_k..hi_k, which is the set of offsets that some outcome sequence
        reaches; the table's played rows hold its actions there and zero
        elsewhere."""
        for mu, rho0, _ in WINDOW_GRID[:: len(LOSSES)]:
            p = params(mu=mu, horizon=n, rho0=rho0, epsilon=eps)
            table = solve_two_expert(p)
            lo, hi, rows = table.lo, table.hi, table.actions
            _, seen = _per_stage_replay(p, table.lie_optimal, 200, 5)
            assert np.all((lo <= seen[:, 0]) & (seen[:, 1] <= hi))
            assert rows.shape == (-(-n // 8) * 8, (hi[-1] - lo[-1] + 8) // 8)
            assert not rows[n:].any()
            reach = {0}
            for k in range(n):
                assert reach == set(range(lo[k], hi[k] + 1))
                full = table.lie_optimal[k]
                bits = np.unpackbits(rows[k], count=hi[-1] - lo[-1] + 1).astype(bool)
                offsets = np.arange(lo[-1], hi[-1] + 1)
                inside = (lo[k] <= offsets) & (offsets <= hi[k])
                assert np.array_equal(bits[inside], full[offsets[inside] + k])
                assert not bits[~inside].any()
                reach = {i for j in reach for i in (j, j + 1 if full[j + k] else j - 1)}


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


def _plain_k_expert_value(kp):
    """The K-expert DP as plain whole-grid expressions, one new array per
    operation: the reference of the reused-buffer solve."""
    n, honest, eps, w0 = kp.horizon, kp.n_experts - 1, kp.epsilon, kp.initial_weights
    v = np.zeros((2 * n + 1,) * honest)
    for k in range(n - 1, -1, -1):
        size = 2 * k + 1
        axis_w = [(w0[1 + i] * eps ** np.arange(-k, k + 1)).reshape(
            [size if a == i else 1 for a in range(honest)]) for i in range(honest)]
        total_w = w0[0] + sum(axis_w)
        wrong_w = sum((1.0 - mu) * a for mu, a in zip(kp.accuracies, axis_w))
        ev_lie = ev_truth = v
        for i, mu in enumerate(kp.accuracies):
            def along(a, lo):
                return a[(slice(None),) * i + (slice(lo, lo + size),)]
            ev_lie = mu * along(ev_lie, 0) + (1.0 - mu) * along(ev_lie, 1)
            ev_truth = mu * along(ev_truth, 1) + (1.0 - mu) * along(ev_truth, 2)
        v = np.maximum((w0[0] + wrong_w) / total_w + ev_lie, wrong_w / total_w + ev_truth)
    return float(v.reshape(-1)[0])


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

    @pytest.mark.parametrize("accuracies, weights, epsilon, n", [
        ((0.6,), (0.3, 0.7), 1 / E, 12),
        ((0.3, 0.7), (1.0, 1.0, 1.0), 0.5, 9),
        ((0.5,) * 4, (1.0,) * 5, 1 / E, 6),
        ((0.3, 0.4, 0.6, 0.9), (2.0, 1.0, 0.5, 1.5, 1.0), 0.8, 5),
    ])
    def test_values_read_every_horizon(self, accuracies, weights, epsilon, n):
        """Grid point 0 of stage N - r is the horizon-r solve, bit for bit, and
        both are the plain per-stage expressions' value."""
        kp = KExpertParams(epsilon=epsilon, horizon=n, accuracies=accuracies,
                           initial_weights=weights)
        values = solve_k_expert_values(kp)
        assert values.shape == (n + 1,) and values[0] == 0.0
        for r in range(1, n + 1):
            kr = replace(kp, horizon=r)
            assert values[r] == solve_k_expert(kr) == _plain_k_expert_value(kr)

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

    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 777])
    def test_monte_carlo_blocks_equal_one_draw(self, trials):
        """Trial t's cells are stage-major: cell 3s + i is expert i at stage s."""
        kp = KExpertParams(epsilon=1 / E, horizon=9, accuracies=(0.5, 0.7, 0.3),
                           initial_weights=(1.0,) * 4)
        mus = [0.5, 0.7, 0.3] * 9
        draws = _decoded_outcomes(11, mus, trials).reshape(trials, 9, 3).transpose(0, 2, 1)
        want = [clairvoyant_value(d.astype(int), kp) for d in draws]
        assert np.array_equal(monte_carlo_k_expert(kp, trials, 11).per_trial, want)

    @pytest.mark.parametrize("honest, n", [(1, 1), (1, 8), (2, 7), (3, 8), (4, 40), (2, 60)])
    def test_forward_pass_reads_every_horizon(self, honest, n):
        """Column r of the forward pass is ``clairvoyant_values`` of the first
        r stages bit for bit, the per-horizon backward pass to 1e-12 relative
        and, for N <= 8, the best of all 2^r replayed lie/truth sequences."""
        kp = KExpertParams(epsilon=0.4, horizon=n, accuracies=(0.6, 0.3, 0.8, 0.5)[:honest],
                           initial_weights=(1.0, 2.0, 0.5, 1.5, 1.0)[: honest + 1])
        realized = np.random.default_rng(100 * n + honest).random((5, honest, n)) < 0.6
        forward = _clairvoyant_forward(realized.transpose(0, 2, 1), kp)
        assert forward.shape == (5, n + 1) and np.all(forward[:, 0] == 0.0)
        for r in range(1, n + 1):
            prefix, kr = realized[:, :, :r], replace(kp, horizon=r)
            assert np.array_equal(forward[:, r], clairvoyant_values(prefix.astype(int), kr))
            np.testing.assert_allclose(forward[:, r], backward_clairvoyant_values(prefix, kr),
                                       rtol=1e-12, atol=0.0)
            if n <= 8:
                want = [replayed_clairvoyant_value(t.astype(int), kr) for t in prefix]
                np.testing.assert_allclose(forward[:, r], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("trials", [1, 256, 300])
    def test_horizons_read_prefixes_of_one_draw(self, trials):
        """Each horizon's per-trial losses are the clairvoyant values of the
        first N stages of the longest horizon's draw, and the longest is
        ``monte_carlo_k_expert``'s own."""
        kp = KExpertParams(epsilon=1 / E, horizon=9, accuracies=(0.5, 0.7, 0.3),
                           initial_weights=(1.0, 2.0, 0.5, 1.5))
        horizons = [9, 2, 5]
        got = monte_carlo_k_expert_values(kp, trials, 11, horizons)
        draws = _decoded_outcomes(11, [0.5, 0.7, 0.3] * 9, trials).reshape(trials, 9, 3)
        for n, res in zip(horizons, got):
            want = clairvoyant_values(draws[:, :n].transpose(0, 2, 1).astype(int),
                                      replace(kp, horizon=n))
            assert np.array_equal(res.per_trial, want)
            assert res.mean == want.mean() and res.trials == trials and res.seed == 11
        assert np.array_equal(got[0].per_trial, monte_carlo_k_expert(kp, trials, 11).per_trial)

    @pytest.mark.parametrize("horizons", [[0], [11], [3, 11], [[3]], 5])
    def test_horizons_outside_the_draw_are_rejected(self, horizons):
        kp = KExpertParams(epsilon=1 / E, horizon=10, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"horizons must lie in 1\.\.10"):
            monte_carlo_k_expert_values(kp, 3, 1, horizons)

    @pytest.mark.parametrize("horizon", [2.5, math.inf, math.nan, "3"])
    def test_horizons_that_are_not_whole_numbers_are_rejected(self, horizon):
        """A fractional horizon is not cut to a whole one (2.5 is not read
        as 2), and inf, NaN and text are a ValueError, not an OverflowError
        or a TypeError."""
        kp = KExpertParams(epsilon=1 / E, horizon=10, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"horizons must lie in 1\.\.10 and be whole numbers"):
            monte_carlo_k_expert_values(kp, 3, 1, [3, horizon])

    def test_underflowing_weights_are_a_guard_violation(self):
        # at epsilon = 1e-9, 36 mistakes of every expert underflow all weights
        # to 0, so stages 36..59 do; the backward loop meets stage 59 first
        kp = KExpertParams(epsilon=1e-9, horizon=60, accuracies=(0.3,), initial_weights=(1.0, 1.0))
        with pytest.raises(GuardError, match=r"epsilon=1e-09 and N=60: .* at stage 59$"):
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

    def test_one_trial_leaves_stderr_undefined(self):
        kp = KExpertParams(epsilon=1 / E, horizon=4, accuracies=(0.5,), initial_weights=(1.0, 1.0))
        res = monte_carlo_k_expert(kp, trials=1, seed=3)
        assert res.mean == res.per_trial[0] and math.isnan(res.stderr)

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


NO_INFO_GRID = list(product((0.1, 0.3, 0.5, 0.7, 0.93), (0.05, 0.5, 0.9), (1 / E, 0.6, 0.9)))


@pytest.mark.parametrize("n", [1, 2, 40, 2000])
def test_no_information_values_match_the_forward_pass(n):
    """The adjoint pass against the forward pass of the same coin flips,
    which pushes the offset law instead of the stage costs."""
    for mu, rho0, eps in NO_INFO_GRID:
        p = params(mu=mu, horizon=n, rho0=rho0, epsilon=eps)
        np.testing.assert_allclose(no_information_values(p), mixed_policy_values(0.5, p),
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("eps", [1 / E, 0.6, 0.9], ids=["1/e", "0.6", "0.9"])
def test_no_information_values_mirror_identity(eps):
    """Swapping mu for 1 - mu and rho0 for 1 - rho0 mirrors the offset walk
    and the weights, and the per-stage loss 1 - mu + (mu - 1/2) rho moves by
    1/2 - mu, so every prefix r moves by (1/2 - mu) r: a check that needs no
    second pass."""
    r = np.arange(2001)
    for mu, rho0 in product((0.1, 0.3, 0.45), (0.05, 0.5, 0.8)):
        v = no_information_values(params(mu=mu, horizon=2000, rho0=rho0, epsilon=eps))
        mirror = no_information_values(params(mu=1 - mu, horizon=2000, rho0=1 - rho0, epsilon=eps))
        assert np.all(np.abs(v - mirror - (0.5 - mu) * r) <= 1e-12 * v)
