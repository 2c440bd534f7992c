"""Exact evaluators against brute-force oracles and hand-derived anchors."""

import functools
import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mwadversary import (
    BlockForm,
    ExpertState,
    ModelParams,
    OfflinePolicy,
    OffsetDistribution,
    berry_esseen_check,
    brute_force_value,
    exhaustive_offline_optimum,
    false_policy,
    from_blocks,
    log_telescoping_residuals,
    mixed_policy_values,
    mw_step,
    normal_cdf,
    offline_optimum,
    offline_optimum_values,
    offset_distribution,
    policy_value,
    random_policy,
    ratio_policy,
    ratio_policy_values,
    system_prediction,
    true_policy,
    two_honest_values,
    value_block_policy,
    value_false,
    value_true,
    weight_power,
)
from mwadversary.core import GuardError, binomial
from mwadversary import exact_eval
from mwadversary.exact_eval import _charge, _convolve_run, _offset_losses, _run
from mwadversary.policies import block_form

E = math.e


def params(mu=0.5, horizon=2, rho0=0.5, epsilon=1 / E, loss=None):
    return ModelParams(epsilon=epsilon, mu=mu, horizon=horizon, rho0=rho0, loss=loss)


def simulate_policy_expectation(policy, p):
    """Scalar reference oracle: walk every honest sample path with the
    actual mw_step/system_prediction operations (outcome fixed to 1, which
    the relative encoding makes harmless)."""
    n = p.horizon
    total = 0.0
    for code in range(1 << n):
        state = ExpertState(np.array([p.rho0, 1.0 - p.rho0]))
        loss = 0.0
        n_correct = 0
        for k, d in enumerate(policy.text):
            correct = (code >> k) & 1
            n_correct += correct
            x_adv = 1 if d == "T" else 0
            x_hon = 1 if correct else 0
            loss += p.q(abs(system_prediction(state, [x_adv, x_hon]) - 1))
            state = mw_step(state, [x_adv, x_hon], 1, p)
        total += p.mu**n_correct * (1 - p.mu) ** (n - n_correct) * loss
    return total


class TestValueFalse:
    def test_zero_stages(self):
        assert value_false(0, 0.5, params()) == 0.0

    def test_one_stage(self):
        assert value_false(1, 0.5, params(horizon=1)) == pytest.approx(0.75, abs=1e-12)

    def test_two_stages_anchor(self):
        expected = 1 + 0.75 * 0.5 + 0.25 / (1 + E)
        got = value_false(2, 0.5, params())
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.442235, abs=1e-6)

    def test_monotone_in_rho(self):
        p = params(horizon=8)
        vals = [value_false(8, r, p) for r in np.linspace(0.05, 0.95, 60)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_n(self):
        p = params(horizon=12)
        vals = [value_false(n, 0.5, p) for n in range(13)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.8])
    def test_lower_bound(self, mu):
        p = params(mu=mu, horizon=15)
        assert value_false(15, 0.5, p) >= (1 - mu) * 15

    def test_rejects_n_beyond_horizon(self):
        with pytest.raises(ValueError):
            value_false(3, 0.5, params(horizon=2))


class TestValueTrue:
    def test_zero_stages(self):
        assert value_true(0, 0.5, params()) == 0.0

    def test_one_stage(self):
        assert value_true(1, 0.5, params(horizon=1)) == pytest.approx(0.25, abs=1e-12)

    def test_one_stage_squared_loss(self):
        p = params(horizon=1, loss=lambda y: y * y)
        assert value_true(1, 0.5, p) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_long_run_reaches_its_series(self, mu):
        """At eps = 1/e the honest expert's (i+1)-th mistake costs its weight
        share 1/(1 + e^i) against an adversary that never lies, and in 2000
        stages it makes far more mistakes than the series needs, whatever mu.
        Its mistake counts follow lgamma-anchored laws."""
        want = math.fsum(1.0 / (1.0 + math.exp(i)) for i in range(60))
        assert want == 0.9641635157612597
        assert value_true(2000, 0.5, params(mu, 2000)) == pytest.approx(want, rel=2e-15, abs=0.0)


class TestOffsetDistribution:
    def test_point_mass(self):
        d = offset_distribution(0, 0, 0.4)
        assert d.support_min == 0 and d.masses.tolist() == [1.0]

    def test_single_lie(self):
        d = offset_distribution(1, 0, 0.3)
        assert d.support_min == 0 and d.masses == pytest.approx([0.7, 0.3])

    def test_one_each(self):
        d = offset_distribution(1, 1, 0.5)
        assert d.support_min == -1 and d.masses == pytest.approx([0.25, 0.5, 0.25])

    @pytest.mark.parametrize("n,m,mu", [(4, 7, 0.3), (10, 0, 0.6), (0, 9, 0.5), (12, 12, 0.71)])
    def test_support_and_mass(self, n, m, mu):
        d = offset_distribution(n, m, mu)
        assert d.support_min >= -m
        assert d.support_min + d.masses.size - 1 <= n
        assert abs(d.masses.sum() - 1.0) <= 1e-12
        assert np.all(d.masses >= 0)

    @pytest.mark.parametrize("masses", [[np.nan, 1.0], [0.5, np.nan, 0.5]])
    def test_non_finite_mass_rejected(self, masses):
        with pytest.raises(ValueError):
            OffsetDistribution(0, np.array(masses))

    @pytest.mark.parametrize("support_min", [2.5, -2.5, np.nan, np.inf, -np.inf])
    def test_non_integer_support_min_rejected(self, support_min):
        with pytest.raises(ValueError, match="support_min must be an integer"):
            OffsetDistribution(support_min, np.array([1.0]))

    def test_block_order_independence(self):
        """Permuting blocks that keep total lies/truths leaves the final
        offset law unchanged (the running losses do differ)."""
        mu = 0.37
        lies, truths = (lambda n: binomial(n, mu)), (lambda m: binomial(m, 1.0 - mu))
        a = (
            offset_distribution(0, 0, mu)
            .after_run(lies(3), True).after_run(truths(2), False)
            .after_run(lies(1), True).after_run(truths(4), False)
        )
        b = (
            offset_distribution(0, 0, mu)
            .after_run(truths(4), False).after_run(lies(1), True)
            .after_run(truths(2), False).after_run(lies(3), True)
        )
        c = offset_distribution(4, 6, mu)
        assert a.support_min == b.support_min == c.support_min
        np.testing.assert_allclose(a.masses, c.masses, atol=1e-12)
        np.testing.assert_allclose(b.masses, c.masses, atol=1e-12)


class TestValueBlockPolicy:
    def test_single_lie_block_matches_value_false_exactly(self):
        p = params(mu=0.4, horizon=9)
        assert value_block_policy(BlockForm(((9, 0),)), p) == value_false(9, 0.5, p)

    def test_single_truth_block_matches_value_true_exactly(self):
        p = params(mu=0.4, horizon=9)
        assert value_block_policy(BlockForm(((0, 9),)), p) == value_true(9, 0.5, p)

    def test_lie_truth_anchor(self):
        got = value_block_policy(BlockForm(((1, 1),)), params())
        assert got == pytest.approx(1.0577646446575013, abs=1e-12)
        assert got == pytest.approx(brute_force_value(from_blocks(BlockForm(((1, 1),))), params()), abs=1e-12)

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            value_block_policy(BlockForm(((1, 1),)), params(horizon=3))

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_matches_brute_force_on_random_policies(self, mu):
        rng = np.random.default_rng(hash(mu) % (1 << 31))
        for _ in range(50):
            n = int(rng.integers(1, 11))
            p = params(mu=mu, horizon=n)
            pol = random_policy(n, float(rng.random()), int(rng.integers(1 << 31)))
            assert policy_value(pol, p) == pytest.approx(brute_force_value(pol, p), abs=1e-9)

    def test_general_loss_against_brute_force(self):
        p = params(mu=0.6, horizon=6, loss=lambda y: y * y)
        pol = OfflinePolicy("FTFFTF")
        assert policy_value(pol, p) == pytest.approx(brute_force_value(pol, p), abs=1e-9)


def grid_run(n, lie, start, rho, p):
    """Reference straight-run sum: weight_power and Q evaluated on the whole
    (offsets x run length) grid instead of read off a per-offset table."""
    prob, step = (p.mu, 1) if lie else (1.0 - p.mu, -1)
    w = weight_power(np.add.outer(start, step * np.arange(n + 1)), rho, p)
    return p.q_vec(w if lie else 1.0 - w) @ binomial(n, prob).tails


def grid_block_value(blocks, p):
    """Reference block evaluation on the grid form of every straight run."""
    mu = p.mu
    total, dist = 0.0, OffsetDistribution.point()
    for n, m in blocks:
        total += n * (1.0 - mu) * p.q(1.0)
        total += float(dist.masses @ grid_run(n, True, dist.support, p.rho0, p))
        dist = dist.after_run(binomial(n, mu), True)
        total += m * mu * p.q(0.0)
        total += float(dist.masses @ grid_run(m, False, dist.support, p.rho0, p))
        dist = dist.after_run(binomial(m, 1.0 - mu), False)
    return total


TABLE_LOSSES = [
    pytest.param(None, id="y"),
    pytest.param(lambda y: y * y, id="y2"),
    pytest.param(np.sqrt, id="np.sqrt"),
    pytest.param(math.sqrt, id="math.sqrt"),
]


class TestOffsetLossTable:
    """Straight runs read off the per-offset loss table match the grid form:
    bit for bit on the cases pinned here, and to 1e-15 relative elsewhere.
    A run of 2-10 stages can differ in the last bit, as numpy's correlate
    sums kernels of up to 11 entries in a plain loop and the grid's dot
    product does not."""

    @pytest.mark.parametrize("loss", TABLE_LOSSES)
    @pytest.mark.parametrize("mu,rho", [(0.3, 0.2), (0.7, 0.85)])
    def test_straight_runs_read_the_table_edges(self, loss, mu, rho):
        p = params(mu=mu, horizon=40, rho0=0.5, loss=loss)
        for n in (0, 1, 17, 40):  # n = horizon reads offsets -N and N
            assert value_false(n, rho, p) == (
                n * (1.0 - mu) * p.q(1.0) + float(grid_run(n, True, 0, rho, p)))
            assert value_true(n, rho, p) == (
                n * mu * p.q(0.0) + float(grid_run(n, False, 0, rho, p)))

    @pytest.mark.parametrize("loss", TABLE_LOSSES)
    @pytest.mark.parametrize("blocks", [
        pytest.param(((40, 0),), id="lies"),
        pytest.param(((0, 40),), id="truths"),
        pytest.param(((0, 3), (2, 1), (1, 5), (4, 2), (3, 7), (12, 0)), id="mixed"),
        pytest.param(((1, 2),) * 13 + ((1, 0),), id="pairs"),
    ])
    def test_block_policy(self, loss, blocks):
        p = params(mu=0.62, horizon=40, rho0=0.3, loss=loss)
        assert value_block_policy(BlockForm(blocks), p) == grid_block_value(blocks, p)

    @pytest.mark.parametrize("loss", TABLE_LOSSES)
    def test_seeded_random_grid(self, loss):
        rng = np.random.default_rng(1729)
        for _ in range(25):
            horizon = int(rng.integers(1, 60))
            mu, rho, epsilon = rng.uniform(0.05, 0.95, 3)
            p = params(mu, horizon, rho, epsilon, loss)
            for n in range(horizon + 1):
                assert value_false(n, rho, p) == pytest.approx(
                    n * (1.0 - mu) * p.q(1.0) + float(grid_run(n, True, 0, rho, p)),
                    rel=1e-15, abs=0.0)
                assert value_true(n, rho, p) == pytest.approx(
                    n * mu * p.q(0.0) + float(grid_run(n, False, 0, rho, p)),
                    rel=1e-15, abs=0.0)
            blocks = block_form(random_policy(horizon, rng.uniform(0.2, 0.8), 7)).blocks
            assert value_block_policy(BlockForm(blocks), p) == pytest.approx(
                grid_block_value(blocks, p), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n,lie,start", [
        (3, True, [-1, 0]),  # 0 + 3 passes N = 2
        (2, False, [-1, 1]),  # -1 - 2 passes -N
        (0, True, [-3, 0]),  # the start itself is outside
        (-1, True, [0]),
    ])
    def test_run_leaving_the_table_raises(self, n, lie, start):
        p = params(horizon=2)
        width = start[-1] - start[0] + 1
        for step in (_run, _charge):
            with pytest.raises(ValueError):
                step(0.0, start[0], np.full(width, 1.0 / width),
                     binomial(n, p.mu if lie else 1.0 - p.mu), lie, _offset_losses(p, p.rho0), p)

    @pytest.mark.parametrize("lie", [True, False])
    def test_zero_length_run_charges_exactly_nothing(self, lie):
        p = params(mu=0.3, horizon=40, rho0=0.2)
        masses, law = binomial(12, 0.3).pmf, binomial(0, 0.3 if lie else 0.7)
        for total in (0.0, math.pi):
            assert _charge(total, -3, masses, law, lie, _offset_losses(p, p.rho0), p) == total


def copied_rows_run(total, lo, masses, law, lie, losses, p):
    """Reference run step in the form the correlation replaced: the loss
    table's run-length windows, one strided row per offset, copied
    contiguous and multiplied by the tail sums."""
    n, mu, horizon = law.trials, p.mu, p.horizon
    if lie:
        total += n * (1.0 - mu) * p.q(1.0)
        q, first = losses[0], horizon + lo
    else:
        total += n * mu * p.q(0.0)
        q, first = losses[1][::-1], horizon - (lo + masses.size - 1)
    rows = sliding_window_view(q, n + 1)[first : first + masses.size]
    total += float(masses @ (np.ascontiguousarray(rows if lie else rows[::-1]) @ law.tails))
    return (total, *_convolve_run(lo, masses, law, lie))


def copied_rows_block_value(blocks, p):
    """Reference block evaluation on :func:`copied_rows_run`."""
    mu, losses = p.mu, _offset_losses(p, p.rho0)
    total, lo, masses = 0.0, 0, np.ones(1)
    for n, m in blocks:
        total, lo, masses = copied_rows_run(total, lo, masses, binomial(n, mu), True, losses, p)
        total, lo, masses = copied_rows_run(total, lo, masses, binomial(m, 1.0 - mu), False,
                                            losses, p)
    return total


class TestRunCharge:
    """A run charged as one correlation of the loss table against the copied rows."""

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_ratio_walk(self, mu):
        got = ratio_policy_values([400, 2000], params(mu, 2000), 20)
        for n, value in zip([400, 2000], got):
            p = params(mu, n)
            want = copied_rows_block_value(block_form(ratio_policy(p)), p)
            assert value == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mixed_block_policy(self):
        cuts = np.random.default_rng(2000).choice(np.arange(1, 2000), 39, replace=False)
        lengths = np.diff(np.concatenate(([0], np.sort(cuts), [2000]))).tolist()
        blocks = tuple(zip(lengths[::2], lengths[1::2]))
        p = params(0.62, 2000, 0.3)
        assert value_block_policy(BlockForm(blocks), p) == pytest.approx(
            copied_rows_block_value(blocks, p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
def test_non_integer_run_length_is_a_value_error(n):
    p = params(horizon=4)
    for call in (lambda: value_false(n, 0.5, p), lambda: value_true(n, 0.5, p),
                 lambda: offset_distribution(n, 1, 0.3), lambda: offset_distribution(1, n, 0.3),
                 lambda: berry_esseen_check(n, 0, 0.3)):
        with pytest.raises(ValueError, match="trials must be a nonnegative integer"):
            call()


class TestBruteForce:
    def test_one_stage_anchors(self):
        p = params(horizon=1)
        assert brute_force_value(false_policy(1), p) == pytest.approx(0.75, abs=1e-12)
        assert brute_force_value(true_policy(1), p) == pytest.approx(0.25, abs=1e-12)

    def test_near_perfect_honest_expert(self):
        # mu = 1 itself is rejected; at mu = 1 - 1e-9 the single surviving
        # sample path gives 0.5 + 1/(1+e)
        p = params(mu=1 - 1e-9, horizon=2)
        assert brute_force_value(false_policy(2), p) == pytest.approx(
            0.5 + 1 / (1 + E), abs=1e-6
        )

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_value(false_policy(23), params(horizon=23))

    def test_matches_scalar_mw_simulation(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            n = int(rng.integers(1, 8))
            p = params(
                mu=float(rng.uniform(0.2, 0.8)),
                horizon=n,
                rho0=float(rng.uniform(0.2, 0.8)),
                epsilon=float(rng.uniform(0.2, 0.8)),
            )
            pol = random_policy(n, float(rng.random()), int(rng.integers(1 << 31)))
            assert brute_force_value(pol, p) == pytest.approx(
                simulate_policy_expectation(pol, p), abs=1e-12
            )


@functools.cache
def enumerated_optimum(p):
    """Text and value of the earliest-lie optimum, apart from both searches:
    one forward pass scores each of the 2^N policies as a 0/1 lie vector."""
    n = p.horizon
    codes = np.arange(1 << n)
    lies = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 0
    values = np.array([mixed_policy_values(row.astype(float), p)[-1] for row in lies])
    best = int(np.argmax(values))
    return lie_text(lies[best]), values[best]


@pytest.fixture(params=[exhaustive_offline_optimum, offline_optimum], ids=["exhaustive", "lattice"])
def optimum(request):
    """The offline optimum by policy-tree enumeration and by the longest
    path over (stage, lies so far); each test below holds both."""
    return request.param


class TestExhaustiveOptimum:
    @pytest.mark.parametrize("mu,rho0", [(0.3, 0.5), (0.5, 0.5), (0.6, 0.25)])
    def test_single_stage(self, optimum, mu, rho0):
        pol, val = optimum(params(mu=mu, horizon=1, rho0=rho0))
        assert pol == false_policy(1)
        assert val == pytest.approx(1 - mu + mu * rho0, abs=1e-12)

    def test_two_stages_all_lie(self, optimum):
        pol, val = optimum(params())
        assert pol == false_policy(2)
        assert val == pytest.approx(1.442235, abs=1e-6)

    @pytest.mark.parametrize("loss", [None, lambda y: y * y, math.sqrt],
                             ids=["absolute", "squared", "sqrt"])
    def test_matches_full_enumeration(self, optimum, loss):
        p = params(mu=0.62, horizon=6, rho0=0.4, loss=loss)
        _, val = optimum(p)
        best = max(
            brute_force_value(OfflinePolicy(format(c, "06b").replace("0", "F").replace("1", "T")), p)
            for c in range(64)
        )
        assert val == pytest.approx(best, abs=1e-9)

    def test_argmax_value_consistent(self, optimum):
        p = params(mu=0.45, horizon=8)
        pol, val = optimum(p)
        assert policy_value(pol, p) == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_dominates_named_policies(self, optimum, n):
        p = params(horizon=n)
        _, val = optimum(p)
        for pol in (false_policy(n), true_policy(n), ratio_policy(p)):
            assert val >= policy_value(pol, p) - 1e-9

    def test_tie_break_prefers_early_lie(self, optimum):
        # a constant loss makes every policy optimal; the reported argmax
        # must be the lexicographically earliest all-lie sequence
        p = params(mu=0.5, horizon=5, loss=lambda y: 1.0)
        pol, val = optimum(p)
        assert pol == false_policy(5)
        assert val == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("loss", [None, lambda y: y * y, math.sqrt],
                             ids=["absolute", "squared", "sqrt"])
    def test_matches_full_enumeration_at_twelve_stages(self, optimum, loss):
        p = params(mu=0.62, horizon=12, rho0=0.4, loss=loss)
        pol, val = optimum(p)
        text, best = enumerated_optimum(p)
        assert pol.text == text
        assert val == pytest.approx(best, rel=1e-15)

    def test_tie_break_at_thirteen_stages(self, optimum):
        # 8192 equal policies: the earliest lie wins at every stage
        p = params(mu=0.5, horizon=13, loss=lambda y: 1.0)
        pol, _ = optimum(p)
        assert pol == false_policy(13)

    def test_guard(self):
        with pytest.raises(GuardError):
            exhaustive_offline_optimum(params(horizon=27))


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.62, 0.7])
def test_lattice_matches_exhaustive_search_up_to_its_cap(mu):
    """Values agree with the enumeration for every N <= 16; texts may differ
    where two policies tie to rounding, so each text is held to its own
    value instead."""
    for rho0, eps, n in product((0.2, 0.5, 0.9), (1 / E, 0.6), range(1, 17)):
        p = params(mu=mu, horizon=n, rho0=rho0, epsilon=eps)
        pol, val = offline_optimum(p)
        assert offline_optimum_values(p)[-1] == val
        assert val == pytest.approx(exhaustive_offline_optimum(p)[1], rel=1e-14, abs=0.0)
        assert policy_value(pol, p) == pytest.approx(val, rel=1e-12, abs=0.0)


def test_lattice_policy_value_at_a_long_horizon():
    p = params(mu=0.5, horizon=2000)
    pol, val = offline_optimum(p)
    assert policy_value(pol, p) == pytest.approx(val, rel=1e-12, abs=0.0)
    assert val >= value_false(2000, 0.5, p)


@pytest.mark.parametrize("mu,rho0,eps,loss", [
    *product((0.3, 0.5, 0.7), (0.2, 0.5), (1 / E, 0.6), [None]),
    (0.62, 0.4, 1 / E, lambda y: y * y),
])
def test_every_horizon_from_one_offline_pass(mu, rho0, eps, loss):
    p = params(mu=mu, horizon=60, rho0=rho0, epsilon=eps, loss=loss)
    values = offline_optimum_values(p)
    assert values[0] == 0.0
    for r in range(1, 61):
        assert values[r] == offline_optimum(replace(p, horizon=r))[1]


def bool_row_offline_optimum(p):
    """The traceback of :func:`offline_optimum` through unpacked bool rows."""
    rows = []
    for best, by_lie in exact_eval._offline_forward(p):
        rows.append(by_lie)
    a, lies = int(np.flatnonzero(best == best.max())[-1]), []
    for row in reversed(rows):
        lies.append(bool(row[a]))
        a -= lies[-1]
    return "".join("TF"[lie] for lie in reversed(lies)), float(best.max())


@pytest.mark.parametrize("n", [1, 7, 8, 9, 60, 2000])
@pytest.mark.parametrize("mu,rho0", [(0.3, 0.5), (0.5, 0.2), (0.7, 0.9)])
def test_offline_traceback_reads_packed_bits(monkeypatch, mu, rho0, n):
    """The traceback reads one packed bit per stage: the policy text and the
    value are the bool rows' bit for bit, and the kept bytes total at most
    N^2/16 + N (stage k has k + 2 bits)."""
    p = params(mu=mu, horizon=n, rho0=rho0)
    kept, pack = [], np.packbits

    def packbits(bits):
        kept.append(pack(bits))
        return kept[-1]

    monkeypatch.setattr(exact_eval.np, "packbits", packbits)
    pol, val = offline_optimum(p)
    monkeypatch.undo()
    assert (pol.text, val) == bool_row_offline_optimum(p)
    assert len(kept) == n and sum(row.nbytes for row in kept) <= n * n / 16 + n


def convolved_offline_optimum(p):
    """The optimum as a backward pass that convolves stage k's costs with the
    pmf of Bin(k, 1 - mu): the O(N^3) form the forward recursion replaced."""
    n = p.horizon
    lie_costs, truth_costs = exact_eval._stage_costs(p)
    value = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        pmf, window = binomial(k, 1.0 - p.mu).pmf, slice(n - k, n + k + 1)
        lie = np.convolve(lie_costs[window], pmf, "valid") + value[1 : k + 2]
        truth = np.convolve(truth_costs[window], pmf, "valid") + value[: k + 1]
        value = np.maximum(lie, truth)
    return float(value[0])


def test_offline_recursion_does_not_drift_at_a_long_horizon():
    """At mu < 1/2, fl(1 - mu) + mu != 1: a recursion that weights the two
    neighbours by [1 - mu, mu] drifts 5.9e-14 from the convolution here."""
    p = params(mu=0.3, horizon=2000, rho0=0.5)
    reference = convolved_offline_optimum(p)
    assert offline_optimum_values(p)[-1] == pytest.approx(reference, rel=1e-14, abs=0.0)


class TestRatioPolicyValues:
    @pytest.mark.parametrize("mu,rho0,horizons", [
        (0.5, 0.5, [2, 3, 4, 5, 9, 40]),  # N = 2, 3 fall back to all lies
        (0.3, 0.5, list(range(20, 40))),  # pairs of 10 stages: p = 1 for N = 20..39
        (0.7, 0.2, [61, 2, 17, 3, 200, 44]),  # unsorted
        (0.93, 0.9, [2, 7, 30, 31, 100]),
    ])
    def test_bit_equal_to_policy_value(self, mu, rho0, horizons):
        got = ratio_policy_values(horizons, params(mu, max(horizons), rho0), 20)
        for n, value in zip(horizons, got):
            p = params(mu, n, rho0)
            assert value == policy_value(ratio_policy(p), p)

    def test_max_denominator_and_longer_params(self):
        p = params(0.37, 300, 0.6)
        for n, value in zip([12, 150], ratio_policy_values([12, 150], p, 3)):
            pn = params(0.37, n, 0.6)
            assert value == policy_value(ratio_policy(pn, max_denominator=3), pn)

    def test_walk_builds_each_run_law_once(self, monkeypatch):
        """Bin(b, mu) and Bin(a, 1 - mu) serve every prefix pair, and each
        horizon's terminal lie run builds one more law."""
        built = []

        def counting_binomial(trials, p):
            built.append((trials, p))
            return binomial(trials, p)

        monkeypatch.setattr(exact_eval, "binomial", counting_binomial)
        horizons = list(range(100, 2001, 100))
        ratio_policy_values(horizons, params(0.3, 2000), 20)
        assert len(built) <= 2 + len(horizons)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.7])
    def test_matches_the_forward_pass_of_its_lie_vector(self, mu):
        """The walk against the stage-by-stage forward pass of each ratio
        policy's 0/1 lie vector, which shares no run step with it."""
        got = ratio_policy_values([400, 2000], params(mu, 2000), 20)
        for n, value in zip([400, 2000], got):
            p = params(mu, n)
            lies = [float(c == "F") for c in ratio_policy(p).text]
            assert value == pytest.approx(mixed_policy_values(lies, p)[-1], rel=1e-12, abs=0.0)

    def test_no_stacked_pair_builds_no_pair_law(self):
        """At mu = 1 - 1e-9 the pair is 7 lies and 7000000191 truths, which no
        horizon up to 40 stacks: the walk charges the all-lies run and builds
        neither of the pair's laws (Bin(7000000191, 1 - mu) needs 52 GiB)."""
        p = params(0.999999999, 40)
        tracemalloc.start()
        try:
            got = ratio_policy_values([40], p, 20)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert got[0] == policy_value(ratio_policy(p), p) and peak < 1.0

    def test_rejects_horizons_outside_params(self):
        with pytest.raises(ValueError):
            ratio_policy_values([1, 4], params(horizon=4), 20)
        with pytest.raises(ValueError):
            ratio_policy_values([5], params(horizon=4), 20)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
    def test_rejects_non_integer_horizons(self, bad):
        with pytest.raises(ValueError, match="horizons must be integers"):
            ratio_policy_values([bad, 4], params(horizon=10), 20)

    @pytest.mark.parametrize("bad", [["3"], 5, [math.inf], [math.nan], [2.5]],
                             ids=["text", "scalar", "inf", "nan", "fraction"])
    def test_rejects_horizons_that_are_not_a_list_of_whole_numbers(self, bad):
        """Text and a scalar are a ValueError, not a TypeError, through the
        check ``monte_carlo_k_expert_values`` makes."""
        with pytest.raises(ValueError, match="horizons must be integers"):
            ratio_policy_values(bad, params(horizon=10), 20)


class TestResiduals:
    def test_anchor_at_origin(self):
        eps_r, delta_r, eps_b, delta_b = log_telescoping_residuals(0.0, 1.0)
        assert eps_r == pytest.approx(0.5 + math.log(2 / (1 + E)), abs=1e-12)
        assert eps_b == pytest.approx(1 / (1 + E) - 0.5, abs=1e-12)
        assert eps_b <= eps_r <= 0.0
        assert 0.0 <= delta_r <= delta_b

    def test_vanishes_far_out(self):
        eps_r, delta_r, _, _ = log_telescoping_residuals(50.0, 1.0)
        assert abs(eps_r) <= 1e-9
        assert abs(delta_r) <= 1e-9

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_sandwich_on_grid(self, a):
        for r in np.arange(0.0, 50.0 + 1e-9, 0.25):
            eps_r, delta_r, eps_b, delta_b = log_telescoping_residuals(float(r), a)
            assert eps_b - 1e-12 <= eps_r <= 1e-12
            assert -1e-12 <= delta_r <= delta_b + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            log_telescoping_residuals(-0.5, 1.0)
        with pytest.raises(ValueError):
            log_telescoping_residuals(1.0, 0.0)

    @pytest.mark.parametrize("r,a", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (1.0, math.inf)])
    def test_non_finite_inputs_rejected(self, r, a):
        with pytest.raises(ValueError, match="must be finite"):
            log_telescoping_residuals(r, a)


class TestBerryEsseen:
    def test_degenerate(self):
        assert berry_esseen_check(0, 0, 0.5) == (0.5, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_symmetry(self, n):
        exact, approx, err, _ = berry_esseen_check(n, n, 0.5)
        assert exact == pytest.approx(0.5, abs=1e-12)
        assert approx == 0.5
        assert err <= 1e-12

    def test_error_decays_with_scale(self):
        scaled = [berry_esseen_check(n, n, 0.3)[2] * berry_esseen_check(n, n, 0.3)[3] for n in (10, 40, 160)]
        assert scaled[0] >= scaled[1] >= scaled[2]
        assert max(scaled) <= 0.2


def test_two_honest_value_is_error_rate_times_horizon():
    from mwadversary import two_honest_value

    for mu in (0.3, 0.5, 0.8):
        p = params(mu=mu, horizon=40)
        assert two_honest_value(p) == pytest.approx((1 - mu) * 40, abs=1e-9)


def test_normal_cdf_anchors():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-12)


def test_ratio_policy_gains_over_false_policy_with_horizon():
    """The extra loss of the ratio policy over all-lies keeps growing at
    moderate horizons."""
    gaps = []
    for n in (20, 40, 80, 160):
        p = params(horizon=n)
        gaps.append(policy_value(ratio_policy(p), p) - value_false(n, 0.5, p))
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > 0


def lie_text(lies):
    return "".join("F" if lie else "T" for lie in lies)


class TestMixedPolicyValues:
    @pytest.mark.parametrize(
        "mu,rho0,loss", [(0.3, 0.5, None), (0.7, 0.2, None), (0.5, 0.4, lambda y: y * y)]
    )
    def test_deterministic_policies_every_prefix(self, mu, rho0, loss):
        """0/1 lie probabilities evaluate a fixed policy; entry r is the
        brute-force value of its first r stages."""
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            lies = rng.random(n) < 0.5
            values = mixed_policy_values(lies.astype(float), params(mu, n, rho0, loss=loss))
            assert values[0] == 0.0
            for r in range(1, n + 1):
                pol = OfflinePolicy(lie_text(lies[:r]))
                want = brute_force_value(pol, params(mu, r, rho0, loss=loss))
                assert values[r] == pytest.approx(want, abs=1e-12)

    def test_fractional_probabilities_average_every_policy(self):
        """A stage-wise random policy is worth the probability-weighted
        average of the 2^r deterministic policies, at every prefix r."""
        lie_prob = np.array([0.9, 0.1, 0.5, 0.3, 1.0, 0.0, 0.65, 0.2])
        mu, rho0 = 0.6, 0.35
        values = mixed_policy_values(lie_prob, params(mu, 8, rho0))
        for r in range(1, 9):
            p = params(mu, r, rho0)
            want = 0.0
            for code in range(1 << r):
                lies = [(code >> k) & 1 for k in range(r)]
                weight = math.prod(lie_prob[k] if lie else 1.0 - lie_prob[k]
                                   for k, lie in enumerate(lies))
                if weight:
                    want += weight * brute_force_value(OfflinePolicy(lie_text(lies)), p)
            assert values[r] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("shape", [(1,), (9,), (4, 1), (3, 11)])
    def test_sure_actions_shift_the_mass(self, shape):
        """At lie 0 or 1 the forward step is one shift plus the weight that
        stays, bit for bit, on nonnegative masses with exact zeros among them."""
        rng = np.random.default_rng(3)
        mu = 0.3
        masses = rng.random(shape) * (rng.random(shape) < 0.7)
        for lie, stay, move, to in ((1.0, 1.0 - mu, mu, slice(2, None)),
                                    (0.0, mu, 1.0 - mu, slice(None, -2))):
            want = np.zeros(shape[:-1] + (shape[-1] + 2,))
            want[..., 1:-1] = stay * masses
            want[..., to] += move * masses
            got = exact_eval._forward_step(masses, lie, mu)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_scalar_probability_applies_to_every_stage(self):
        p = params(0.3, 12, 0.6)
        assert np.array_equal(mixed_policy_values(0.25, p), mixed_policy_values([0.25] * 12, p))

    def test_rejects_bad_probabilities(self):
        p = params(horizon=3)
        with pytest.raises(ValueError):
            mixed_policy_values([0.5, 0.5], p)
        with pytest.raises(ValueError):
            mixed_policy_values([0.5, 1.5, 0.5], p)
        with pytest.raises(ValueError):
            mixed_policy_values(math.nan, p)


@pytest.mark.parametrize("n", [1, 40, 2000])
def test_two_honest_values_closed_form_matches_the_forward_pass(n):
    """Under the absolute loss the no-adversary value is (1 - mu) per stage
    whatever rho0 and epsilon; the forward pass is its oracle."""
    for mu, rho0, eps in product((0.1, 0.3, 0.5, 0.7, 0.93), (0.05, 0.5, 0.9), (1 / E, 0.6, 0.9)):
        p = params(mu, n, rho0, eps)
        np.testing.assert_allclose(two_honest_values(p), mixed_policy_values(1.0 - mu, p),
                                   rtol=1e-12, atol=0.0)


def test_two_honest_values_other_losses_take_the_forward_pass():
    for mu, rho0 in product((0.3, 0.7), (0.2, 0.9)):
        p = params(mu, 60, rho0, loss=lambda y: y * y)
        assert np.array_equal(two_honest_values(p), mixed_policy_values(1.0 - mu, p))


def test_two_honest_values_every_prefix():
    for mu in (0.2, 0.5, 0.9):
        values = two_honest_values(params(mu=mu, horizon=40, rho0=0.3))
        assert values == pytest.approx((1 - mu) * np.arange(41), abs=1e-9)
