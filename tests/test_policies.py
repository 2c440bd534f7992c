"""Policy constructors, block-form round trips, and text serialization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwadversary import (
    BlockForm,
    ModelParams,
    OfflinePolicy,
    block_form,
    false_policy,
    from_blocks,
    random_policy,
    ratio_policy,
    true_policy,
)
from mwadversary.policies import _ratio_pair


def params(mu, horizon):
    return ModelParams(epsilon=math.exp(-1), mu=mu, horizon=horizon)


def test_false_policy():
    assert false_policy(1).text == "F"
    assert false_policy(4).text == "FFFF"
    assert block_form(false_policy(4)).blocks == ((4, 0),)


def test_true_policy():
    assert true_policy(1).text == "T"
    assert true_policy(3).text == "TTT"
    assert block_form(true_policy(3)).blocks == ((0, 3),)


def test_horizon_validation():
    for ctor in (false_policy, true_policy):
        with pytest.raises(ValueError):
            ctor(0)


class TestRatioPolicy:
    def test_balanced_accuracy(self):
        pol = ratio_policy(params(0.5, 8))
        assert block_form(pol).blocks == ((1, 1), (1, 1), (4, 0))
        assert pol.text == "FTFTFFFF"

    def test_two_to_one_accuracy(self):
        pol = ratio_policy(params(2 / 3, 12))
        assert block_form(pol).blocks == ((1, 2), (1, 2), (6, 0))

    def test_degenerate_horizon_falls_back(self):
        pol = ratio_policy(params(0.5, 2))
        assert pol.text == false_policy(2).text

    def test_too_small_horizon_raises(self):
        with pytest.raises(ValueError):
            ratio_policy(params(0.5, 1))

    @pytest.mark.parametrize("mu", [0.2, 0.35, 0.5, 2 / 3, 0.8])
    @pytest.mark.parametrize("n", range(2, 42, 3))
    def test_structural_invariants(self, mu, n):
        pol = ratio_policy(params(mu, n))
        blocks = block_form(pol).blocks
        assert sum(a + b for a, b in blocks) == n
        b, a, pairs = _ratio_pair(mu, 20, n)
        # as many (b, a) pairs as fit in half the horizon; none gives the false policy
        assert pairs * (a + b) <= n / 2 < (pairs + 1) * (a + b)
        assert blocks == ((b, a),) * pairs + ((n - pairs * (a + b), 0),)
        # terminal lie block covers at least half the horizon
        assert blocks[-1][1] == 0
        assert blocks[-1][0] >= math.ceil(n / 2)
        lies = pol.text.count("F")
        assert lies >= n - lies

    def test_balanced_prefix_alternates(self):
        pol = ratio_policy(params(0.5, 20))
        blocks = block_form(pol).blocks
        assert all(b == (1, 1) for b in blocks[:-1])

    def test_bounded_denominator_clamps(self):
        # mu/(1-mu) ~ 0.0101 approximates to 0 under a small denominator
        # bound; block lengths must still be positive
        pol = ratio_policy(params(0.01, 100), max_denominator=20)
        blocks = block_form(pol).blocks
        assert all(b[0] >= 1 for b in blocks)


class TestRandomPolicy:
    def test_extremes(self):
        assert random_policy(7, 0.0, 42).text == false_policy(7).text
        assert random_policy(7, 1.0, 42).text == true_policy(7).text

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_lie_fraction_concentrates(self, seed):
        pol = random_policy(10_000, 0.5, seed)
        assert 0.47 <= pol.text.count("F") / 10_000 <= 0.53

    def test_deterministic_given_seed(self):
        assert random_policy(50, 0.3, 7) == random_policy(50, 0.3, 7)
        assert random_policy(50, 0.3, 7) != random_policy(50, 0.3, 8)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            random_policy(5, 1.2, 0)


class TestBlockForm:
    def test_examples(self):
        assert block_form(OfflinePolicy("FFT")).blocks == ((2, 1),)
        assert block_form(OfflinePolicy("TF")).blocks == ((0, 1), (1, 0))

    def test_interior_zeros_rejected(self):
        with pytest.raises(ValueError):
            BlockForm(((1, 0), (2, 1)))
        with pytest.raises(ValueError):
            BlockForm(((1, 2), (0, 1)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BlockForm(((-1, 2),))

    @pytest.mark.parametrize("blocks", [((math.inf, 2),), ((2, -math.inf),), ((math.nan, 1),),
                                        ((2.5, 1),)])
    def test_non_integer_lengths_rejected(self, blocks):
        with pytest.raises(ValueError, match="block lengths must be nonnegative integers"):
            BlockForm(blocks)

    def test_horizon(self):
        assert BlockForm(((2, 3), (1, 0))).horizon == 6

    def test_round_trip_seeded_sample(self):
        import numpy as np

        rng = np.random.default_rng(2024)
        for _ in range(100):
            pol = random_policy(20, float(rng.random()), int(rng.integers(1 << 31)))
            assert from_blocks(block_form(pol)).text == pol.text

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.booleans(), min_size=1, max_size=40))
    def test_round_trip_property(self, bits):
        pol = OfflinePolicy("".join("T" if b else "F" for b in bits))
        blocks = block_form(pol)
        assert from_blocks(blocks).text == pol.text
        assert blocks.horizon == pol.horizon


class TestTextSerialization:
    def test_round_trip(self):
        pol = OfflinePolicy("FTFF")
        assert pol.text == "FTFF"
        assert OfflinePolicy("FTFF") == pol

    def test_rejects_unknown_characters(self):
        with pytest.raises(ValueError):
            OfflinePolicy("FTX")
