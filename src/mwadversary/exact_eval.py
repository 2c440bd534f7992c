"""Exact expected-loss evaluation of offline policies.

Everything here is exact (up to double precision): all-lies and all-truths
runs collapse to binomial tail sums, arbitrary block policies are evaluated
by pushing an exact integer-offset distribution through the blocks, policies
that lie at each stage with a fixed probability (the no-adversary and
no-information baselines among them) by pushing it one stage at a time, which
gives every prefix horizon in the same pass, and two brute-force enumerators
(over honest sample paths, and over entire policy trees) serve as
independent oracles.  The module also computes the
credibility-rebuild bonus of a block policy together with its normal-CDF
approximation, and provides numeric verifiers for the two analytic
inequalities the approximation analysis rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BinomialDist, GuardError, ModelParams, binomial, weight_power
from .policies import BlockForm, Decision, OfflinePolicy, block_form

__all__ = [
    "OffsetDistribution",
    "BonusReport",
    "offset_distribution",
    "value_false",
    "value_true",
    "value_block_policy",
    "brute_force_value",
    "exhaustive_offline_optimum",
    "bonus_term",
    "log_telescoping_residuals",
    "berry_esseen_check",
    "mixed_policy_values",
    "two_honest_value",
    "two_honest_values",
    "normal_cdf",
]

_BRUTE_FORCE_MAX_N = 22
_EXHAUSTIVE_MAX_N = 26
_PATH_CHUNK = 1 << 20


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function
    (absolute error well under 1e-12)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _inv1pexp(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^t), elementwise and overflow-safe."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    et = np.exp(-t[pos])
    out[pos] = et / (1.0 + et)
    out[~pos] = 1.0 / (1.0 + np.exp(t[~pos]))
    return out


@dataclass(frozen=True)
class OffsetDistribution:
    """Exact probability mass over consecutive integer weight offsets."""

    support_min: int
    masses: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-D vector")
        if np.any(m < -1e-12):
            raise ValueError("masses must be nonnegative")
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {total}")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "support_min", int(self.support_min))

    @classmethod
    def point(cls, j: int = 0) -> "OffsetDistribution":
        return cls(j, np.array([1.0]))

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.support_min, self.support_min + self.masses.size)

    def prob(self, j: int) -> float:
        i = j - self.support_min
        if 0 <= i < self.masses.size:
            return float(self.masses[i])
        return 0.0

    def expect(self, values: np.ndarray) -> float:
        """Expectation of per-offset ``values`` aligned with :attr:`support`."""
        v = np.asarray(values, dtype=float)
        if v.shape != self.masses.shape:
            raise ValueError("values must align with the support")
        return float(self.masses @ v)

    def after_lies(self, n: int, mu: float) -> "OffsetDistribution":
        """Convolve in ``n`` lying stages: each adds +1 with probability mu."""
        if n == 0:
            return self
        return OffsetDistribution(
            self.support_min, np.convolve(self.masses, binomial(n, mu).pmf)
        )

    def after_truths(self, m: int, mu: float) -> "OffsetDistribution":
        """Convolve in ``m`` truthful stages: each adds -1 with probability
        1 - mu."""
        if m == 0:
            return self
        return OffsetDistribution(
            self.support_min - m,
            np.convolve(self.masses, binomial(m, 1.0 - mu).pmf[::-1]),
        )


def offset_distribution(n_lies: int, m_truths: int, mu: float) -> OffsetDistribution:
    """Exact law of the offset after ``n_lies`` lies and ``m_truths`` truths
    (in any order): X - Y with X ~ Bin(n, mu) independent of
    Y ~ Bin(m, 1 - mu)."""
    if n_lies < 0 or m_truths < 0:
        raise ValueError("counts must be nonnegative")
    return (
        OffsetDistribution.point(0)
        .after_lies(int(n_lies), mu)
        .after_truths(int(m_truths), mu)
    )


def value_false(n: int, rho: float, params: ModelParams) -> float:
    """Expected loss of lying for ``n`` consecutive stages from relative
    weight ``rho``.

    Each stage where the honest expert errs costs Q(1) and leaves the weight
    alone; the stages where it is correct cost Q at successively punished
    weights, which collapses to a binomial tail sum.  O(n) arithmetic.
    """
    if not 0 <= n <= params.horizon:
        raise ValueError(f"n must be in [0, horizon], got {n}")
    if n == 0:
        return 0.0
    tails = binomial(n, params.mu).tails
    w = weight_power(np.arange(n + 1), rho, params)
    return n * (1.0 - params.mu) * params.q(1.0) + float(tails @ params.q_vec(w))


def value_true(n: int, rho: float, params: ModelParams) -> float:
    """Expected loss of telling the truth for ``n`` consecutive stages from
    relative weight ``rho`` (mirror of :func:`value_false` with rewarded
    weights and the honest expert's error rate)."""
    if not 0 <= n <= params.horizon:
        raise ValueError(f"n must be in [0, horizon], got {n}")
    if n == 0:
        return 0.0
    tails = binomial(n, 1.0 - params.mu).tails
    w = weight_power(-np.arange(n + 1), rho, params)
    return n * params.mu * params.q(0.0) + float(tails @ params.q_vec(1.0 - w))


def value_block_policy(blocks: BlockForm, params: ModelParams) -> float:
    """Exact expected loss of a block policy from ``params.rho0``.

    Maintains the running offset distribution and charges every block the
    expectation of the corresponding straight-run value over that
    distribution.  Because offsets compose additively, the per-block weights
    are read directly off ``weight_power`` at shifted offsets.
    """
    if blocks.horizon != params.horizon:
        raise ValueError(
            f"blocks cover {blocks.horizon} stages but the horizon is {params.horizon}"
        )
    mu = params.mu
    dist = OffsetDistribution.point(0)
    total = 0.0
    for n, m in blocks:
        if n:
            tails = binomial(n, mu).tails
            offs = np.add.outer(dist.support, np.arange(n + 1))
            w = weight_power(offs, params.rho0, params)
            total += n * (1.0 - mu) * params.q(1.0)
            total += float(dist.masses @ (params.q_vec(w) @ tails))
            dist = dist.after_lies(n, mu)
        if m:
            tails = binomial(m, 1.0 - mu).tails
            offs = np.add.outer(dist.support, -np.arange(m + 1))
            w = weight_power(offs, params.rho0, params)
            total += m * mu * params.q(0.0)
            total += float(dist.masses @ (params.q_vec(1.0 - w) @ tails))
            dist = dist.after_truths(m, mu)
    return total


def brute_force_value(policy: OfflinePolicy, params: ModelParams) -> float:
    """Exact expected loss by enumerating all 2^N honest sample paths and
    replaying the weighted-average prediction and multiplicative update
    along each one (vectorized over paths); the independent oracle for
    everything built on offset distributions."""
    n = params.horizon
    if policy.horizon != n:
        raise ValueError("policy horizon does not match params.horizon")
    if n > _BRUTE_FORCE_MAX_N:
        raise GuardError(f"brute force enumerates 2^N paths; N={n} exceeds {_BRUTE_FORCE_MAX_N}")
    mu, eps = params.mu, params.epsilon
    lies = [d is Decision.LIE for d in policy.decisions]
    total = 0.0
    n_paths = 1 << n
    for lo in range(0, n_paths, _PATH_CHUNK):
        codes = np.arange(lo, min(lo + _PATH_CHUNK, n_paths), dtype=np.int64)
        w_adv = np.full(codes.shape, params.rho0)
        w_hon = np.full(codes.shape, 1.0 - params.rho0)
        loss = np.zeros(codes.shape)
        n_correct = np.zeros(codes.shape, dtype=np.int64)
        for k, lie in enumerate(lies):
            correct = ((codes >> k) & 1).astype(bool)
            w_tot = w_adv + w_hon
            if lie:
                err = np.where(correct, w_adv / w_tot, 1.0)
                w_adv = w_adv * eps
                w_hon = np.where(correct, w_hon, w_hon * eps)
            else:
                err = np.where(correct, 0.0, w_hon / w_tot)
                w_hon = np.where(correct, w_hon, w_hon * eps)
            loss += params.q_vec(err)
            n_correct += correct
        path_prob = mu ** n_correct * (1.0 - mu) ** (n - n_correct)
        total += float(path_prob @ loss)
    return total


def exhaustive_offline_optimum(params: ModelParams) -> tuple[OfflinePolicy, float]:
    """Best offline policy and its value over all 2^N decision sequences.

    Depth-first search over the policy tree, carrying the running offset
    distribution and the accumulated expected per-stage loss, so each node
    costs O(N) instead of a full re-evaluation.  Ties prefer the policy that
    lies at the earliest differing stage.
    """
    n = params.horizon
    if n > _EXHAUSTIVE_MAX_N:
        raise GuardError(
            f"exhaustive search walks 2^N policies; N={n} exceeds {_EXHAUSTIVE_MAX_N}"
        )
    mu = params.mu
    rho = weight_power(np.arange(-n, n + 1), params.rho0, params)
    lie_terms = mu * params.q_vec(rho)
    truth_terms = (1.0 - mu) * params.q_vec(1.0 - rho)
    lie_const = (1.0 - mu) * params.q(1.0)
    truth_const = mu * params.q(0.0)

    best_value = -math.inf
    best_policy: tuple[Decision, ...] = ()
    prefix: list[Decision] = []

    def search(depth: int, masses: np.ndarray, acc: float) -> None:
        nonlocal best_value, best_policy
        cost_lie = acc + lie_const + float(lie_terms @ masses)
        cost_truth = acc + truth_const + float(truth_terms @ masses)
        if depth == n - 1:
            if cost_lie > best_value:
                best_value = cost_lie
                best_policy = tuple(prefix) + (Decision.LIE,)
            if cost_truth > best_value:
                best_value = cost_truth
                best_policy = tuple(prefix) + (Decision.TRUTH,)
            return
        m_lie = (1.0 - mu) * masses
        m_lie[1:] += mu * masses[:-1]
        prefix.append(Decision.LIE)
        search(depth + 1, m_lie, cost_lie)
        prefix.pop()
        m_truth = mu * masses
        m_truth[:-1] += (1.0 - mu) * masses[1:]
        prefix.append(Decision.TRUTH)
        search(depth + 1, m_truth, cost_truth)
        prefix.pop()

    start = np.zeros(2 * n + 1)
    start[n] = 1.0
    search(0, start, 0.0)
    return OfflinePolicy(best_policy), best_value


@dataclass(frozen=True)
class BonusReport:
    """Credibility-rebuild bonus of a block policy.

    ``exact`` sums, per block, the expected drop of 1/(1 + e^offset) caused
    by that block's truth run (offsets weighted in base e, the canonical
    epsilon = 1/e, equal-initial-weights normalization; for other epsilon
    the offset scale is ln(1/epsilon)).  ``normal_approx`` replaces each
    expectation with the normal CDF at the matching mean/sd.  ``means_sds``
    holds per block (mean_incl, sd_incl, mean_excl, sd_excl), the offset
    moments including/excluding the block's truth run.
    """

    exact: float
    normal_approx: float
    per_block_exact: np.ndarray
    per_block_approx: np.ndarray
    means_sds: tuple[tuple[float, float, float, float], ...]


def _phi_of_ratio(mean: float, sd: float) -> float:
    """Phi(-mean/sd) with the degenerate sd=0 resolved by the point-mass
    limit (and Phi(0) when the mean is also 0)."""
    if sd == 0.0:
        if mean == 0.0:
            return 0.5
        return 0.0 if mean > 0 else 1.0
    return normal_cdf(-mean / sd)


def bonus_term(blocks: BlockForm, params: ModelParams) -> BonusReport:
    """Exact bonus of a block policy and its normal approximation.

    Each truth run lets the adversary rebuild weight before the next lie
    run; the block's bonus is the expected difference of 1/(1 + e^offset)
    with and without that truth run convolved in.  A block with an empty
    truth run contributes exactly zero.
    """
    mu = params.mu
    var_rate = mu * (1.0 - mu)
    dist = OffsetDistribution.point(0)
    n_cum = 0
    m_cum = 0
    per_exact = []
    per_approx = []
    means_sds = []
    for n, m in blocks:
        dist = dist.after_lies(n, mu)
        n_cum += n
        e_before = dist.expect(_inv1pexp(dist.support))
        mean_excl = n_cum * mu - m_cum * (1.0 - mu)
        sd_excl = math.sqrt(var_rate * (n_cum + m_cum))
        dist = dist.after_truths(m, mu)
        m_cum += m
        e_after = dist.expect(_inv1pexp(dist.support))
        mean_incl = n_cum * mu - m_cum * (1.0 - mu)
        sd_incl = math.sqrt(var_rate * (n_cum + m_cum))
        per_exact.append(e_after - e_before)
        per_approx.append(_phi_of_ratio(mean_incl, sd_incl) - _phi_of_ratio(mean_excl, sd_excl))
        means_sds.append((mean_incl, sd_incl, mean_excl, sd_excl))
    per_exact = np.array(per_exact)
    per_approx = np.array(per_approx)
    return BonusReport(
        exact=float(per_exact.sum()),
        normal_approx=float(per_approx.sum()),
        per_block_exact=per_exact,
        per_block_approx=per_approx,
        means_sds=tuple(means_sds),
    )


def log_telescoping_residuals(r: float, a: float) -> tuple[float, float, float, float]:
    """Residuals of the log-telescoping surrogates for the punished and
    rewarded weight values, with their analytic sandwich bounds.

    With f(r) = r - ln(1 + a e^r) and h(r) = ln(a + e^r), returns

        eps_r   = f(r+1) - f(r) - 1/(1 + a e^r)
        delta_r = h(r+1) - h(r) - 1/(1 + a e^{-r})
        eps_bound   = 1/(1 + a e^{r+1})    - 1/(1 + a e^r)
        delta_bound = 1/(1 + a e^{-(r+1)}) - 1/(1 + a e^{-r})

    and the claimed inequalities are eps_bound <= eps_r <= 0 and
    0 <= delta_r <= delta_bound (a = 1/rho - 1 for a weight rho).
    """
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    la = math.log(a)

    def f(t: float) -> float:
        return t - float(np.logaddexp(0.0, la + t))

    def h(t: float) -> float:
        return float(np.logaddexp(la, t))

    def s(t: float) -> float:  # 1 / (1 + e^t)
        return float(_inv1pexp(np.asarray(t)))

    eps_r = f(r + 1.0) - f(r) - s(la + r)
    delta_r = h(r + 1.0) - h(r) - s(la - r)
    eps_bound = s(la + r + 1.0) - s(la + r)
    delta_bound = s(la - r - 1.0) - s(la - r)
    return eps_r, delta_r, eps_bound, delta_bound


def berry_esseen_check(n: int, m: int, mu: float) -> tuple[float, float, float, float]:
    """Exact E[1/(1 + e^{X-Y})] for X ~ Bin(n, mu), Y ~ Bin(m, 1-mu) against
    its normal-CDF approximation Phi(-nu/sigma).

    Returns (exact, approx, |exact - approx|, sigma); the approximation
    error decays like 1/sigma.  For n = m = 0 the point mass makes both
    sides equal by convention.
    """
    dist = offset_distribution(n, m, mu)
    exact = dist.expect(_inv1pexp(dist.support))
    sigma = math.sqrt(mu * (1.0 - mu) * (n + m))
    if sigma == 0.0:
        return exact, exact, 0.0, 0.0
    nu = n * mu - (1.0 - mu) * m
    approx = normal_cdf(-nu / sigma)
    return exact, approx, abs(exact - approx), sigma


def mixed_policy_values(lie_prob, params: ModelParams) -> np.ndarray:
    """Expected loss of every prefix horizon r = 0..N of an offline policy
    that lies at stage k with probability ``lie_prob[k]``, independently of
    everything else (a scalar applies to every stage).

    ``out[r]`` is the expected loss of the first r stages, so one pass at
    horizon N serves every shorter horizon; 0/1 probabilities evaluate a
    deterministic policy.  The offset distribution after k stages lives on
    [-k, k]: a lie moves it +1 when the honest expert is right, a truth -1
    when it is wrong.
    """
    n = params.horizon
    try:
        p = np.broadcast_to(np.asarray(lie_prob, dtype=float), (n,))
    except ValueError as exc:
        raise ValueError(f"lie_prob must be a scalar or have {n} entries") from exc
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("lie probabilities must lie in [0, 1]")
    mu = params.mu
    rho = weight_power(np.arange(-n, n + 1), params.rho0, params)
    lie_terms = mu * params.q_vec(rho) + (1.0 - mu) * params.q(1.0)
    truth_terms = (1.0 - mu) * params.q_vec(1.0 - rho) + mu * params.q(0.0)
    out = np.zeros(n + 1)
    masses = np.ones(1)
    for k in range(n):
        lie = float(p[k])
        window = slice(n - k, n + k + 1)
        stage = lie * float(masses @ lie_terms[window])
        stage += (1.0 - lie) * float(masses @ truth_terms[window])
        out[k + 1] = out[k] + stage
        nxt = np.zeros(masses.size + 2)
        nxt[1:-1] = (lie * (1.0 - mu) + (1.0 - lie) * mu) * masses
        nxt[2:] += lie * mu * masses
        nxt[:-2] += (1.0 - lie) * (1.0 - mu) * masses
        masses = nxt
    return out


def two_honest_values(params: ModelParams) -> np.ndarray:
    """Expected loss over every horizon r = 0..N when the adversary slot is
    filled by a second independent honest expert of the same accuracy (the
    no-adversary baseline): a policy that lies with probability 1 - mu."""
    return mixed_policy_values(1.0 - params.mu, params)


def two_honest_value(params: ModelParams) -> float:
    """The no-adversary baseline over the full horizon."""
    return float(two_honest_values(params)[-1])


def policy_value(policy: OfflinePolicy, params: ModelParams) -> float:
    """Expected loss of an arbitrary offline policy (block-form evaluation)."""
    return value_block_policy(block_form(policy), params)
