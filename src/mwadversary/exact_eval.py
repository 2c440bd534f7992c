"""Exact expected-loss evaluation of offline policies.

Everything here is exact (up to double precision): block policies, the
all-lies and all-truths policies among them, are evaluated one straight run
at a time, each run charged as one correlation of a contiguous slice of the
per-offset loss table with a binomial law's tail sums, and the
integer-offset distribution convolved with that law only when a later run
needs it; policies that lie at each stage with a fixed probability (the
oracle of online_dp's no-information pass among them) by pushing that
distribution one stage at a time, which gives every prefix horizon in the
same pass.  The no-adversary baseline needs no pass under the absolute
loss: there the system's error is the weight-average of two experts that
each err with probability 1 - mu whatever their weights, so its value is
(1 - mu) per stage.  The offline optimum of every horizon is one forward
longest path over (stage, lies so far) whose stage costs obey a two-term
recursion; only the block evaluator and offset_distribution build
``binomial`` laws.  Brute-force enumerators of honest sample paths and of
policy trees are the evaluators' and the optimum's oracles, and numeric
verifiers check the two inequalities of the normal-CDF analysis.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (BinomialDist, GuardError, ModelParams, _counts_in, _is_count, binomial,
                   weight_power)
from .policies import BlockForm, OfflinePolicy, _ratio_pair, block_form

__all__ = [
    "OffsetDistribution",
    "offset_distribution",
    "value_false",
    "value_true",
    "value_block_policy",
    "ratio_policy_values",
    "brute_force_value",
    "exhaustive_offline_optimum",
    "offline_optimum",
    "offline_optimum_values",
    "log_telescoping_residuals",
    "berry_esseen_check",
    "mixed_policy_values",
    "policy_value",
    "two_honest_value",
    "two_honest_values",
    "normal_cdf",
]

_BRUTE_FORCE_MAX_N = 22
_EXHAUSTIVE_MAX_N = 16
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
        if not _is_count(abs(self.support_min)):
            raise ValueError(f"support_min must be an integer, got {self.support_min}")
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-D vector")
        if not np.all(m >= -1e-12):  # written so that NaN fails
            raise ValueError("masses must be nonnegative")
        total = m.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"masses must sum to 1, got {total}")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "support_min", int(self.support_min))

    @classmethod
    def point(cls) -> "OffsetDistribution":
        return cls(0, np.array([1.0]))

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.support_min, self.support_min + self.masses.size)

    def after_run(self, law: BinomialDist, lie: bool) -> "OffsetDistribution":
        """Convolve in a run of ``law.trials`` lies or truths (see :func:`_convolve_run`)."""
        return OffsetDistribution(*_convolve_run(self.support_min, self.masses, law, lie))


def _convolve_run(lo: int, masses: np.ndarray, law: BinomialDist, lie: bool):
    """The offset law (lowest offset, masses) after a run of ``law.trials``
    lies (``law`` = Bin(n, mu): each adds +1 with probability mu) or truths
    (``law`` = Bin(n, 1 - mu): each adds -1 with probability 1 - mu)."""
    if lie:
        return lo, np.convolve(masses, law.pmf)
    return lo - law.trials, np.convolve(masses, law.pmf[::-1])


def _offset_losses(params: ModelParams, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Q(rho_j) and Q(1 - rho_j) at every offset j = -N..N (index j + N) of
    weight ``rho``: the loss of a lie and of a truth whose stage moves the
    weight, the only losses that depend on the offset."""
    n = params.horizon
    w = weight_power(np.arange(-n, n + 1), rho, params)
    return params.q_vec(w), params.q_vec(1.0 - w)


def _stage_costs(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Expected one-stage loss of lying and of telling the truth at every
    offset j = -N..N (index j + N): a lie costs Q(rho_j) when the honest
    expert is right and Q(1) when it errs, a truth Q(0) and Q(1 - rho_j)."""
    mu = params.mu
    q_lie, q_truth = _offset_losses(params, params.rho0)
    return mu * q_lie + (1.0 - mu) * params.q(1.0), (1.0 - mu) * q_truth + mu * params.q(0.0)


def _forward_step(masses: np.ndarray, lie: float, mu: float) -> np.ndarray:
    """Offset mass one stage on: the last axis, over offsets -k..k, becomes
    -k-1..k+1.  With probability ``lie`` the stage lies (+1 when the honest
    expert is right), else it tells the truth (-1 when it errs).  The adjoint
    of online_dp's backward step."""
    nxt = np.zeros(masses.shape[:-1] + (masses.shape[-1] + 2,))
    nxt[..., 1:-1] = (lie * (1.0 - mu) + (1.0 - lie) * mu) * masses
    nxt[..., 2:] += lie * mu * masses
    nxt[..., :-2] += (1.0 - lie) * (1.0 - mu) * masses
    return nxt


def offset_distribution(n_lies: int, m_truths: int, mu: float) -> OffsetDistribution:
    """Exact law of the offset after ``n_lies`` lies and ``m_truths`` truths
    (in any order): X - Y with X ~ Bin(n, mu) independent of
    Y ~ Bin(m, 1 - mu)."""
    return (OffsetDistribution.point()
            .after_run(binomial(n_lies, mu), True)
            .after_run(binomial(m_truths, 1.0 - mu), False))


def _charge(total: float, lo: int, masses: np.ndarray, law: BinomialDist, lie: bool,
            losses: tuple[np.ndarray, np.ndarray], params: ModelParams) -> float:
    """``total`` plus the expected loss of a run of ``law.trials`` lies
    (``law`` = Bin(n, mu)) or truths (``law`` = Bin(n, 1 - mu)) from the
    offset law with masses ``masses`` on offsets ``lo``, ``lo + 1``, ...

    A stage that leaves the weight alone costs Q(1) in a lie run (the honest
    expert errs), Q(0) in a truth run.  The (i+1)-th weight-moving stage
    occurs with probability P(Bin > i) and costs Q at the offset i steps from
    the start.  With the per-offset table ``q`` (:func:`_offset_losses`, read
    downwards in a truth run) and ``first`` the index of the start's lowest
    (truth run: highest) offset, that offset's r-th neighbour costs
    sum_i q[first + r + i] P(Bin > i): together, one ``"valid"`` correlation
    of a contiguous slice of ``q`` with the tail sums, weighted by the
    masses.  The law is not convolved (:func:`_run` does that).  A
    zero-length run adds exactly 0.0; a run that would leave offsets -N..N
    is an error.
    """
    n, mu, horizon = law.trials, params.mu, params.horizon
    hi = lo + masses.size - 1
    if lie:
        total += n * (1.0 - mu) * params.q(1.0)
        q, first = losses[0], horizon + lo  # index in q of the lowest offset's first stage
    else:
        total += n * mu * params.q(0.0)
        q, first = losses[1][::-1], horizon - hi  # walks the table downwards
    if not (0 <= first and first + hi - lo <= q.size - 1 - n):
        raise ValueError(f"a run of {n} from offsets {lo}..{hi} leaves -{horizon}..{horizon}")
    per_offset = np.correlate(q[first : first + masses.size + n], law.tails, "valid")
    return total + float(masses @ (per_offset if lie else per_offset[::-1]))


def _run(total: float, lo: int, masses: np.ndarray, law: BinomialDist, lie: bool,
         losses: tuple[np.ndarray, np.ndarray], params: ModelParams):
    """:func:`_charge` a run to ``total`` and convolve the offset law through
    it; returns the new total and the new law's lowest offset and masses."""
    total = _charge(total, lo, masses, law, lie, losses, params)
    return (total, *_convolve_run(lo, masses, law, lie))


def value_false(n: int, rho: float, params: ModelParams) -> float:
    """Expected loss of lying for ``n`` consecutive stages from relative
    weight ``rho``.

    Each stage where the honest expert errs costs Q(1) and leaves the weight
    alone; the stages where it is correct cost Q at successively punished
    weights, which collapses to a binomial tail sum.  O(N) arithmetic.
    """
    return _charge(0.0, 0, np.ones(1), binomial(n, params.mu), True,
                   _offset_losses(params, rho), params)


def value_true(n: int, rho: float, params: ModelParams) -> float:
    """Expected loss of telling the truth for ``n`` consecutive stages from
    relative weight ``rho`` (mirror of :func:`value_false` with rewarded
    weights and the honest expert's error rate)."""
    return _charge(0.0, 0, np.ones(1), binomial(n, 1.0 - params.mu), False,
                   _offset_losses(params, rho), params)


def value_block_policy(blocks: BlockForm, params: ModelParams) -> float:
    """Exact expected loss of a block policy from ``params.rho0``.

    Maintains the running offset distribution and charges every block the
    expectation of the corresponding straight-run value over that
    distribution.  Because offsets compose additively, every block reads its
    losses off one per-offset table, built once for the policy.
    """
    if blocks.horizon != params.horizon:
        raise ValueError(
            f"blocks cover {blocks.horizon} stages but the horizon is {params.horizon}"
        )
    mu, losses = params.mu, _offset_losses(params, params.rho0)
    total, lo, masses = 0.0, 0, np.ones(1)
    for n, m in blocks:
        total, lo, masses = _run(total, lo, masses, binomial(n, mu), True, losses, params)
        total, lo, masses = _run(total, lo, masses, binomial(m, 1.0 - mu), False, losses, params)
    return total


def ratio_policy_values(horizons, params: ModelParams, max_denominator: int) -> np.ndarray:
    """Expected loss of ``ratio_policy`` at every horizon in ``horizons`` (a
    1-D sequence, each a whole number in 2..``params.horizon``), bit for bit
    ``policy_value`` of each.

    All share the (b lies, a truths) prefix pairs, and horizon N is p pairs
    then one lie run, so one walk over the pairs serves every horizon: on
    reaching a horizon's p it charges its lie run (p = 0: all lies) without
    convolving the law through it.  The pair's two laws are built once, at
    the first stacked pair, so a walk that stacks none builds neither.
    """
    ns = np.asarray(horizons)
    if not _counts_in(ns, 2, params.horizon):
        raise ValueError(f"horizons must be integers in [2, {params.horizon}], got {ns.tolist()}")
    ns = ns.astype(int).tolist()
    mu, losses = params.mu, _offset_losses(params, params.rho0)
    b, a, _ = _ratio_pair(mu, max_denominator, params.horizon)
    pairs = [_ratio_pair(mu, max_denominator, n)[2] for n in ns]
    out = np.zeros(len(ns))
    total, lo, masses = 0.0, 0, np.ones(1)
    for p in range(max(pairs, default=-1) + 1):
        if p == 1:
            lies, truths = binomial(b, mu), binomial(a, 1.0 - mu)
        if p:
            total, lo, masses = _run(total, lo, masses, lies, True, losses, params)
            total, lo, masses = _run(total, lo, masses, truths, False, losses, params)
        for i, n in enumerate(ns):
            if pairs[i] == p:
                tail = binomial(n - p * (a + b), mu)
                out[i] = _charge(total, lo, masses, tail, True, losses, params)
    return out


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
    lies = [c == "F" for c in policy.text]
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


def _offline_forward(params: ModelParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Forward longest path over (stage k, lies so far a): for k = 0..N-1, the
    best loss of stages 0..k ending at each a = 0..k+1, and whether it came
    by a lie (ties take the truth).  The offset is a - M_k, M_k ~ Bin(k, 1 -
    mu), so an action costs D_k(a) = E[L(a - M_k)], L its column of
    :func:`_stage_costs`; D_{k+1}(x) = D_k(x) + (1 - mu)(D_k(x - 1) - D_k(x))
    keeps a constant D exact, which the kernel [1 - mu, mu] would not."""
    n, mu, best = params.horizon, params.mu, np.zeros(1)
    d = np.stack(_stage_costs(params))[:, 1:-1]  # D_k of lie, truth on offsets k+1-N..N-1
    for k in range(n):
        both = best + d[:, n - 1 - k : n]  # a = 0..k
        lie, truth = np.append(-np.inf, both[0]), np.append(both[1], -np.inf)
        best = np.maximum(lie, truth)
        yield best, lie > truth
        d = d[:, 1:] + (1.0 - mu) * (d[:, :-1] - d[:, 1:])


def offline_optimum(params: ModelParams) -> tuple[OfflinePolicy, float]:
    """Best offline policy and its value, traced back through the bits of
    :func:`_offline_forward` from the largest final argmax a.  As ties take
    the truth, a constant loss gives all lies; the text may differ from the
    exhaustive search's where policies tie to rounding.  Each stage's bits
    are kept packed, eight to a byte (at most N^2/16 + N bytes in all)."""
    rows = []
    for best, by_lie in _offline_forward(params):
        rows.append(np.packbits(by_lie))
    a, lies = int(np.flatnonzero(best == best.max())[-1]), []
    for row in reversed(rows):
        lies.append(bool(int(row[a >> 3]) >> (7 - (a & 7)) & 1))  # big-endian bit a
        a -= lies[-1]
    return OfflinePolicy("".join("TF"[lie] for lie in reversed(lies))), float(best.max())


def offline_optimum_values(params: ModelParams) -> np.ndarray:
    """The optimum of every horizon 0..N, each bit for bit :func:`offline_optimum`'s."""
    return np.array([0.0] + [best.max() for best, _ in _offline_forward(params)])


def exhaustive_offline_optimum(params: ModelParams) -> tuple[OfflinePolicy, float]:
    """Best offline policy and its value over all 2^N decision sequences:
    the independent oracle of :func:`offline_optimum`.

    One mass array holds a row per decision prefix over the stage's
    offsets, and each stage adds the expected loss of every row's lie and
    truth child.  Row bits are the F/T text (0 lies), so the first maximum
    is the optimum that lies at the earliest differing stage.
    """
    n = params.horizon
    if n > _EXHAUSTIVE_MAX_N:
        raise GuardError(
            f"exhaustive search walks 2^N policies; N={n} exceeds {_EXHAUSTIVE_MAX_N}"
        )
    mu = params.mu
    stage_costs = np.column_stack(_stage_costs(params))  # lie, truth at each offset
    masses, acc = np.ones((1, 1)), np.zeros(1)
    for k in range(n):
        if k:  # row 2i is row i's lie child, row 2i+1 its truth child
            pair = [_forward_step(masses, 1.0, mu), _forward_step(masses, 0.0, mu)]
            masses = np.stack(pair, axis=1).reshape(acc.size, 2 * k + 1)
        acc = (acc[:, None] + masses @ stage_costs[n - k : n + k + 1]).ravel()
    row = int(np.argmax(acc))
    return OfflinePolicy(format(row, f"0{n}b").replace("0", "F").replace("1", "T")), float(acc[row])


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
    if not 0 <= r < math.inf:  # written so that NaN fails
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    if not 0 < a < math.inf:
        raise ValueError(f"a must be finite and positive, got {a}")
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
    exact = float(dist.masses @ _inv1pexp(dist.support))
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
    lie_costs, truth_costs = _stage_costs(params)
    out = np.zeros(n + 1)
    masses = np.ones(1)
    for k in range(n):
        lie = float(p[k])
        window = slice(n - k, n + k + 1)
        stage = lie * float(masses @ lie_costs[window])
        stage += (1.0 - lie) * float(masses @ truth_costs[window])
        out[k + 1] = out[k] + stage
        masses = _forward_step(masses, lie, mu)
    return out


def two_honest_values(params: ModelParams) -> np.ndarray:
    """Expected loss over every horizon r = 0..N when the adversary slot is
    filled by a second independent honest expert of the same accuracy (the
    no-adversary baseline): a policy that lies with probability 1 - mu.

    Under the absolute loss this is exactly (1 - mu) * r, for every rho0 and
    epsilon: the error is the weight-average of the two experts' 0/1 errors,
    and each expert errs with probability 1 - mu independently of the
    weights, which depend only on earlier stages.  Any other loss Q is not
    linear in the error, so it takes the forward pass.
    """
    if params.is_absolute:
        return (1.0 - params.mu) * np.arange(params.horizon + 1)
    return mixed_policy_values(1.0 - params.mu, params)


def two_honest_value(params: ModelParams) -> float:
    """The no-adversary baseline over the full horizon."""
    return float(two_honest_values(params)[-1])


def policy_value(policy: OfflinePolicy, params: ModelParams) -> float:
    """Expected loss of an arbitrary offline policy (block-form evaluation)."""
    return value_block_policy(block_form(policy), params)
