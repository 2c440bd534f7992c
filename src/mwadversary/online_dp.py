"""Optimal online adversaries by backward induction.

The two-expert solver works on the reduced integer-offset state space: after
k stages the adversary's relative weight can only sit at one of 2k+1 offsets
from the start, so the full horizon needs O(N^2) state evaluations.  Any loss
Q is solved, as it enters only through each offset's one-stage costs.  State
(k, j) of a horizon-N solve is the start of a horizon N-k problem shifted by
offset j, so the values-only pass keeps one stage in O(N) memory and reads
the optimum of every horizon 0..N off offset 0 as it goes; a played policy
keeps one bit (its action) per state; the full table, an ``OnlinePolicy``
that also keeps values and ties, stays as ``BENCHMARK.json`` names
``solve_two_expert``.  The passes' oracle is ``verify.expectimax_value``.
Also here: the exact K-expert model on a mistake-count grid (one two-point
average per honest expert, along its axis), a clairvoyant solver that takes
a block of realizations in one pass with its Monte Carlo harness, and the
baseline of an adversary with no outcome information.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import GuardError, ModelParams, _check_epsilon, _positive_int
from .exact_eval import _offset_losses, _stage_costs, mixed_policy_values

__all__ = [
    "ValueTable",
    "OnlinePolicy",
    "KExpertParams",
    "MCResult",
    "solve_two_expert",
    "optimal_policy",
    "optimal_value",
    "optimal_values",
    "simulate_online",
    "solve_k_expert",
    "clairvoyant_value",
    "clairvoyant_values",
    "monte_carlo_k_expert",
    "no_information_baseline",
    "no_information_values",
    "no_info_conditional_losses",
]

_TIE_TOL = 1e-12
_TRIAL_CHUNK = 250  # trials per block of draws in simulate_online and monte_carlo_k_expert
_K_EXPERT_MAX_K = 5
_K_EXPERT_MAX_N = 60
_K_EXPERT_MAX_STATES = 2_000_000


def _bellman_step(
    v_next: np.ndarray, lie_cost: np.ndarray, truth_cost: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """Expected continuation loss of lying and of telling the truth at every
    offset of one stage, from its one-stage costs and the next stage's values
    on a support one wider on each side: a lie moves the offset +1 with
    probability mu, a truth -1 with probability 1 - mu."""
    v_same = v_next[1:-1]
    lie = lie_cost + mu * v_next[2:] + (1.0 - mu) * v_same
    truth = truth_cost + (1.0 - mu) * v_next[:-2] + mu * v_same
    return lie, truth


def _backward(params: ModelParams) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """One backward pass at horizon N holding only the current stage (O(N)
    memory): for k = N-1..0, stage k's optimal values and lie/truth values.
    The loss Q enters only through the stage costs, never the transitions."""
    n = params.horizon
    lie_costs, truth_costs = _stage_costs(params)
    v = np.zeros(2 * n + 1)
    for k in range(n - 1, -1, -1):
        window = slice(n - k, n + k + 1)
        lie, truth = _bellman_step(v, lie_costs[window], truth_costs[window], params.mu)
        v = np.maximum(lie, truth)
        yield k, v, lie, truth


@dataclass(frozen=True, eq=False)
class _PackedActions(Sequence):
    """Actions packed eight to a byte: ``[k]`` unpacks stage k's 2k+1 bools (offset j at j + k)."""

    packed: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, k: int) -> np.ndarray:
        k = range(len(self.packed))[k]
        return np.unpackbits(self.packed[k], count=2 * k + 1).view(bool)


@dataclass(frozen=True, eq=False)
class OnlinePolicy:
    """The optimal online adversary as played: root value and per-state
    actions; the full table :class:`ValueTable` is one that also keeps values
    and ties."""

    params: ModelParams
    root_value: float
    lie_optimal: Sequence[np.ndarray]


@dataclass(frozen=True, eq=False)
class ValueTable(OnlinePolicy):
    """An :class:`OnlinePolicy` that also keeps its values and ties, kept as
    ``BENCHMARK.json`` names :func:`solve_two_expert`.

    ``values[k]`` holds the optimal continuation loss at stage k for offsets
    j = -k..k (index j + k), as ``lie_optimal[k]`` the action (ties lie) and
    ``tie_flags[k]`` where both actions are optimal to within tolerance.
    ``states_evaluated`` counts state evaluations (the sum of 2k+1).
    """

    values: list[np.ndarray]
    tie_flags: list[np.ndarray]
    states_evaluated: int


def solve_two_expert(params: ModelParams) -> ValueTable:
    """Fill the two-expert value table by backward induction over offsets,
    keeping every stage's values, maximizing actions and tie flags."""
    n = params.horizon
    values: list[np.ndarray] = [np.empty(0)] * n + [np.zeros(2 * n + 1)]
    lie_optimal: list[np.ndarray] = [np.empty(0, dtype=bool)] * n
    tie_flags: list[np.ndarray] = [np.empty(0, dtype=bool)] * n
    states = 0
    for k, v, lie, truth in _backward(params):
        values[k] = v
        diff = lie - truth
        lie_optimal[k] = diff >= 0.0
        scale = np.maximum(1.0, np.maximum(np.abs(lie), np.abs(truth)))
        tie_flags[k] = np.abs(diff) <= _TIE_TOL * scale
        states += 2 * k + 1
    return ValueTable(params, float(values[0][0]), lie_optimal, values, tie_flags, states)


def optimal_policy(params: ModelParams) -> OnlinePolicy:
    """The optimal online policy, its actions packed eight to a byte; root
    value and actions equal ``solve_two_expert``'s bit for bit."""
    packed: list[np.ndarray] = [np.empty(0, dtype=np.uint8)] * params.horizon
    for k, v, lie, truth in _backward(params):
        packed[k] = np.packbits(lie - truth >= 0.0)
    return OnlinePolicy(params, float(v[0]), _PackedActions(tuple(packed)))


def optimal_values(params: ModelParams) -> np.ndarray:
    """Optimal online expected loss of every horizon r = 0..N from
    ``params.rho0``: ``out[r]`` equals ``solve_two_expert`` at horizon r
    bit for bit, read off one pass at horizon N (offset 0 of stage N - r)."""
    n = params.horizon
    out = np.zeros(n + 1)
    for k, v, _, _ in _backward(params):
        out[n - k] = v[k]
    return out


def optimal_value(params: ModelParams) -> float:
    """The optimal online expected loss over the full horizon."""
    return float(optimal_values(params)[-1])


@dataclass(frozen=True)
class MCResult:
    """Monte Carlo summary with every trial's loss, reproducible from (seed, trials, params)."""

    trials: int
    mean: float
    stderr: float
    seed: int
    per_trial: np.ndarray = field(compare=False, repr=False)


def _philox(seed: int) -> np.random.Generator:
    # counter-based generator: trial t's draws are row t of one keyed block,
    # so results do not depend on evaluation order and rows can be farmed out
    return np.random.Generator(np.random.Philox(key=seed))


def _mc_summary(losses: np.ndarray, trials: int, seed: int) -> MCResult:
    sd = float(losses.std(ddof=1)) if trials > 1 else 0.0
    return MCResult(trials, float(losses.mean()), sd / math.sqrt(trials), seed, losses)


def simulate_online(
    params: ModelParams, policy: OnlinePolicy, trials: int, seed: int
) -> MCResult:
    """Play the policy's actions through ``trials`` independent episodes with
    honest predictions drawn i.i.d. at accuracy mu, charging Q of each
    stage's prediction error (rho_j, 1, 0 or 1 - rho_j) from per-offset
    tables built once; the empirical mean loss converges to the policy's
    root value."""
    if policy.params != params:
        raise ValueError("policy was solved for different parameters")
    trials = _positive_int("trials", trials)
    n = params.horizon
    rng = _philox(seed)
    # trial t's draws are row t of the seeded stream, stored stage-major
    correct = np.empty((n, trials), dtype=bool)
    for block in np.split(correct, range(_TRIAL_CHUNK, trials, _TRIAL_CHUNK), axis=1):
        block[:] = (rng.random(block.shape[::-1]) < params.mu).T
    q_lie, q_truth = _offset_losses(params, params.rho0)
    q0, q1 = params.q(0.0), params.q(1.0)
    i = np.full(trials, n, dtype=np.int64)  # offset j + n of every trial
    loss = np.zeros(trials)
    for k, c in enumerate(correct):
        lie = policy.lie_optimal[k][i - (n - k)]
        loss += np.where(lie, np.where(c, q_lie[i], q1), np.where(c, q0, q_truth[i]))
        i += lie & c
        i -= ~lie & ~c
    return _mc_summary(loss, trials, seed)


@dataclass(frozen=True)
class KExpertParams:
    """One adversary against K-1 independent honest experts."""

    epsilon: float
    horizon: int
    accuracies: tuple[float, ...]
    initial_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accuracies", tuple(float(a) for a in self.accuracies))
        object.__setattr__(
            self, "initial_weights", tuple(float(w) for w in self.initial_weights)
        )
        _check_epsilon(self.epsilon)
        object.__setattr__(self, "horizon", _positive_int("horizon", self.horizon))
        if len(self.accuracies) < 1:
            raise ValueError("need at least one honest expert")
        if any(not 0.0 < a < 1.0 for a in self.accuracies):
            raise ValueError("every accuracy must be strictly inside (0, 1)")
        if len(self.initial_weights) != len(self.accuracies) + 1:
            raise ValueError(
                "initial_weights must list the adversary first, then every honest expert"
            )
        w = self.initial_weights
        if not (min(w) > 0.0 and sum(w) < math.inf):  # a NaN weight makes the sum NaN
            raise ValueError(f"initial weights must be finite and strictly positive, got {w}")

    @property
    def n_experts(self) -> int:
        return len(self.initial_weights)

    @property
    def adversary_relative_weight(self) -> float:
        return self.initial_weights[0] / sum(self.initial_weights)


def solve_k_expert(params: KExpertParams) -> float:
    """Exact optimal online expected loss against K-1 honest experts.

    States are the honest-minus-adversary mistake-count differences, a grid
    of (2k+1)^(K-1) points at stage k (normalized weights are invariant to
    a common shift, which removes one dimension).  The honest experts are
    independent, so each action's expectation is one two-point average per
    honest expert i along its own axis: if i is right (probability mu_i) a
    lie lowers d_i and a truth keeps it; if i errs a lie keeps d_i and a
    truth raises it.  Guards: K <= 5, N <= 60 and at most 2,000,000 terminal
    states; weights that overflow double precision are a guard violation.
    """
    k_experts = params.n_experts
    n = params.horizon
    honest = k_experts - 1
    if k_experts > _K_EXPERT_MAX_K:
        raise GuardError(f"K={k_experts} exceeds the K <= {_K_EXPERT_MAX_K} guard")
    if n > _K_EXPERT_MAX_N:
        raise GuardError(f"N={n} exceeds the N <= {_K_EXPERT_MAX_N} guard")
    states = (2 * n + 1) ** honest
    if states > _K_EXPERT_MAX_STATES:
        raise GuardError(
            f"(2N+1)^(K-1) = {states} states exceeds the budget {_K_EXPERT_MAX_STATES}"
        )
    eps = params.epsilon
    w0 = params.initial_weights

    def along(a: np.ndarray, i: int, lo: int, size: int) -> np.ndarray:
        return a[(slice(None),) * i + (slice(lo, lo + size),)]

    v = np.zeros((2 * n + 1,) * honest)
    for k in range(n - 1, -1, -1):
        size = 2 * k + 1
        d = np.arange(-k, k + 1)
        axis_w = []
        for i in range(honest):
            shape = [1] * honest
            shape[i] = size
            with np.errstate(over="ignore"):  # an overflow is the guard violation below
                axis_w.append((w0[1 + i] * eps**d).reshape(shape))
        total_w = w0[0] + sum(axis_w)
        if not np.all(np.isfinite(total_w)):
            raise GuardError(f"epsilon={eps} and N={n}: weights overflow at stage {k}")
        wrong_w = sum((1.0 - mu) * a for mu, a in zip(params.accuracies, axis_w))
        cost_lie = (w0[0] + wrong_w) / total_w
        cost_truth = wrong_w / total_w
        ev_lie = ev_truth = v
        for i, mu in enumerate(params.accuracies):
            ev_lie = mu * along(ev_lie, i, 0, size) + (1.0 - mu) * along(ev_lie, i, 1, size)
            ev_truth = mu * along(ev_truth, i, 1, size) + (1.0 - mu) * along(ev_truth, i, 2, size)
        v = np.maximum(cost_lie + ev_lie, cost_truth + ev_truth)
    return float(v.reshape(-1)[0])


def clairvoyant_values(realized, params: KExpertParams) -> np.ndarray:
    """Optimal total loss of each realization in ``realized`` (trials x (K-1)
    x N, 1 marking a correct stage) when it is known in advance.

    With the honest side deterministic the only state is the adversary's own
    mistake count: one backward pass over all trials, O(N^2) per trial.
    """
    r = np.asarray(realized)
    honest = params.n_experts - 1
    n = params.horizon
    if r.ndim != 3 or r.shape[1:] != (honest, n):
        raise ValueError(f"realizations must have shape (trials, {honest}, {n}), got {r.shape}")
    if not np.all((r == 0) | (r == 1)):
        raise ValueError("realization entries must be 0 (wrong) or 1 (correct)")
    eps = params.epsilon
    w0 = np.array(params.initial_weights)
    wrong = 1 - r
    mistakes_before = np.cumsum(wrong, axis=2) - wrong
    honest_w = w0[1:, None] * eps ** mistakes_before.astype(float)  # (trials, honest, N)
    honest_total = honest_w.sum(axis=1)
    honest_wrong = (honest_w * wrong).sum(axis=1)
    v = np.zeros((r.shape[0], n + 1))  # over adversary mistake counts 0..n at stage n
    for k in range(n - 1, -1, -1):
        adv_w = w0[0] * eps ** np.arange(k + 1, dtype=float)
        total = adv_w + honest_total[:, k, None]
        if not np.all(total > 0.0):
            raise GuardError(f"epsilon={eps} and N={n}: all weights underflow to 0 at stage {k}")
        lie = (adv_w + honest_wrong[:, k, None]) / total + v[:, 1 : k + 2]
        truth = honest_wrong[:, k, None] / total + v[:, : k + 1]
        v = np.maximum(lie, truth)
    return v[:, 0]


def clairvoyant_value(realized_honest, params: KExpertParams) -> float:
    """Clairvoyant optimum of one realization, a (K-1) x N array with 1
    marking a correct stage (see :func:`clairvoyant_values`)."""
    return float(clairvoyant_values(np.asarray(realized_honest)[None], params)[0])


def monte_carlo_k_expert(params: KExpertParams, trials: int, seed: int) -> MCResult:
    """Clairvoyant Monte Carlo estimate of the K-expert adversarial loss:
    sample honest realizations and let the adversary optimize against each
    known sequence (an upper bound on the online value that
    :func:`solve_k_expert` computes exactly).  Deterministic given the seed.
    """
    trials = _positive_int("trials", trials)
    honest = params.n_experts - 1
    n = params.horizon
    mus = np.array(params.accuracies).reshape(1, honest, 1)
    rng = _philox(seed)
    # trial t's draws are row t of the seeded stream, drawn and solved in blocks
    losses = np.concatenate([
        clairvoyant_values((rng.random((rows, honest, n)) < mus).astype(int), params)
        for rows in (min(_TRIAL_CHUNK, trials - lo) for lo in range(0, trials, _TRIAL_CHUNK))
    ])
    return _mc_summary(losses, trials, seed)


def no_info_conditional_losses(q: float, rho: float, mu: float) -> tuple[float, float]:
    """Per-stage expected loss of predicting 0 with probability q, split by
    the (unknown) true outcome; q = 1/2 equalizes the two."""
    return (1.0 - mu + mu * rho - q * rho, 1.0 - mu + mu * rho - (1.0 - q) * rho)


def no_information_values(params: ModelParams) -> np.ndarray:
    """Expected loss of the coin-flip adversary (the optimum under no
    outcome information) over every horizon r = 0..N: per stage
    1 - mu + mu*rho - rho/2, taken under the exact offset distribution the
    coin flips induce."""
    if not params.is_absolute:
        raise ValueError("the no-information baseline is derived for the absolute loss")
    return mixed_policy_values(0.5, params)


def no_information_baseline(params: ModelParams) -> float:
    """Expected loss of the coin-flip adversary over the full horizon."""
    return float(no_information_values(params)[-1])
