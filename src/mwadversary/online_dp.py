"""Optimal online adversaries by backward induction.

The two-expert solver works on the reduced integer-offset state space: after
k stages the adversary's relative weight can only sit at one of 2k+1 offsets
from the start, so the full horizon needs O(N^2) state evaluations.  State
(k, j) of a horizon-N solve is the start of a horizon N-k problem shifted by
offset j, so the values-only pass keeps one stage in O(N) memory and reads
the optimum of every horizon 0..N off offset 0 as it goes; a policy to be
played keeps one bit (its action) per state, and the full table of values,
actions and ties is the small-N oracle.  The module also contains the exact
K-expert generalization on a mistake-count grid, a per-realization
clairvoyant solver with its Monte Carlo harness, and the baseline of an
adversary with no outcome information.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import GuardError, ModelParams, weight_power
from .exact_eval import _stage_costs, mixed_policy_values
from .policies import Decision

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
    "monte_carlo_k_expert",
    "no_information_baseline",
    "no_information_values",
    "no_info_conditional_losses",
]

_TIE_TOL = 1e-12
_TRIAL_CHUNK = 250  # trials per block of draws in simulate_online
_K_EXPERT_MAX_K = 5
_K_EXPERT_MAX_N = 60
_K_EXPERT_MAX_STATES = 2_000_000


@dataclass(eq=False)
class ValueTable:
    """Backward-induction output for the two-expert model.

    ``values[k]`` holds the optimal continuation loss at stage k for offsets
    j = -k..k (index j + k); ``lie_optimal[k]`` the maximizing action with
    ties resolved toward lying, and ``tie_flags[k]`` marks where both
    actions are optimal to within tolerance.  ``states_evaluated`` counts
    state evaluations (exactly the sum of 2k+1 over the solved stages).
    """

    params: ModelParams
    values: list[np.ndarray]
    lie_optimal: list[np.ndarray]
    tie_flags: list[np.ndarray]
    states_evaluated: int

    @property
    def horizon(self) -> int:
        return self.params.horizon

    @property
    def root_value(self) -> float:
        return float(self.values[0][0])

    def value(self, k: int, j: int) -> float:
        self._check_state(k, j)
        return float(self.values[k][j + k])

    def action(self, k: int, j: int) -> Decision:
        self._check_state(k, j, action=True)
        return Decision.LIE if self.lie_optimal[k][j + k] else Decision.TRUTH

    def is_tie(self, k: int, j: int) -> bool:
        self._check_state(k, j, action=True)
        return bool(self.tie_flags[k][j + k])

    def _check_state(self, k: int, j: int, action: bool = False) -> None:
        top = self.horizon - 1 if action else self.horizon
        if not 0 <= k <= top:
            raise ValueError(f"stage {k} out of range")
        if abs(j) > k:
            raise ValueError(f"offset {j} unreachable at stage {k}")


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
    memory): for k = N-1..0, stage k's optimal values and lie/truth values."""
    if not params.is_absolute:
        raise ValueError("the online recursion is derived for the absolute loss only")
    n = params.horizon
    lie_costs, truth_costs = _stage_costs(params)
    v = np.zeros(2 * n + 1)
    for k in range(n - 1, -1, -1):
        window = slice(n - k, n + k + 1)
        lie, truth = _bellman_step(v, lie_costs[window], truth_costs[window], params.mu)
        v = np.maximum(lie, truth)
        yield k, v, lie, truth


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
    return ValueTable(params, values, lie_optimal, tie_flags, states)


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
    """The optimal online adversary as played: root value and per-state actions."""

    params: ModelParams
    root_value: float
    lie_optimal: Sequence[np.ndarray]


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
    """Monte Carlo summary, bit-reproducible from (seed, trials, params)."""

    trials: int
    mean: float
    stderr: float
    seed: int
    per_trial: np.ndarray | None = field(default=None, compare=False, repr=False)


def _philox(seed: int) -> np.random.Generator:
    # counter-based generator: trial t's draws are row t of one keyed block,
    # so results do not depend on evaluation order and rows can be farmed out
    return np.random.Generator(np.random.Philox(key=seed))


def _mc_summary(losses: np.ndarray, trials: int, seed: int) -> MCResult:
    sd = float(losses.std(ddof=1)) if trials > 1 else 0.0
    return MCResult(trials, float(losses.mean()), sd / math.sqrt(trials), seed, losses)


def simulate_online(
    params: ModelParams, policy: ValueTable | OnlinePolicy, trials: int, seed: int
) -> MCResult:
    """Play the policy's actions through ``trials`` independent episodes with
    honest predictions drawn i.i.d. at accuracy mu; the empirical mean loss
    converges to the policy's root value."""
    if policy.params != params:
        raise ValueError("policy was solved for different parameters")
    if trials < 1:
        raise ValueError("trials must be positive")
    n = params.horizon
    rng = _philox(seed)
    # trial t's draws are row t of the seeded stream, stored stage-major
    correct = np.empty((n, trials), dtype=bool)
    for block in np.split(correct, range(_TRIAL_CHUNK, trials, _TRIAL_CHUNK), axis=1):
        block[:] = (rng.random(block.shape[::-1]) < params.mu).T
    rho_all = weight_power(np.arange(-n, n + 1), params.rho0, params)
    truth_all = 1.0 - rho_all
    i = np.full(trials, n, dtype=np.int64)  # offset j + n of every trial
    loss = np.zeros(trials)
    for k, c in enumerate(correct):
        lie = policy.lie_optimal[k][i - (n - k)]
        loss += np.where(lie, np.where(c, rho_all[i], 1.0), np.where(c, 0.0, truth_all[i]))
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
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))
        if len(self.accuracies) < 1:
            raise ValueError("need at least one honest expert")
        if any(not 0.0 < a < 1.0 for a in self.accuracies):
            raise ValueError("every accuracy must be strictly inside (0, 1)")
        if len(self.initial_weights) != len(self.accuracies) + 1:
            raise ValueError(
                "initial_weights must list the adversary first, then every honest expert"
            )
        if any(w <= 0.0 for w in self.initial_weights):
            raise ValueError("initial weights must be strictly positive")

    @property
    def n_experts(self) -> int:
        return len(self.initial_weights)

    @property
    def adversary_relative_weight(self) -> float:
        return self.initial_weights[0] / sum(self.initial_weights)


def solve_k_expert(params: KExpertParams, max_states: int = _K_EXPERT_MAX_STATES) -> float:
    """Exact optimal online expected loss against K-1 honest experts.

    States are the honest-minus-adversary mistake-count differences, a grid
    of (2k+1)^(K-1) points at stage k (normalized weights are invariant to
    a common shift, which removes one dimension); every stage enumerates the
    2^(K-1) honest outcome combinations.  ``max_states`` guards the terminal
    grid size on top of the K <= 5, N <= 60 limits.
    """
    k_experts = params.n_experts
    n = params.horizon
    honest = k_experts - 1
    if k_experts > _K_EXPERT_MAX_K:
        raise GuardError(f"K={k_experts} exceeds the K <= {_K_EXPERT_MAX_K} guard")
    if n > _K_EXPERT_MAX_N:
        raise GuardError(f"N={n} exceeds the N <= {_K_EXPERT_MAX_N} guard")
    if (2 * n + 1) ** honest > max_states:
        raise GuardError(
            f"(2N+1)^(K-1) = {(2 * n + 1) ** honest} states exceeds the budget {max_states}"
        )
    eps = params.epsilon
    mus = np.array(params.accuracies)
    w0 = np.array(params.initial_weights)
    combos = []
    for outcome in itertools.product((0, 1), repeat=honest):
        s = np.array(outcome)
        prob = float(np.prod(np.where(s == 1, mus, 1.0 - mus)))
        combos.append((s, prob))

    v = np.zeros((2 * n + 1,) * honest)
    for k in range(n - 1, -1, -1):
        size = 2 * k + 1
        d = np.arange(-k, k + 1)
        axis_w = []
        for i in range(honest):
            shape = [1] * honest
            shape[i] = size
            axis_w.append((w0[1 + i] * eps**d).reshape(shape))
        total_w = w0[0] + sum(np.broadcast_to(a, (size,) * honest) for a in axis_w)
        wrong_w = sum(
            (1.0 - mus[i]) * np.broadcast_to(axis_w[i], (size,) * honest)
            for i in range(honest)
        )
        cost_lie = (w0[0] + wrong_w) / total_w
        cost_truth = wrong_w / total_w
        ev_lie = np.zeros((size,) * honest)
        ev_truth = np.zeros((size,) * honest)
        for s, prob in combos:
            # lying shifts d_i down when honest i is correct; telling the
            # truth shifts d_i up when honest i is wrong
            sl_lie = tuple(slice(1 - s[i], 1 - s[i] + size) for i in range(honest))
            sl_truth = tuple(slice(2 - s[i], 2 - s[i] + size) for i in range(honest))
            ev_lie += prob * v[sl_lie]
            ev_truth += prob * v[sl_truth]
        v = np.maximum(cost_lie + ev_lie, cost_truth + ev_truth)
    return float(v.reshape(-1)[0])


def clairvoyant_value(realized_honest, params: KExpertParams) -> float:
    """Optimal total loss when the honest experts' realized correctness
    sequence is known in advance.

    With the honest side deterministic the only state is the adversary's own
    mistake count, so a lie/truth decision per stage solves in O(N^2).
    ``realized_honest`` is a (K-1) x N array with 1 marking a correct stage.
    """
    r = np.asarray(realized_honest)
    honest = params.n_experts - 1
    n = params.horizon
    if r.shape != (honest, n):
        raise ValueError(f"realization must have shape {(honest, n)}, got {r.shape}")
    if not np.all((r == 0) | (r == 1)):
        raise ValueError("realization entries must be 0 (wrong) or 1 (correct)")
    eps = params.epsilon
    w0 = np.array(params.initial_weights)
    mistakes = np.cumsum(1 - r, axis=1)
    mistakes_before = np.column_stack([np.zeros(honest, dtype=int), mistakes[:, :-1]])
    honest_w = w0[1:, None] * eps ** mistakes_before.astype(float)  # (honest, N)
    honest_total = honest_w.sum(axis=0)
    honest_wrong = (honest_w * (1 - r)).sum(axis=0)
    v = np.zeros(n + 1)  # over adversary mistake counts 0..n at stage n
    for k in range(n - 1, -1, -1):
        adv_w = w0[0] * eps ** np.arange(k + 1, dtype=float)
        total = adv_w + honest_total[k]
        lie = (adv_w + honest_wrong[k]) / total + v[1 : k + 2]
        truth = honest_wrong[k] / total + v[: k + 1]
        v = np.maximum(lie, truth)
    return float(v[0])


def monte_carlo_k_expert(
    params: KExpertParams, trials: int, seed: int, mode: str = "clairvoyant"
) -> MCResult:
    """Estimate the K-expert adversarial loss.

    ``clairvoyant`` samples honest realizations and lets the adversary
    optimize against each known sequence (an upper bound on the online
    value); ``exact_dp`` wraps the exact online solver with stderr 0, no
    sampling.  Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if mode == "exact_dp":
        return MCResult(trials, solve_k_expert(params), 0.0, seed, None)
    if mode != "clairvoyant":
        raise ValueError(f"mode must be 'clairvoyant' or 'exact_dp', got {mode!r}")
    honest = params.n_experts - 1
    n = params.horizon
    mus = np.array(params.accuracies).reshape(1, honest, 1)
    draws = _philox(seed).random((trials, honest, n)) < mus
    losses = np.array(
        [clairvoyant_value(draws[t].astype(int), params) for t in range(trials)]
    )
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
