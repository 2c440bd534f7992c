"""Self-contained verification suites behind the ``verify`` CLI scenario.

Each check returns a :class:`CheckResult` with the measured worst deviation
and the tolerance it was held to, so the report can show how much margin a
passing build actually has.  The oracles: brute-force path enumeration for
block-policy evaluation, :func:`expectimax_value`, which replays raw
weights without the offset lattice, for the online DPs, the two-expert DP
for the K-expert DP at K = 2, and
:func:`backward_clairvoyant_values`, one backward pass per horizon, for the
clairvoyant forward pass that reads every horizon off one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .core import ExpertState, ModelParams, mw_step, system_prediction
from .exact_eval import (
    berry_esseen_check,
    brute_force_value,
    log_telescoping_residuals,
    offline_optimum,
    policy_value,
    value_block_policy,
    value_false,
    value_true,
)
from .online_dp import (
    KExpertParams,
    _clairvoyant_forward,
    no_information_values,
    optimal_policy,
    optimal_values,
    solve_k_expert,
    solve_k_expert_values,
)
from .policies import OfflinePolicy, block_form, random_policy, ratio_policy

__all__ = ["CheckResult", "expectimax_value", "backward_clairvoyant_values", "run_all",
           "ALL_CHECKS"]

_EPS_DEFAULT = math.exp(-1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


def _worst_case(name: str, cases: Iterable[tuple[float, str]], tol: float) -> CheckResult:
    """Passes when no (deviation, label) case exceeds ``tol``; measures the
    largest deviation and names the first case that reaches it."""
    worst, detail = max(cases, key=lambda case: case[0])
    return CheckResult(name, bool(worst <= tol), worst, tol, detail)


def check_oracle_equivalence() -> CheckResult:
    """Block-policy evaluation against brute-force path enumeration:
    exhaustively at N=8 and on random policies up to N=12."""
    def deviation(pol: OfflinePolicy, params: ModelParams) -> float:
        return abs(value_block_policy(block_form(pol), params) - brute_force_value(pol, params))

    n = 8
    params = ModelParams(epsilon=_EPS_DEFAULT, mu=0.5, horizon=n)
    cases = []
    for code in range(1 << n):
        text = "".join("T" if (code >> k) & 1 else "F" for k in range(n))
        pol = OfflinePolicy(text)
        cases.append((deviation(pol, params), f"exhaustive N=8 policy {text}"))
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        mu = float(rng.choice([0.3, 0.5, 0.7]))
        params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
        pol = random_policy(n, float(rng.random()), int(rng.integers(1 << 31)))
        cases.append((deviation(pol, params), f"random N={n} mu={mu} policy {pol.text}"))
    return _worst_case("oracle-equivalence", cases, 1e-9)


def expectimax_value(kp: KExpertParams, loss: Callable[[float], float] | None) -> float:
    """Optimal online expected loss Q (``loss`` as in ModelParams) against
    K-1 honest experts by expectimax over raw weights: at every stage the
    adversary picks lie or truth, and the 2^(K-1) honest outcomes are
    averaged with their probabilities, each replayed with
    mw_step/system_prediction (outcome fixed to 1, which the relative
    encoding makes harmless).  The error is the weight share of the wrong
    experts; 1 minus the right side's share would cancel when that share
    is near 1.  Paths that reach the same raw weights share one
    evaluation."""
    mw = ModelParams(epsilon=kp.epsilon, mu=0.5, horizon=kp.horizon, rho0=0.5, loss=loss)
    outcomes = [
        (correct, math.prod(a if c else 1.0 - a for a, c in zip(kp.accuracies, correct)))
        for correct in product((0, 1), repeat=len(kp.accuracies))
    ]
    memo: dict[tuple[int, bytes], float] = {}

    def value(state: ExpertState, k: int) -> float:
        key = (k, state.weights.tobytes())
        if k == kp.horizon or key in memo:
            return memo.get(key, 0.0)
        best = -math.inf
        for adversary in (0, 1):  # 0 lies, 1 tells the truth
            total = 0.0
            for correct, prob in outcomes:
                predictions = [adversary, *correct]
                error = system_prediction(state, [1 - x for x in predictions])
                total += prob * (mw.q(error) + value(mw_step(state, predictions, 1, mw), k + 1))
            best = max(best, total)
        memo[key] = best
        return best

    return value(ExpertState(np.array(kp.initial_weights)), 0)


def check_online_oracle() -> CheckResult:
    """The online DPs against the raw-weight expectimax, which never touches
    the offset lattice: two-expert values and played-policy roots on a grid
    of (mu, rho0, epsilon, N), each (epsilon, N)'s (mu, rho0) problems also
    as the rows of one batched ``optimal_values`` pass, and the K-expert DP
    at K = 3."""

    def deviations(kp: KExpertParams, label: str, got: dict[str, float]) -> list:
        want = expectimax_value(kp, None)
        return [(abs(value - want) / want, f"{solver} {label}") for solver, value in got.items()]

    cases = []
    pairs = list(product((0.3, 0.5, 0.7), (0.2, 0.5)))
    for eps, n in product((_EPS_DEFAULT, 0.6), (1, 6, 12)):
        problems = [ModelParams(epsilon=eps, mu=mu, horizon=n, rho0=rho0) for mu, rho0 in pairs]
        for p, batched in zip(problems, optimal_values(problems)):
            kp = KExpertParams(epsilon=eps, horizon=n, accuracies=(p.mu,),
                               initial_weights=(p.rho0, 1.0 - p.rho0))
            cases += deviations(kp, f"mu={p.mu} rho0={p.rho0} eps={eps:.4g} N={n}", {
                "optimal_values": optimal_values(p)[-1],
                "batched optimal_values": batched[-1],
                "optimal_policy": optimal_policy(p).root_value,
            })
    kp = KExpertParams(epsilon=_EPS_DEFAULT, horizon=8, accuracies=(0.3, 0.7), initial_weights=(1.0,) * 3)
    cases += deviations(kp, "K=3 accuracies=(0.3, 0.7) N=8", {"solve_k_expert": solve_k_expert(kp)})
    return _worst_case("online-oracle", cases, 1e-12)


def check_k2_reduction() -> CheckResult:
    """The K-expert DP at K = 2, on raw weights w_i eps^d over the whole
    grid, against the two-expert DP on the closed-form rho_j, at every
    horizon 1..200.  At N = 200 the two-expert pass enters its saturated
    windows at eps = 1/e, 0.2 and 0.6, so this checks the window logic
    against a solve that has none."""
    cases = []
    for eps, mu, rho0 in product((_EPS_DEFAULT, 0.2, 0.6, 0.9), (0.1, 0.3, 0.5, 0.7, 0.93),
                                 (0.05, 0.2, 0.5, 0.9)):
        want = optimal_values(ModelParams(epsilon=eps, mu=mu, horizon=200, rho0=rho0))[1:]
        got = solve_k_expert_values(KExpertParams(eps, 200, (mu,), (rho0, 1.0 - rho0)))[1:]
        deviation = np.abs(got - want) / want
        r = int(np.argmax(deviation))
        cases.append((float(deviation[r]), f"mu={mu} rho0={rho0} eps={eps:.4g} N={r + 1}"))
    return _worst_case("k2-reduction", cases, 1e-13)


def backward_clairvoyant_values(realized: np.ndarray, kp: KExpertParams) -> np.ndarray:
    """Clairvoyant optimum of each realization (trials x (K-1) x N, 1 marking
    a correct stage) at horizon N alone, by backward induction over the
    adversary's mistake count: the same stage costs as the forward pass,
    summed from the last stage back."""
    wrong = 1.0 - np.asarray(realized, dtype=float)
    n, eps, w0 = kp.horizon, kp.epsilon, np.array(kp.initial_weights)
    honest_w = w0[1:, None] * eps ** (np.cumsum(wrong, axis=2) - wrong)
    honest_total = honest_w.sum(axis=1)
    honest_wrong = (honest_w * wrong).sum(axis=1)
    adv_w = w0[0] * eps ** np.arange(n, dtype=float)
    v = np.zeros((wrong.shape[0], n + 1))  # over adversary mistake counts 0..n at stage n
    for k in range(n - 1, -1, -1):
        total = adv_w[: k + 1] + honest_total[:, k, None]
        lie = (adv_w[: k + 1] + honest_wrong[:, k, None]) / total + v[:, 1 : k + 2]
        truth = honest_wrong[:, k, None] / total + v[:, : k + 1]
        v = np.maximum(lie, truth)
    return v[:, 0]


def check_clairvoyant_forward() -> CheckResult:
    """The clairvoyant forward pass, which reads every horizon off one pass,
    against one backward pass per horizon on 64 fixed seeded realizations
    of the ``multi-expert`` defaults' shape (K = 5, N = 40)."""
    kp = KExpertParams(epsilon=_EPS_DEFAULT, horizon=40, accuracies=(0.3, 0.5, 0.6, 0.7),
                       initial_weights=(1.0,) * 5)
    realized = np.random.default_rng(1729).random((64, 4, 40)) < np.array(kp.accuracies)[:, None]
    forward = _clairvoyant_forward(realized.transpose(0, 2, 1), kp)
    cases = []
    for n in range(1, kp.horizon + 1):
        want = backward_clairvoyant_values(realized[:, :, :n], replace(kp, horizon=n))
        deviation = np.abs(forward[:, n] - want) / want
        t = int(np.argmax(deviation))
        cases.append((float(deviation[t]), f"N={n} trial {t}"))
    return _worst_case("clairvoyant-forward", cases, 1e-12)


def check_residual_inequalities() -> CheckResult:
    """Sandwich inequalities of the log-telescoping residuals on a grid."""
    cases = []
    for a in (0.1, 1.0, 10.0):
        for r in np.arange(0.0, 50.0 + 1e-9, 0.25):
            eps_r, delta_r, eps_b, delta_b = log_telescoping_residuals(float(r), a)
            cases.append((max(eps_r, eps_b - eps_r, -delta_r, delta_r - delta_b), f"r={r} a={a}"))
    return _worst_case("residual-inequalities", cases, 1e-12)


def check_normal_approx_decay() -> CheckResult:
    """The normal-CDF approximation error of E[1/(1+e^{X-Y})] times sigma
    stays below one pinned constant and shrinks as the scale grows."""
    scaled = []
    for n in (10, 40, 160):
        _, _, err, sigma = berry_esseen_check(n, n, 0.3)
        scaled.append(err * sigma)
    worst = max(scaled)
    decaying = scaled[0] >= scaled[1] >= scaled[2]
    tol = 0.2  # pinned; measured max is ~0.097 at n=m=10
    return CheckResult(
        "normal-approx-decay",
        worst <= tol and decaying,
        worst,
        tol,
        f"err*sigma={['%.3e' % s for s in scaled]} decaying={decaying}",
    )


def check_dominance_chain() -> CheckResult:
    """online optimum >= offline optimum (a longest path over (stage, lies
    so far)) >= {ratio, false} >= no-information >= all-truths, at every
    tested instance."""
    cases = []
    for mu in (0.3, 0.5, 0.7):
        for n in (8, 12):
            params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
            v_on = optimal_values(params)[-1]
            _, v_off = offline_optimum(params)
            v_ratio = policy_value(ratio_policy(params), params)
            v_false = value_false(n, params.rho0, params)
            v_ni = no_information_values(params)[-1]
            v_true = value_true(n, params.rho0, params)
            links = {
                "online>=offline": v_off - v_on,
                "offline>=ratio": v_ratio - v_off,
                "offline>=false": v_false - v_off,
                "ratio>=noinfo": v_ni - v_ratio,
                "false>=noinfo": v_ni - v_false,
                "noinfo>=true": v_true - v_ni,
            }
            cases += [(gap, f"mu={mu} N={n} {link}") for link, gap in links.items()]
    return _worst_case("dominance-chain", cases, 1e-9)


def check_bounds_sandwich() -> CheckResult:
    """(1 - mu) < V*/N <= (1 - mu^2) + 0.05 at N = 500."""
    worst = -math.inf
    detail = ""
    n = 500
    for mu in (0.3, 0.5, 0.7):
        params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
        per_stage = optimal_values(params)[-1] / n
        violation = max((1.0 - mu) - per_stage, per_stage - ((1.0 - mu * mu) + 0.05))
        if violation > worst:
            worst, detail = violation, f"mu={mu} V*/N={per_stage:.6f}"
    tol = 0.0
    return CheckResult("bounds-sandwich", bool(worst < tol), worst, tol, detail)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_oracle_equivalence,
    check_online_oracle,
    check_k2_reduction,
    check_clairvoyant_forward,
    check_residual_inequalities,
    check_normal_approx_decay,
    check_dominance_chain,
    check_bounds_sandwich,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
