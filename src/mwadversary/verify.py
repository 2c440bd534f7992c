"""Self-contained verification suites behind the ``verify`` CLI scenario.

Each check returns a :class:`CheckResult` with the measured worst deviation
and the tolerance it was held to, so the report can show how much margin a
passing build actually has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ModelParams
from .exact_eval import (
    berry_esseen_check,
    brute_force_value,
    exhaustive_offline_optimum,
    log_telescoping_residuals,
    policy_value,
    value_block_policy,
    value_false,
    value_true,
)
from .online_dp import no_information_baseline, optimal_value, solve_two_expert
from .policies import OfflinePolicy, block_form, random_policy, ratio_policy

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]

_EPS_DEFAULT = math.exp(-1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


def check_oracle_equivalence(evaluator: Callable | None = None) -> CheckResult:
    """Block-policy evaluation against brute-force path enumeration:
    exhaustively at N=8 and on random policies up to N=12."""
    evaluate = evaluator or (lambda pol, params: value_block_policy(block_form(pol), params))
    worst = 0.0
    detail = ""
    n = 8
    params = ModelParams(epsilon=_EPS_DEFAULT, mu=0.5, horizon=n)
    for code in range(1 << n):
        text = "".join("T" if (code >> k) & 1 else "F" for k in range(n))
        pol = OfflinePolicy.from_text(text)
        dev = abs(evaluate(pol, params) - brute_force_value(pol, params))
        if dev > worst:
            worst, detail = dev, f"exhaustive N=8 policy {text}"
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        mu = float(rng.choice([0.3, 0.5, 0.7]))
        params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
        pol = random_policy(n, float(rng.random()), int(rng.integers(1 << 31)))
        dev = abs(evaluate(pol, params) - brute_force_value(pol, params))
        if dev > worst:
            worst, detail = dev, f"random N={n} mu={mu} policy {pol.to_text()}"
    tol = 1e-9
    return CheckResult("oracle-equivalence", worst <= tol, worst, tol, detail)


def check_bellman_consistency() -> CheckResult:
    """Re-derive every interior state of the two-expert table from its own
    successors and compare."""
    from .core import weight_power

    worst = 0.0
    detail = ""
    for mu in (0.3, 0.5, 0.7):
        params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=30)
        table = solve_two_expert(params)
        for k in range(params.horizon):
            for j in range(-k, k + 1):
                rho = weight_power(j, params.rho0, params)
                lie = (
                    1.0 - mu + mu * rho
                    + mu * table.value(k + 1, j + 1)
                    + (1.0 - mu) * table.value(k + 1, j)
                )
                truth = (
                    (1.0 - mu) * (1.0 - rho)
                    + (1.0 - mu) * table.value(k + 1, j - 1)
                    + mu * table.value(k + 1, j)
                )
                dev = abs(table.value(k, j) - max(lie, truth))
                if dev > worst:
                    worst, detail = dev, f"mu={mu} state (k={k}, j={j})"
    tol = 1e-12
    return CheckResult("bellman-consistency", worst <= tol, worst, tol, detail)


def check_residual_inequalities() -> CheckResult:
    """Sandwich inequalities of the log-telescoping residuals on a grid."""
    worst = -math.inf
    detail = ""
    for a in (0.1, 1.0, 10.0):
        for r in np.arange(0.0, 50.0 + 1e-9, 0.25):
            eps_r, delta_r, eps_b, delta_b = log_telescoping_residuals(float(r), a)
            violation = max(eps_r, eps_b - eps_r, -delta_r, delta_r - delta_b)
            if violation > worst:
                worst, detail = violation, f"r={r} a={a}"
    tol = 1e-12
    return CheckResult("residual-inequalities", worst <= tol, worst, tol, detail)


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
    """online optimum >= offline optimum >= {ratio, false} >= no-information
    >= all-truths, at every tested instance."""
    worst = -math.inf
    detail = ""
    for mu in (0.3, 0.5, 0.7):
        for n in (8, 12):
            params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
            v_on = optimal_value(params)
            _, v_off = exhaustive_offline_optimum(params)
            v_ratio = policy_value(ratio_policy(params), params)
            v_false = value_false(n, params.rho0, params)
            v_ni = no_information_baseline(params)
            v_true = value_true(n, params.rho0, params)
            links = {
                "online>=offline": v_off - v_on,
                "offline>=ratio": v_ratio - v_off,
                "offline>=false": v_false - v_off,
                "ratio>=noinfo": v_ni - v_ratio,
                "false>=noinfo": v_ni - v_false,
                "noinfo>=true": v_true - v_ni,
            }
            for link, gap in links.items():
                if gap > worst:
                    worst, detail = gap, f"mu={mu} N={n} {link}"
    tol = 1e-9
    return CheckResult("dominance-chain", worst <= tol, worst, tol, detail)


def check_bounds_sandwich() -> CheckResult:
    """(1 - mu) < V*/N <= (1 - mu^2) + 0.05 at N = 500."""
    worst = -math.inf
    detail = ""
    n = 500
    for mu in (0.3, 0.5, 0.7):
        params = ModelParams(epsilon=_EPS_DEFAULT, mu=mu, horizon=n)
        per_stage = optimal_value(params) / n
        violation = max((1.0 - mu) - per_stage, per_stage - ((1.0 - mu * mu) + 0.05))
        if violation > worst:
            worst, detail = violation, f"mu={mu} V*/N={per_stage:.6f}"
    tol = 0.0
    return CheckResult("bounds-sandwich", worst < tol, worst, tol, detail)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_oracle_equivalence,
    check_bellman_consistency,
    check_residual_inequalities,
    check_normal_approx_decay,
    check_dominance_chain,
    check_bounds_sandwich,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
