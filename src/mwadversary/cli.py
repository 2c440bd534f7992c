"""Command-line front end: experiment pipelines, sweeps, and verification.

Scenarios
---------
eval-offline   evaluate named or explicit offline policies in closed form
solve-online   solve the optimal online adversary (optionally simulate it)
compare        policy-comparison sweep (false/true/ratio/offline-opt/online
               plus the no-adversary and no-information baselines) to CSV
multi-expert   one adversary against several honest experts vs the reduced
               two-expert model, Monte Carlo and exact columns
verify         run the built-in verification suites and report pass/fail

Configuration is a flat INI-style ``key = value`` file; every key can be
overridden by a command-line flag of the same name.  Exit codes: 0 success,
1 verification failure, 2 invalid configuration, 3 guard violation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import GuardError, ModelParams
from .exact_eval import (
    exhaustive_offline_optimum,
    policy_value,
    two_honest_values,
    value_false,
    value_true,
)
from .online_dp import (
    KExpertParams,
    monte_carlo_k_expert,
    no_information_values,
    optimal_values,
    simulate_online,
    solve_k_expert,
    solve_two_expert,
)
from .output import fmt, write_csv, write_svg
from .policies import (
    OfflinePolicy,
    block_form,
    false_policy,
    random_policy,
    ratio_policy,
    true_policy,
)
from .verify import run_all

SCENARIOS = ("eval-offline", "solve-online", "compare", "multi-expert", "verify")

_DEFAULTS: dict[str, dict[str, str]] = {
    "eval-offline": {
        "N": "50",
        "mu": "0.5",
        "rho0": "0.5",
        "policy": "false,true,ratio",
        "q": "0.5",
        "out": "eval_offline.csv",
    },
    "solve-online": {
        "N": "100",
        "mu": "0.5",
        "rho0": "0.5",
        "trials": "0",
        "out": "solve_online.csv",
    },
    "compare": {
        "N": ",".join(str(n) for n in range(10, 201, 10)),
        "mu": "0.5",
        "rho0": "0.5",
        "offline_opt_max_n": "14",
        "out": "compare.csv",
    },
    "multi-expert": {
        "N": "5,10,15,20,25,30,35,40",
        "accuracies": "0.5,0.5,0.5,0.5",
        "weights": "1,1,1,1,1",
        "trials": "100",
        "exact_dp_max_n": "12",
        "out": "multi_expert.csv",
    },
    "verify": {"out": ""},
}

_COMMON = {
    "epsilon": repr(math.exp(-1.0)),
    "seed": "1729",
    "svg": "false",
    "max_denominator": "20",
}

_KNOWN_KEYS = {
    "N", "mu", "rho0", "epsilon", "trials", "seed", "out", "svg", "policy",
    "q", "accuracies", "weights", "offline_opt_max_n", "exact_dp_max_n",
    "max_denominator",
}


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#") or text.startswith(";"):
            continue
        if text.startswith("[") and text.endswith("]"):
            continue  # tolerate section headers
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def _ints(text: str, key: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma list of integers, got {text!r}") from exc


def _floats(text: str, key: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma list of numbers, got {text!r}") from exc


def _bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"{key} must be a boolean, got {text!r}")


@dataclass
class ExperimentConfig:
    """Resolved configuration for one scenario run."""

    scenario: str
    horizons: list[int]
    mus: list[float]
    rho0s: list[float]
    epsilon: float
    trials: int
    seed: int
    out: str
    svg: bool
    policies: list[str]
    q: float
    accuracies: list[float]
    weights: list[float]
    offline_opt_max_n: int
    exact_dp_max_n: int
    max_denominator: int
    resolved: dict[str, str] = field(default_factory=dict)

    @property
    def mu_rho_pairs(self) -> list[tuple[float, float]]:
        mus, rhos = self.mus, self.rho0s
        if len(mus) == 1 and len(rhos) > 1:
            mus = mus * len(rhos)
        if len(rhos) == 1 and len(mus) > 1:
            rhos = rhos * len(mus)
        if len(mus) != len(rhos):
            raise ConfigError("mu and rho0 lists must pair up (equal length or length 1)")
        return list(zip(mus, rhos))


def resolve_config(scenario: str, file_values: dict[str, str], cli_values: dict[str, str]) -> ExperimentConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    merged = dict(_COMMON)
    merged.update(_DEFAULTS[scenario])
    merged.update(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})

    cfg = ExperimentConfig(
        scenario=scenario,
        horizons=_ints(merged.get("N", "0"), "N"),
        mus=_floats(merged.get("mu", "0.5"), "mu"),
        rho0s=_floats(merged.get("rho0", "0.5"), "rho0"),
        epsilon=_floats(merged.get("epsilon"), "epsilon")[0],
        trials=_ints(merged.get("trials", "0") or "0", "trials")[0],
        seed=_ints(merged.get("seed"), "seed")[0],
        out=merged.get("out", ""),
        svg=_bool(merged.get("svg", "false"), "svg"),
        policies=[p.strip() for p in merged.get("policy", "").split(",") if p.strip()],
        q=_floats(merged.get("q", "0.5"), "q")[0],
        accuracies=_floats(merged.get("accuracies", "0.5"), "accuracies"),
        weights=_floats(merged.get("weights", "1,1"), "weights"),
        offline_opt_max_n=_ints(merged.get("offline_opt_max_n", "14"), "offline_opt_max_n")[0],
        exact_dp_max_n=_ints(merged.get("exact_dp_max_n", "12"), "exact_dp_max_n")[0],
        max_denominator=_ints(merged.get("max_denominator", "20"), "max_denominator")[0],
        # out/svg route the results but do not affect them; keeping them out
        # of the hash lets identical experiments match across destinations
        resolved={k: merged[k] for k in sorted(merged) if k not in ("out", "svg")},
    )
    if scenario != "verify" and not cfg.out:
        raise ConfigError("an output path is required (out=... or --out)")
    if "N" in _DEFAULTS[scenario] and not cfg.horizons:
        raise ConfigError("N must list at least one horizon")
    if cfg.trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
    if scenario == "multi-expert" and cfg.trials < 1:
        raise ConfigError(f"multi-expert needs trials >= 1, got {cfg.trials}")
    return cfg


def _svg_path(out: str, suffix: str) -> str:
    stem = out[: -len(".csv")] if out.endswith(".csv") else out
    return f"{stem}{suffix}.svg"


def _params(cfg: ExperimentConfig, mu: float, rho0: float, n: int) -> ModelParams:
    try:
        return ModelParams(epsilon=cfg.epsilon, mu=mu, horizon=n, rho0=rho0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_policy(name: str, n: int, params: ModelParams, cfg: ExperimentConfig) -> OfflinePolicy:
    if name == "false":
        return false_policy(n)
    if name == "true":
        return true_policy(n)
    if name == "ratio":
        return ratio_policy(params, max_denominator=cfg.max_denominator)
    if name == "random":
        return random_policy(n, cfg.q, cfg.seed)
    if set(name) <= {"F", "T"}:
        pol = OfflinePolicy.from_text(name)
        if pol.horizon != n:
            raise ConfigError(
                f"explicit policy has {pol.horizon} stages but N={n}; they must match"
            )
        return pol
    raise ConfigError(f"unknown policy {name!r} (use false/true/ratio/random or an F/T string)")


def run_eval_offline(cfg: ExperimentConfig) -> int:
    header = ["N", "mu", "rho0", "epsilon", "policy_name", "policy", "value"]
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            for name in cfg.policies or ["false"]:
                pol = _build_policy(name, n, params, cfg)
                label = name if name in ("false", "true", "ratio", "random") else "explicit"
                rows.append([n, mu, rho0, cfg.epsilon, label, pol.to_text(), policy_value(pol, params)])
    write_csv(cfg.out, header, rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        for mu, rho0 in cfg.mu_rho_pairs:
            series = []
            for name in cfg.policies or ["false"]:
                label = name if name in ("false", "true", "ratio", "random") else "explicit"
                pts = [(r[0], r[6]) for r in rows if r[1] == mu and r[2] == rho0 and r[4] == label]
                if pts:
                    series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
            path = _svg_path(cfg.out, f"_mu{mu:g}_rho{rho0:g}")
            write_svg(path, series, f"offline policy loss (mu={mu:g}, rho0={rho0:g})",
                      "stages N", "expected loss")
            print(f"wrote {path}")
    return 0


def run_solve_online(cfg: ExperimentConfig) -> int:
    header = ["N", "mu", "rho0", "epsilon", "v_online", "sim_mean", "sim_stderr", "trials"]
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            table = solve_two_expert(params)
            sim_mean = sim_err = None
            if cfg.trials > 0:
                res = simulate_online(params, table, cfg.trials, cfg.seed)
                sim_mean, sim_err = res.mean, res.stderr
            rows.append([n, mu, rho0, cfg.epsilon, table.root_value, sim_mean, sim_err,
                         cfg.trials or None])
    write_csv(cfg.out, header, rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        for mu, rho0 in cfg.mu_rho_pairs:
            pts = [(r[0], r[4]) for r in rows if r[1] == mu and r[2] == rho0]
            path = _svg_path(cfg.out, f"_mu{mu:g}_rho{rho0:g}")
            write_svg(path, [("online optimum", [p[0] for p in pts], [p[1] for p in pts])],
                      f"optimal online loss (mu={mu:g}, rho0={rho0:g})", "stages N",
                      "expected loss")
            print(f"wrote {path}")
    return 0


_COMPARE_HEADER = [
    "N", "mu", "rho0", "epsilon", "v_false", "v_true", "v_ratio",
    "v_offline_opt", "v_online", "v_no_adversary", "v_no_info",
]


def run_compare(cfg: ExperimentConfig) -> int:
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        # one backward and two forward passes at the group's largest horizon
        # hold the online value and both baselines of every smaller one
        longest = _params(cfg, mu, rho0, max(cfg.horizons))
        online = optimal_values(longest)
        no_adversary = two_honest_values(longest)
        no_info = no_information_values(longest)
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            v_f = value_false(n, rho0, params)
            v_t = value_true(n, rho0, params)
            v_ratio = v_opt = None
            if n >= 2:
                v_ratio = policy_value(
                    ratio_policy(params, max_denominator=cfg.max_denominator), params
                )
            if n <= cfg.offline_opt_max_n:
                try:
                    _, v_opt = exhaustive_offline_optimum(params)
                except GuardError as exc:
                    print(f"N={n}: offline optimum skipped ({exc})", file=sys.stderr)
            v_on = float(online[n])
            lower = max(v for v in (v_f, v_ratio, v_opt) if v is not None)
            if v_on < lower - 1e-9:
                raise RuntimeError(
                    f"invariant violated at N={n}, mu={mu}: online {v_on} < offline {lower}"
                )
            rows.append([n, mu, rho0, cfg.epsilon, v_f, v_t, v_ratio, v_opt, v_on,
                         float(no_adversary[n]), float(no_info[n])])
    write_csv(cfg.out, _COMPARE_HEADER, rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        labels = dict(zip(_COMPARE_HEADER[4:], range(4, 11)))
        for mu, rho0 in cfg.mu_rho_pairs:
            group = [r for r in rows if r[1] == mu and r[2] == rho0]
            ns = [r[0] for r in group]
            series = [
                (name, ns, [r[col] for r in group])
                for name, col in labels.items()
                if any(r[col] is not None for r in group)
            ]
            path = _svg_path(cfg.out, f"_mu{mu:g}_rho{rho0:g}")
            write_svg(path, series, f"policy comparison (mu={mu:g}, rho0={rho0:g})",
                      "stages N", "expected loss")
            print(f"wrote {path}")
    return 0


def _k_params(cfg: ExperimentConfig, n: int) -> KExpertParams:
    try:
        return KExpertParams(
            epsilon=cfg.epsilon, horizon=n, accuracies=tuple(cfg.accuracies),
            initial_weights=tuple(cfg.weights),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_multi_expert(cfg: ExperimentConfig) -> int:
    if len(cfg.weights) != len(cfg.accuracies) + 1:
        raise ConfigError(
            "weights must list the adversary first and then one weight per honest expert"
        )
    header = ["N", "epsilon", "rho_adv", "mu_mean", "v_two_expert", "v_k_clairvoyant",
              "v_k_clairvoyant_stderr", "v_k_exact_dp", "trials", "k_experts", "accuracies"]
    mu_mean = float(np.mean(cfg.accuracies))
    acc_text = ";".join(fmt(a) for a in cfg.accuracies)
    longest = max(cfg.horizons)
    rho_adv = _k_params(cfg, longest).adversary_relative_weight
    # one backward pass at the largest horizon holds the reduced model's
    # online value of every smaller one
    two_expert = optimal_values(_params(cfg, mu_mean, rho_adv, longest))
    rows = []
    for n in cfg.horizons:
        kparams = _k_params(cfg, n)
        v2 = float(two_expert[n])
        mc = monte_carlo_k_expert(kparams, cfg.trials, cfg.seed, mode="clairvoyant")
        # horizons above exact_dp_max_n leave the exact column blank; raising
        # the knob past the solver guards is a hard guard violation (exit 3)
        v_exact = solve_k_expert(kparams) if n <= cfg.exact_dp_max_n else None
        rows.append([n, cfg.epsilon, rho_adv, mu_mean, v2, mc.mean, mc.stderr, v_exact,
                     cfg.trials, kparams.n_experts, acc_text])
    write_csv(cfg.out, header, rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        ns = [r[0] for r in rows]
        series = [
            ("two-expert online", ns, [r[4] for r in rows]),
            ("k-expert clairvoyant MC", ns, [r[5] for r in rows]),
        ]
        if any(r[7] is not None for r in rows):
            series.append(("k-expert exact DP", ns, [r[7] for r in rows]))
        path = _svg_path(cfg.out, "")
        write_svg(path, series, "multi-expert vs reduced two-expert model",
                  "stages N", "expected loss")
        print(f"wrote {path}")
    return 0


def run_verify(cfg: ExperimentConfig) -> int:
    started = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - started
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: measured={res.measured:.6g} "
              f"tolerance={res.tolerance:.6g} ({res.detail})")
    failures = [r for r in results if not r.passed]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed in {elapsed:.1f}s")
    if elapsed > 300:
        print("warning: verification exceeded the 5-minute budget", file=sys.stderr)
    if cfg.out:
        rows = [[r.name, r.passed, r.measured, r.tolerance, r.detail] for r in results]
        write_csv(cfg.out, ["check", "passed", "measured", "tolerance", "detail"],
                  rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
        print(f"wrote {cfg.out}")
    return 1 if failures else 0


_RUNNERS = {
    "eval-offline": run_eval_offline,
    "solve-online": run_solve_online,
    "compare": run_compare,
    "multi-expert": run_multi_expert,
    "verify": run_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwadversary",
        description="adversarial-loss experiments for a multiplicative-weights forecaster",
    )
    parser.add_argument("--version", action="version", version=f"mwadversary {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for scenario in SCENARIOS:
        sp = sub.add_parser(scenario)
        sp.add_argument("--config", help="INI-style key=value file")
        sp.add_argument("--N", help="comma list of horizons")
        sp.add_argument("--mu", help="honest accuracy (comma list pairs with rho0)")
        sp.add_argument("--rho0", help="adversary initial relative weight")
        sp.add_argument("--epsilon", help="multiplicative penalty in (0,1)")
        sp.add_argument("--trials", help="Monte Carlo trials")
        sp.add_argument("--seed", help="root RNG seed")
        sp.add_argument("--out", help="output CSV path")
        sp.add_argument("--svg", nargs="?", const="true", help="emit SVG charts")
        sp.add_argument("--policy", help="policies for eval-offline")
        sp.add_argument("--q", help="truth probability for the random policy")
        sp.add_argument("--accuracies", help="honest accuracies for multi-expert")
        sp.add_argument("--weights", help="initial weights (adversary first)")
        sp.add_argument("--offline_opt_max_n", help="largest N for the exhaustive column")
        sp.add_argument("--exact_dp_max_n", help="largest N for the exact K-expert column")
        sp.add_argument("--max_denominator", help="rational-approximation bound for ratio policy")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cli_values = {
            key: getattr(args, key)
            for key in _KNOWN_KEYS
            if hasattr(args, key) and getattr(args, key) is not None
        }
        cfg = resolve_config(args.scenario, file_values, cli_values)
        return _RUNNERS[args.scenario](cfg)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
