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
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import GuardError, ModelParams
from .exact_eval import (
    exhaustive_offline_optimum,
    policy_value,
    ratio_policy_values,
    two_honest_values,
    value_false,
    value_true,
)
from .online_dp import (
    KExpertParams,
    monte_carlo_k_expert,
    no_information_values,
    optimal_policy,
    optimal_values,
    simulate_online,
    solve_k_expert,
)
from .output import fmt, write_csv, write_svg
from .policies import (
    OfflinePolicy,
    false_policy,
    random_policy,
    ratio_policy,
    true_policy,
)
from .verify import run_all

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

SCENARIOS = tuple(_DEFAULTS)

_COMMON = {
    "epsilon": repr(math.exp(-1.0)),
    "seed": "1729",
    "svg": "false",
    "max_denominator": "20",
}

_NAMED_POLICIES = ("false", "true", "ratio", "random")


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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def _list(cast, kind: str):
    """Parser of a comma list of ``cast`` values (``kind`` in its errors)."""
    def parse(text: str, key: str) -> list:
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key} must be a comma list of {kind}, got {text!r}") from exc
    return parse


_ints, _floats = _list(int, "integers"), _list(float, "numbers")


def _one(parse):
    """Parser of a scalar key: the single value of a comma-list ``parse``."""
    def one(text: str, key: str):
        values = parse(text, key)
        if len(values) != 1:
            raise ConfigError(f"{key} must be a single value, got {text!r}")
        return values[0]
    return one


def _bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"{key} must be a boolean, got {text!r}")


# every configuration key, in flag order, with the ExperimentConfig field it
# sets, its parser and the help text of its flag; a config file may set these
# keys and no others
_KEYS = {
    "N": ("horizons", _ints, "comma list of horizons"),
    "mu": ("mus", _floats, "honest accuracy (comma list pairs with rho0)"),
    "rho0": ("rho0s", _floats, "adversary initial relative weight"),
    "epsilon": ("epsilon", _one(_floats), "multiplicative penalty in (0,1)"),
    "trials": ("trials", _one(_ints), "Monte Carlo trials"),
    "seed": ("seed", _one(_ints), "root RNG seed"),
    "out": ("out", lambda text, key: text, "output CSV path"),
    "svg": ("svg", _bool, "emit SVG charts"),
    "policy": ("policies", _list(str.strip, "names"), "policies for eval-offline"),
    "q": ("q", _one(_floats), "truth probability for the random policy"),
    "accuracies": ("accuracies", _floats, "honest accuracies for multi-expert"),
    "weights": ("weights", _floats, "initial weights (adversary first)"),
    "offline_opt_max_n": ("offline_opt_max_n", _one(_ints), "largest N for the exhaustive column"),
    "exact_dp_max_n": ("exact_dp_max_n", _one(_ints), "largest N for the exact K-expert column"),
    "max_denominator": ("max_denominator", _one(_ints), "rational-approximation bound for ratio policy"),
}


@dataclass
class ExperimentConfig:
    """Resolved configuration for one scenario run; a key the scenario neither
    defaults nor receives leaves its field empty, and the scenario never reads it."""

    scenario: str
    horizons: list[int] = field(default_factory=list)
    mus: list[float] = field(default_factory=list)
    rho0s: list[float] = field(default_factory=list)
    epsilon: float = 0.0
    trials: int = 0
    seed: int = 0
    out: str = ""
    svg: bool = False
    policies: list[str] = field(default_factory=list)
    q: float = 0.0
    accuracies: list[float] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    offline_opt_max_n: int = 0
    exact_dp_max_n: int = 0
    max_denominator: int = 0
    resolved: dict[str, str] = field(default_factory=dict)

    @property
    def mu_rho_pairs(self) -> list[tuple[float, float]]:
        mus, rhos = self.mus, self.rho0s
        if len(mus) == 1 and len(rhos) > 1:
            mus = mus * len(rhos)
        if len(rhos) == 1 and len(mus) > 1:
            rhos = rhos * len(mus)
        if len(mus) != len(rhos) or not mus:
            raise ConfigError("mu and rho0 lists must be nonempty and pair up (equal length or length 1)")
        pairs = list(zip(mus, rhos))
        if len(set(pairs)) != len(pairs):
            raise ConfigError(f"every (mu, rho0) pair must be distinct, got {pairs}")
        return pairs


def resolve_config(scenario: str, file_values: dict[str, str], cli_values: dict[str, str]) -> ExperimentConfig:
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    merged = dict(_COMMON)
    merged.update(_DEFAULTS[scenario])
    merged.update(file_values)
    merged.update({k: v for k, v in cli_values.items() if v is not None})

    # out/svg route the results but do not affect them; keeping them out of
    # the hash lets identical experiments match across destinations
    cfg = ExperimentConfig(
        scenario, resolved={k: merged[k] for k in sorted(merged) if k not in ("out", "svg")}
    )
    for key, (name, parse, _) in _KEYS.items():
        if key in merged:
            setattr(cfg, name, parse(merged[key], key))
    if scenario != "verify" and not cfg.out:
        raise ConfigError("an output path is required (out=... or --out)")
    out_dir = os.path.dirname(cfg.out)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir} does not exist")
    if os.path.isdir(cfg.out):
        raise ConfigError(f"output path {cfg.out} is a directory")
    if "N" in _DEFAULTS[scenario] and not cfg.horizons:
        raise ConfigError("N must list at least one horizon")
    if "policy" in _DEFAULTS[scenario] and not cfg.policies:
        raise ConfigError("policy must list at least one policy")
    if len(set(cfg.horizons)) != len(cfg.horizons):
        raise ConfigError(f"every horizon N must be distinct, got {cfg.horizons}")
    if cfg.trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
    if scenario == "multi-expert" and cfg.trials < 1:
        raise ConfigError(f"multi-expert needs trials >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2**128:
        raise ConfigError(f"seed must be in [0, 2**128), got {cfg.seed}")
    if cfg.max_denominator < 1:
        raise ConfigError(f"max_denominator must be at least 1, got {cfg.max_denominator}")
    return cfg


def _params(cfg: ExperimentConfig, mu: float, rho0: float, n: int) -> ModelParams:
    try:
        return ModelParams(epsilon=cfg.epsilon, mu=mu, horizon=n, rho0=rho0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_policy(name: str, n: int, params: ModelParams, cfg: ExperimentConfig) -> OfflinePolicy:
    if name not in _NAMED_POLICIES and not set(name) <= {"F", "T"}:
        raise ConfigError(f"unknown policy {name!r} (use false/true/ratio/random or an F/T string)")
    try:
        if name == "false":
            return false_policy(n)
        if name == "true":
            return true_policy(n)
        if name == "ratio":
            return ratio_policy(params, max_denominator=cfg.max_denominator)
        if name == "random":
            return random_policy(n, cfg.q, cfg.seed)
        pol = OfflinePolicy.from_text(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if pol.horizon != n:
        raise ConfigError(f"explicit policy has {pol.horizon} stages but N={n}; they must match")
    return pol


def _group_charts(cfg: ExperimentConfig, rows: list, title: str, series_of) -> list:
    """One chart per (mu, rho0) group of rows that hold mu and rho0 in
    columns 1 and 2; ``series_of`` turns a group's rows into its series."""
    charts = []
    for mu, rho0 in cfg.mu_rho_pairs:
        group = [r for r in rows if r[1] == mu and r[2] == rho0]
        charts.append((f"_mu{mu:g}_rho{rho0:g}", f"{title} (mu={mu:g}, rho0={rho0:g})",
                       series_of(group)))
    return charts


def _columns(rows: list, columns: list[tuple[str, int]]) -> list:
    """Series of each (label, column) against N in column 0, leaving out
    columns that are blank in every row."""
    ns = [r[0] for r in rows]
    return [(label, ns, [r[col] for r in rows]) for label, col in columns
            if any(r[col] is not None for r in rows)]


def _write(cfg: ExperimentConfig, header: list[str], rows: list, charts: list) -> None:
    """Write the CSV and, when svg is on, each chart beside it.  A chart is
    (file suffix, title, series) and a series is (label, xs, ys)."""
    write_csv(cfg.out, header, rows, __version__, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        for suffix, title, series in charts:
            path = f"{cfg.out.removesuffix('.csv')}{suffix}.svg"
            write_svg(path, series, title, "stages N", "expected loss")
            print(f"wrote {path}")


def run_eval_offline(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "policy_name", "policy", "value"]
    names = cfg.policies
    labels = [name if name in _NAMED_POLICIES else "explicit" for name in names]
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            for name, label in zip(names, labels):
                pol = _build_policy(name, n, params, cfg)
                rows.append([n, mu, rho0, cfg.epsilon, label, pol.to_text(), policy_value(pol, params)])
    # a group lists each N's rows policy by policy; a series per policy, named or F/T
    return header, rows, _group_charts(cfg, rows, "offline policy loss", lambda group: [
        (name, [r[0] for r in group[i::len(names)]], [r[6] for r in group[i::len(names)]])
        for i, name in enumerate(names)])


def run_solve_online(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "v_online", "sim_mean", "sim_stderr", "trials"]
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            policy = optimal_policy(params)
            sim_mean = sim_err = None
            if cfg.trials > 0:
                res = simulate_online(params, policy, cfg.trials, cfg.seed)
                sim_mean, sim_err = res.mean, res.stderr
            rows.append([n, mu, rho0, cfg.epsilon, policy.root_value, sim_mean, sim_err,
                         cfg.trials or None])
    return header, rows, _group_charts(cfg, rows, "optimal online loss",
                                       lambda group: _columns(group, [("online optimum", 4)]))


def run_compare(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "v_false", "v_true", "v_ratio",
              "v_offline_opt", "v_online", "v_no_adversary", "v_no_info"]
    rows = []
    for mu, rho0 in cfg.mu_rho_pairs:
        # one backward pass, two forward passes and one walk over the ratio
        # policies' shared prefix pairs hold the values of every horizon
        longest = _params(cfg, mu, rho0, max(cfg.horizons))
        online = optimal_values(longest)
        no_adversary = two_honest_values(longest)
        no_info = no_information_values(longest)
        ratio_ns = [n for n in cfg.horizons if n >= 2]
        ratio = dict(zip(ratio_ns, ratio_policy_values(ratio_ns, longest,
                                                       cfg.max_denominator).tolist()))
        for n in cfg.horizons:
            params = _params(cfg, mu, rho0, n)
            v_f = value_false(n, rho0, params)
            v_t = value_true(n, rho0, params)
            v_ratio, v_opt = ratio.get(n), None
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
    values = [(header[col], col) for col in range(4, len(header))]
    return header, rows, _group_charts(cfg, rows, "policy comparison",
                                       lambda group: _columns(group, values))


def _k_params(cfg: ExperimentConfig, n: int) -> KExpertParams:
    try:
        return KExpertParams(
            epsilon=cfg.epsilon, horizon=n, accuracies=tuple(cfg.accuracies),
            initial_weights=tuple(cfg.weights),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_multi_expert(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    longest = max(cfg.horizons)
    rho_adv = _k_params(cfg, longest).adversary_relative_weight  # validates before np.mean reads them
    header = ["N", "epsilon", "rho_adv", "mu_mean", "v_two_expert", "v_k_clairvoyant",
              "v_k_clairvoyant_stderr", "v_k_exact_dp", "trials", "k_experts", "accuracies"]
    mu_mean = float(np.mean(cfg.accuracies))
    acc_text = ";".join(fmt(a) for a in cfg.accuracies)
    # one backward pass at the largest horizon holds the reduced model's
    # online value of every smaller one
    two_expert = optimal_values(_params(cfg, mu_mean, rho_adv, longest))
    rows = []
    for n in cfg.horizons:
        kparams = _k_params(cfg, n)
        v2 = float(two_expert[n])
        mc = monte_carlo_k_expert(kparams, cfg.trials, cfg.seed)
        # horizons above exact_dp_max_n leave the exact column blank; raising
        # the knob past the solver guards is a hard guard violation (exit 3)
        v_exact = solve_k_expert(kparams) if n <= cfg.exact_dp_max_n else None
        rows.append([n, cfg.epsilon, rho_adv, mu_mean, v2, mc.mean, mc.stderr, v_exact,
                     cfg.trials, kparams.n_experts, acc_text])
    series = _columns(rows, [("two-expert online", 4), ("k-expert clairvoyant MC", 5),
                             ("k-expert exact DP", 7)])
    return header, rows, [("", "multi-expert vs reduced two-expert model", series)]


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
        _write(cfg, ["check", "passed", "measured", "tolerance", "detail"],
               [[r.name, r.passed, r.measured, r.tolerance, r.detail] for r in results], [])
    return 1 if failures else 0


_RUNNERS = {
    "eval-offline": run_eval_offline,
    "solve-online": run_solve_online,
    "compare": run_compare,
    "multi-expert": run_multi_expert,
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
        for key, (_, _, text) in _KEYS.items():
            # a bare --svg means --svg true
            bare = {"nargs": "?", "const": "true"} if key == "svg" else {}
            sp.add_argument(f"--{key}", help=text, **bare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.scenario, file_values, {key: getattr(args, key) for key in _KEYS})
        if cfg.scenario == "verify":
            return run_verify(cfg)
        _write(cfg, *_RUNNERS[cfg.scenario](cfg))
        return 0
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
