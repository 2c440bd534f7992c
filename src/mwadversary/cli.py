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

Each scenario reads its own keys (``_DEFAULTS``) and takes a command-line
flag for each of them and for no other key.  One flat INI-style
``key = value`` file may set any scenario's keys; a scenario takes (and
hashes into ``config_sha256``) only its own, and a flag overrides the file.
An invalid configuration is reported before any computation runs.
Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 guard violation.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .core import GuardError, ModelParams, _positive_int
from .exact_eval import (
    offline_optimum_values,
    policy_value,
    ratio_policy_values,
    two_honest_values,
    value_false,
    value_true,
)
from .online_dp import (
    KExpertParams,
    monte_carlo_k_expert_values,
    no_information_values,
    optimal_policy,
    optimal_values,
    simulate_online,
    solve_k_expert_values,
)
from .output import fmt, write_csv, write_svg
from .policies import (
    OfflinePolicy,
    false_policy,
    random_policy,
    ratio_policy,
    true_policy,
)

_EPSILON = repr(math.exp(-1.0))

# the keys each scenario reads, in flag order, with their defaults
_DEFAULTS: dict[str, dict[str, str]] = {
    "eval-offline": {
        "N": "50", "mu": "0.5", "rho0": "0.5", "epsilon": _EPSILON, "seed": "1729",
        "out": "eval_offline.csv", "svg": "false",
        "policy": "false,true,ratio", "q": "0.5", "max_denominator": "20",
    },
    "solve-online": {
        "N": "100", "mu": "0.5", "rho0": "0.5", "epsilon": _EPSILON, "trials": "0",
        "seed": "1729", "out": "solve_online.csv", "svg": "false",
    },
    "compare": {
        "N": ",".join(str(n) for n in range(10, 201, 10)),
        "mu": "0.5", "rho0": "0.5", "epsilon": _EPSILON, "seed": "1729",
        "out": "compare.csv", "svg": "false", "offline_opt_max_n": "14", "max_denominator": "20",
    },
    "multi-expert": {
        "N": "5,10,15,20,25,30,35,40", "epsilon": _EPSILON, "trials": "100", "seed": "1729",
        "out": "multi_expert.csv", "svg": "false",
        "accuracies": "0.5,0.5,0.5,0.5", "weights": "1,1,1,1,1", "exact_dp_max_n": "12",
    },
    # the checks of verify fix their own seeds, but its CSV header writes this one
    "verify": {"seed": "1729", "out": ""},
}

SCENARIOS = tuple(_DEFAULTS)

_NAMED_POLICIES = ("false", "true", "ratio", "random")


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    set_on: dict[str, int] = {}
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
            raise ConfigError(f"{path}:{lineno}: section header {text!r} in a flat key = value file")
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}")
        raw[key], set_on[key] = value.strip(), lineno
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


def _key(key: str, parse, text: str, empty=list):
    """A config field set by ``key``: ``parse`` reads its value, ``text`` is
    the help of its flag and ``empty()`` its value when nothing sets it."""
    return field(default_factory=empty, metadata={"key": key, "parse": parse, "help": text})


@dataclass
class ExperimentConfig:
    """Resolved configuration for one scenario run; the fields of keys the
    scenario does not own (see ``_DEFAULTS``) stay empty and it never reads them."""

    scenario: str
    horizons: list[int] = _key("N", _ints, "comma list of horizons")
    mus: list[float] = _key("mu", _floats, "honest accuracy (comma list pairs with rho0)")
    rho0s: list[float] = _key("rho0", _floats, "adversary initial relative weight")
    epsilon: float = _key("epsilon", _one(_floats), "multiplicative penalty in (0,1)", float)
    trials: int = _key("trials", _one(_ints), "Monte Carlo trials", int)
    seed: int = _key("seed", _one(_ints), "root RNG seed", int)
    out: str = _key("out", lambda text, key: text, "output CSV path", str)
    svg: bool = _key("svg", _bool, "emit SVG charts", bool)
    policies: list[str] = _key("policy", _list(str.strip, "names"), "policies for eval-offline")
    q: float = _key("q", _one(_floats), "truth probability for the random policy", float)
    accuracies: list[float] = _key("accuracies", _floats, "honest accuracies for multi-expert")
    weights: list[float] = _key("weights", _floats, "initial weights (adversary first)")
    offline_opt_max_n: int = _key("offline_opt_max_n", _one(_ints),
                                  "largest N for the offline-optimum column", int)
    exact_dp_max_n: int = _key("exact_dp_max_n", _one(_ints),
                               "largest N for the exact K-expert column", int)
    max_denominator: int = _key("max_denominator", _one(_ints),
                                "rational-approximation bound for ratio policy", int)
    resolved: dict[str, str] = field(default_factory=dict)
    # one problem per (mu, rho0) pair at the largest horizon, built by resolve_config
    groups: list[ModelParams] = field(default_factory=list)


# every configuration key, in flag order, with the field it sets, its parser
# and the help text of its flag; a config file may set these keys and no others
_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"], f.metadata["help"])
         for f in fields(ExperimentConfig) if f.metadata}


def resolve_config(scenario: str, file_values: dict[str, str], cli_values: dict[str, str]) -> ExperimentConfig:
    """Defaults, then file values, then flags.  Checks the output path, the
    horizons, policy list, trials, seed and max_denominator, then pairs mu
    with rho0 and builds ``cfg.groups``, each pair's ``ModelParams`` at the
    largest horizon.  Raises ConfigError on the first fault."""
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    # one config file serves every scenario: each takes only its own keys
    merged = dict(_DEFAULTS[scenario])
    merged.update((k, v) for k, v in file_values.items() if k in merged)
    merged.update((k, v) for k, v in cli_values.items() if k in merged and v is not None)

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
    for key, values in (("horizon N", cfg.horizons), ("policy", cfg.policies)):
        if len(set(values)) != len(values):
            raise ConfigError(f"every {key} must be distinct, got {values}")
    for n in cfg.horizons:
        _checked(_positive_int, "horizon", n)
    if cfg.trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {cfg.trials}")
    if scenario == "multi-expert" and cfg.trials < 1:
        raise ConfigError(f"multi-expert needs trials >= 1, got {cfg.trials}")
    if not 0 <= cfg.seed < 2**128:
        raise ConfigError(f"seed must be in [0, 2**128), got {cfg.seed}")
    if "max_denominator" in merged and cfg.max_denominator < 1:
        raise ConfigError(f"max_denominator must be at least 1, got {cfg.max_denominator}")
    if "mu" in merged:
        # a list of length 1 pairs with every entry of the other
        width = max(len(cfg.mus), len(cfg.rho0s))
        mus, rhos = (v * width if len(v) == 1 else v for v in (cfg.mus, cfg.rho0s))
        if len(mus) != len(rhos) or not mus:
            raise ConfigError("mu and rho0 lists must be nonempty and pair up (equal length or length 1)")
        pairs = list(zip(mus, rhos))
        if len(set(pairs)) != len(pairs):
            raise ConfigError(f"every (mu, rho0) pair must be distinct, got {pairs}")
        top = max(cfg.horizons)
        cfg.groups = [_checked(ModelParams, cfg.epsilon, mu, top, rho0) for mu, rho0 in pairs]
    return cfg


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with the ValueError of a library check on a
    configured value raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_policy(name: str, params: ModelParams, cfg: ExperimentConfig) -> OfflinePolicy:
    n = params.horizon
    if name not in _NAMED_POLICIES and not set(name) <= {"F", "T"}:
        raise ConfigError(f"unknown policy {name!r} (use false/true/ratio/random or an F/T string)")
    if name == "false":
        return _checked(false_policy, n)
    if name == "true":
        return _checked(true_policy, n)
    if name == "ratio":
        return _checked(ratio_policy, params, max_denominator=cfg.max_denominator)
    if name == "random":
        return _checked(random_policy, n, cfg.q, cfg.seed)
    pol = _checked(OfflinePolicy, name)
    if pol.horizon != n:
        raise ConfigError(f"explicit policy has {pol.horizon} stages but N={n}; they must match")
    return pol


def _group_charts(cfg: ExperimentConfig, rows: list, title: str, series_of) -> list:
    """One chart per (mu, rho0) group of rows that hold mu and rho0 in
    columns 1 and 2; ``series_of`` turns a group's rows into its series."""
    return [(f"_mu{g.mu:g}_rho{g.rho0:g}", f"{title} (mu={g.mu:g}, rho0={g.rho0:g})",
             series_of([r for r in rows if r[1] == g.mu and r[2] == g.rho0])) for g in cfg.groups]


def _columns(rows: list, columns: list[tuple[str, int]]) -> list:
    """Series of each (label, column) against N in column 0, leaving out
    columns that are blank in every row."""
    ns = [r[0] for r in rows]
    return [(label, ns, [r[col] for r in rows]) for label, col in columns
            if any(r[col] is not None for r in rows)]


def _write(cfg: ExperimentConfig, header: list[str], rows: list, charts: list) -> None:
    """Write the CSV and, when svg is on, each chart beside it.  A chart is
    (file suffix, title, series) and a series is (label, xs, ys)."""
    write_csv(cfg.out, header, rows, cfg.scenario, cfg.resolved, cfg.seed)
    print(f"wrote {cfg.out}")
    if cfg.svg:
        for suffix, title, series in charts:
            path = f"{cfg.out.removesuffix('.csv')}{suffix}.svg"
            write_svg(path, series, title)
            print(f"wrote {path}")


def run_eval_offline(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "policy_name", "policy", "value"]
    names = cfg.policies
    labels = [name if name in _NAMED_POLICIES else "explicit" for name in names]
    # every policy is built, and so checked, before the first is evaluated
    problems = [replace(g, horizon=n) for g in cfg.groups for n in cfg.horizons]
    policies = [[_build_policy(name, p, cfg) for name in names] for p in problems]
    rows = [[p.horizon, p.mu, p.rho0, cfg.epsilon, label, pol.text, policy_value(pol, p)]
            for p, pols in zip(problems, policies) for pol, label in zip(pols, labels)]
    # a group lists each N's rows policy by policy; a series per policy, named or F/T
    return header, rows, _group_charts(cfg, rows, "offline policy loss", lambda group: [
        (name, [r[0] for r in group[i::len(names)]], [r[6] for r in group[i::len(names)]])
        for i, name in enumerate(names)])


def _row_key(seed: int, row: int) -> int:
    """The Philox key of a CSV row's random stream, (seed + row * 2**64) mod
    2**128: row 0 keeps ``seed``, and each later row moves the key's high
    word, so no two rows of one call share a stream."""
    return (seed + row * 2**64) % 2**128


def run_solve_online(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "v_online", "sim_mean", "sim_stderr", "trials"]
    rows = []
    for group in cfg.groups:
        for n in cfg.horizons:
            params = replace(group, horizon=n)
            policy = optimal_policy(params)
            sim_mean = sim_err = None
            if cfg.trials > 0:
                res = simulate_online(params, policy, cfg.trials, _row_key(cfg.seed, len(rows)))
                sim_mean, sim_err = res.mean, res.stderr
            rows.append([n, group.mu, group.rho0, cfg.epsilon, policy.root_value, sim_mean,
                         sim_err, cfg.trials or None])
    return header, rows, _group_charts(cfg, rows, "optimal online loss",
                                       lambda group: _columns(group, [("online optimum", 4)]))


def run_compare(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    header = ["N", "mu", "rho0", "epsilon", "v_false", "v_true", "v_ratio",
              "v_offline_opt", "v_online", "v_no_adversary", "v_no_info"]
    rows = []
    # one backward pass steps every (mu, rho0) group together and holds every
    # horizon of each; per group, the no-adversary column, the no-information
    # adjoint pass, one ratio-pair walk and one offline forward pass (to the
    # largest horizon within offline_opt_max_n) hold every horizon
    for longest, online in zip(cfg.groups, optimal_values(cfg.groups)):
        opt_n = max((n for n in cfg.horizons if n <= cfg.offline_opt_max_n), default=0)
        offline = offline_optimum_values(replace(longest, horizon=opt_n)) if opt_n else []
        no_adversary = two_honest_values(longest)
        no_info = no_information_values(longest)
        ratio_ns = [n for n in cfg.horizons if n >= 2]
        ratio = dict(zip(ratio_ns, ratio_policy_values(ratio_ns, longest,
                                                       cfg.max_denominator).tolist()))
        for n in cfg.horizons:
            params = replace(longest, horizon=n)
            v_f = value_false(n, longest.rho0, params)
            v_t = value_true(n, longest.rho0, params)
            v_ratio = ratio.get(n)
            v_opt = float(offline[n]) if n <= cfg.offline_opt_max_n else None
            v_on = float(online[n])
            lower = max(v for v in (v_f, v_ratio, v_opt) if v is not None)
            if v_on < lower - 1e-9:
                raise RuntimeError(
                    f"invariant violated at N={n}, mu={longest.mu}: online {v_on} < offline {lower}"
                )
            rows.append([n, longest.mu, longest.rho0, cfg.epsilon, v_f, v_t, v_ratio, v_opt, v_on,
                         float(no_adversary[n]), float(no_info[n])])
    values = [(header[col], col) for col in range(4, len(header))]
    return header, rows, _group_charts(cfg, rows, "policy comparison",
                                       lambda group: _columns(group, values))


def run_multi_expert(cfg: ExperimentConfig) -> tuple[list[str], list, list]:
    longest = max(cfg.horizons)
    kparams = _checked(KExpertParams, cfg.epsilon, longest, tuple(cfg.accuracies),
                       tuple(cfg.weights))
    rho_adv = kparams.adversary_relative_weight  # validates before np.mean reads them
    header = ["N", "epsilon", "rho_adv", "mu_mean", "v_two_expert", "v_k_clairvoyant",
              "v_k_clairvoyant_stderr", "v_k_exact_dp", "trials", "k_experts", "accuracies"]
    mu_mean = float(np.mean(cfg.accuracies))
    acc_text = ";".join(fmt(a) for a in cfg.accuracies)
    # one backward pass at the largest horizon holds the reduced model's
    # online value of every smaller one, and one exact K-expert solve at the
    # largest horizon within exact_dp_max_n (raising the knob past the solver
    # guards is a hard guard violation, exit 3) every exact value; it holds two
    # grids and runs before the draws, so grids and losses are never held together
    two_expert = optimal_values(_checked(ModelParams, cfg.epsilon, mu_mean, longest, rho_adv))
    exact_n = max((n for n in cfg.horizons if n <= cfg.exact_dp_max_n), default=0)
    exact = solve_k_expert_values(replace(kparams, horizon=exact_n)) if exact_n else []
    # one draw at the largest horizon: each row's trials are its first n stages
    clairvoyant = monte_carlo_k_expert_values(kparams, cfg.trials, cfg.seed, cfg.horizons)
    rows = []
    for n, mc in zip(cfg.horizons, clairvoyant):
        v_exact = float(exact[n]) if n <= cfg.exact_dp_max_n else None
        rows.append([n, cfg.epsilon, rho_adv, mu_mean, float(two_expert[n]), mc.mean,
                     mc.stderr, v_exact, cfg.trials, kparams.n_experts, acc_text])
    series = _columns(rows, [("two-expert online", 4), ("k-expert clairvoyant MC", 5),
                             ("k-expert exact DP", 7)])
    return header, rows, [("", "multi-expert vs reduced two-expert model", series)]


def run_verify(cfg: ExperimentConfig) -> int:
    from .verify import run_all  # only this scenario loads the checks
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


@functools.cache  # built on the first call, not at import
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
            if key in _DEFAULTS[scenario]:
                # a bare --svg means --svg true
                bare = {"nargs": "?", "const": "true"} if key == "svg" else {}
                sp.add_argument(f"--{key}", help=text, **bare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.scenario, file_values, vars(args))
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
    entry()
