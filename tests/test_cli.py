"""CLI scenarios: config handling, CSV/SVG output, exit codes, verify suite."""

import argparse
import ast
import csv
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mwadversary
from mwadversary import (
    ModelParams,
    no_information_baseline,
    optimal_value,
    policy_value,
    two_honest_value,
    verify,
)
from mwadversary.cli import ConfigError, build_parser, main, parse_config_file, resolve_config
from mwadversary.exact_eval import value_block_policy
from mwadversary.output import fmt
from mwadversary.policies import OfflinePolicy, block_form
from mwadversary.verify import check_oracle_equivalence, run_all

E = math.e


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n[sweep]\nN = 4,6\nmu = 0.4\nseed = 9\n")
        values = parse_config_file(str(cfg))
        assert values == {"N": "4,6", "mu": "0.4", "seed": "9"}

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_cli_overrides_file_overrides_default(self):
        cfg = resolve_config("compare", {"N": "4", "seed": "5"}, {"seed": "6"})
        assert cfg.horizons == [4]
        assert cfg.seed == 6
        assert cfg.epsilon == pytest.approx(math.exp(-1))

    def test_mu_rho_pairing(self):
        cfg = resolve_config("compare", {"mu": "0.3,0.5", "rho0": "0.5"}, {})
        assert cfg.mu_rho_pairs == [(0.3, 0.5), (0.5, 0.5)]
        bad = resolve_config("compare", {"mu": "0.3,0.5", "rho0": "0.5,0.6,0.7"}, {})
        with pytest.raises(ConfigError):
            bad.mu_rho_pairs
        repeated = resolve_config("compare", {"mu": "0.3,0.3"}, {})
        with pytest.raises(ConfigError, match="distinct"):
            repeated.mu_rho_pairs
        empty = resolve_config("compare", {"mu": "", "rho0": ","}, {})
        with pytest.raises(ConfigError, match="nonempty"):
            empty.mu_rho_pairs

    def test_exit_code_invalid_config(self, tmp_path):
        assert main(["compare", "--mu", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 2

    def test_exit_code_guard_violation(self, tmp_path):
        rc = main(
            ["multi-expert", "--N", "30", "--exact_dp_max_n", "40",
             "--out", str(tmp_path / "g.csv")]
        )
        assert rc == 3


class TestCompareScenario:
    def test_rows_and_dominance(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--N", "6,10,12", "--out", str(out)]) == 0
        comment, header, rows = read_csv(str(out))
        assert comment.startswith("# mwadversary")
        assert "config_sha256=" in comment and "seed=" in comment
        assert header == [
            "N", "mu", "rho0", "epsilon", "v_false", "v_true", "v_ratio",
            "v_offline_opt", "v_online", "v_no_adversary", "v_no_info",
        ]
        assert [r[0] for r in rows] == ["6", "10", "12"]
        for row in rows:
            v_false, v_true = float(row[4]), float(row[5])
            v_ratio, v_opt, v_online = float(row[6]), float(row[7]), float(row[8])
            v_noadv, v_noinfo = float(row[9]), float(row[10])
            assert v_online >= max(v_false, v_ratio, v_opt) - 1e-9
            assert v_opt >= max(v_false, v_ratio) - 1e-9
            assert min(v_false, v_ratio) >= v_noinfo - 1e-9 >= v_true - 1e-9
            assert v_noadv == pytest.approx(0.5 * int(row[0]), abs=1e-9)

    def test_offline_column_blank_beyond_budget(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--N", "4,16", "--offline_opt_max_n", "8", "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert rows[0][7] != ""
        assert rows[1][7] == ""

    def test_svg_emitted(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--N", "4,8", "--svg", "--out", str(out)]) == 0
        svg = tmp_path / "cmp_mu0.5_rho0.5.svg"
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" in text


@pytest.mark.parametrize("argv, names", [
    (["eval-offline", "--N", "6,9", "--mu", "0.3,0.5"],
     ["run_mu0.3_rho0.5.svg", "run_mu0.5_rho0.5.svg"]),
    (["solve-online", "--N", "5,8", "--rho0", "0.2,0.6"],
     ["run_mu0.5_rho0.2.svg", "run_mu0.5_rho0.6.svg"]),
    (["multi-expert", "--N", "4,6", "--trials", "5", "--exact_dp_max_n", "4"], ["run.svg"]),
])
def test_svg_per_scenario(tmp_path, capsys, argv, names):
    out = tmp_path / "run.csv"
    assert main(argv + ["--svg", "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == names
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out}", *(f"wrote {tmp_path / name}" for name in names)]
    for name in names:
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg") and "<polyline" in text


@pytest.mark.parametrize("argv", [
    ["compare", "--N", "30,10,20"],
    ["eval-offline", "--N", "30,10,20"],
    ["multi-expert", "--N", "30,10,20", "--trials", "5", "--exact_dp_max_n", "10"],
])
def test_svg_lines_run_in_increasing_n(tmp_path, argv):
    out = tmp_path / "run.csv"
    assert main(argv + ["--svg", "--out", str(out)]) == 0
    lines = [line for svg in tmp_path.glob("*.svg") for line in svg.read_text().splitlines()
             if line.startswith("<polyline")]
    assert lines
    for line in lines:
        points = line.split('points="')[1].split('"')[0].split()
        xs = [float(point.split(",")[0]) for point in points]
        assert xs == sorted(xs) and len(set(xs)) == len(xs)


def test_svg_leaves_out_blank_columns(tmp_path):
    out = tmp_path / "me.csv"
    argv = ["multi-expert", "--N", "4,6", "--trials", "5", "--svg", "--out", str(out)]
    assert main(argv + ["--exact_dp_max_n", "0"]) == 0
    text = (tmp_path / "me.svg").read_text()
    assert "k-expert clairvoyant MC" in text and "k-expert exact DP" not in text
    assert main(argv + ["--exact_dp_max_n", "6"]) == 0
    assert "k-expert exact DP" in (tmp_path / "me.svg").read_text()


def _run_module(*argv):
    """Run ``python -m mwadversary`` in a fresh process, capturing its output."""
    src = str(Path(mwadversary.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "mwadversary", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_m_mwadversary_version():
    proc = _run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout == f"mwadversary {mwadversary.__version__}\n"


class TestEvalOfflineScenario:
    def test_values_match_library(self, tmp_path):
        out = tmp_path / "ev.csv"
        rc = main(["eval-offline", "--N", "9", "--policy", "false,true,FTFFTFFFT",
                   "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(str(out))
        p = ModelParams(epsilon=1 / E, mu=0.5, horizon=9)
        by_name = {row[4]: row for row in rows}
        assert float(by_name["false"][6]) == pytest.approx(
            policy_value(OfflinePolicy.from_text("F" * 9), p), abs=1e-12
        )
        explicit = by_name["explicit"]
        assert explicit[5] == "FTFFTFFFT"
        assert float(explicit[6]) == pytest.approx(
            value_block_policy(block_form(OfflinePolicy.from_text("FTFFTFFFT")), p), abs=1e-12
        )

    def test_chart_has_one_series_per_explicit_policy(self, tmp_path):
        out = tmp_path / "ex.csv"
        assert main(["eval-offline", "--N", "6", "--policy", "FTFTFT,TTTFFF,false", "--svg",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(str(out))
        assert [row[4] for row in rows] == ["explicit", "explicit", "false"]
        text = (tmp_path / "ex_mu0.5_rho0.5.svg").read_text()
        labels = [line.split(">")[1].split("<")[0] for line in text.splitlines()
                  if line.startswith("<text") and 'fill="#' in line]
        assert labels == ["FTFTFT", "TTTFFF", "false"]
        assert text.count("<polyline") == 3

    def test_explicit_policy_horizon_mismatch(self, tmp_path):
        rc = main(["eval-offline", "--N", "5", "--policy", "FT", "--out",
                   str(tmp_path / "e.csv")])
        assert rc == 2


class TestSolveOnlineScenario:
    def test_with_simulation(self, tmp_path):
        out = tmp_path / "so.csv"
        assert main(["solve-online", "--N", "15", "--trials", "400", "--seed", "3",
                     "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert header[:5] == ["N", "mu", "rho0", "epsilon", "v_online"]
        row = rows[0]
        p = ModelParams(epsilon=1 / E, mu=0.5, horizon=15)
        assert float(row[4]) == pytest.approx(optimal_value(p), abs=1e-9)
        assert abs(float(row[5]) - float(row[4])) <= 5 * float(row[6])


class TestMultiExpertScenario:
    def test_columns_and_budget(self, tmp_path):
        out = tmp_path / "me.csv"
        rc = main(["multi-expert", "--N", "5,20", "--trials", "40", "--seed", "8",
                   "--exact_dp_max_n", "8", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(str(out))
        assert header[0] == "N" and "v_k_exact_dp" in header
        exact_col = header.index("v_k_exact_dp")
        assert rows[0][exact_col] != ""   # N=5 within budget
        assert rows[1][exact_col] == ""   # N=20 above budget
        assert rows[0][header.index("rho_adv")] == "0.2"

    def test_heterogeneous_accuracies(self, tmp_path):
        out = tmp_path / "het.csv"
        rc = main(["multi-expert", "--N", "6", "--trials", "30",
                   "--accuracies", "0.3,0.4,0.6,0.7", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(str(out))
        assert rows[0][header.index("mu_mean")] == "0.5"


class TestVerifyScenario:
    def test_green_run(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("[PASS]") == 6
        assert "[FAIL]" not in stdout
        _, header, rows = read_csv(str(out))
        assert header == ["check", "passed", "measured", "tolerance", "detail"]
        assert [row[0] for row in rows] == [
            "oracle-equivalence", "online-oracle", "residual-inequalities",
            "normal-approx-decay", "dominance-chain", "bounds-sandwich",
        ]
        assert all(row[1] == "true" for row in rows)
        assert all(row[4] for row in rows), "every row names its worst case"

    def test_detects_perturbed_evaluator(self):
        """An epsilon perturbation injected into the evaluator must trip the
        oracle-equivalence check."""
        def perturbed(policy, p):
            skewed = ModelParams(
                epsilon=p.epsilon * 1.01, mu=p.mu, horizon=p.horizon, rho0=p.rho0
            )
            return value_block_policy(block_form(policy), skewed)

        result = check_oracle_equivalence(evaluator=perturbed)
        assert not result.passed
        assert result.measured > result.tolerance

    def test_detects_perturbed_online_solver(self, monkeypatch):
        """A 1e-9 relative error in the online DP must trip the
        online-oracle check."""
        solve = verify.optimal_values
        monkeypatch.setattr(verify, "optimal_values", lambda p: solve(p) * (1 + 1e-9))
        result = verify.check_online_oracle()
        assert result.passed is False
        assert result.measured > result.tolerance

    def test_detects_perturbed_played_policy(self, monkeypatch):
        """The played policy's root value is checked on its own, not only
        through the value table."""
        solve = verify.optimal_policy
        monkeypatch.setattr(verify, "optimal_policy", lambda p: SimpleNamespace(
            root_value=solve(p).root_value * (1 + 1e-9)))
        result = verify.check_online_oracle()
        assert result.passed is False
        assert result.detail.startswith("optimal_policy ")

    def test_detects_perturbed_k_expert_solver(self, monkeypatch):
        """The K = 3 case trips the check even when the two-expert DPs are
        exact."""
        solve = verify.solve_k_expert
        monkeypatch.setattr(verify, "solve_k_expert", lambda kp: solve(kp) * (1 + 1e-9))
        result = verify.check_online_oracle()
        assert result.passed is False
        assert result.detail == "solve_k_expert K=3 accuracies=(0.3, 0.7) N=8"

    def test_passed_is_a_plain_bool(self):
        for res in run_all():
            assert type(res.passed) is bool, res.name

    def test_all_checks_report_margin(self):
        for res in run_all():
            assert res.passed
            assert res.measured <= res.tolerance


def test_fmt_keeps_library_precision():
    """CSV floats carry the library's numbers: the false-policy value at N=9
    survives to 1e-14 relative, while a value one ulp below 0.5 still prints
    as the decimal it stands for."""
    value = 5.417522589143764
    assert float(fmt(value)) == pytest.approx(value, rel=1e-14)
    assert fmt(0.49999999999999994) == "0.5"


def test_fmt_writes_numpy_bools_as_csv_bools():
    assert (fmt(np.True_), fmt(np.False_)) == ("true", "false")


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["compare", "--N", "4,8,12", "--seed", "77"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


class TestConfigRejections:
    @pytest.mark.parametrize("argv", [
        ["multi-expert", "--trials", "0"],
        ["multi-expert", "--trials", "-2"],
        ["solve-online", "--N", "5", "--trials", "-3"],
        ["compare", "--N", "4", "--trials", "-1"],
    ])
    def test_bad_trials_is_a_config_error(self, tmp_path, argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["eval-offline", "solve-online", "compare", "multi-expert"])
    @pytest.mark.parametrize("horizons", ["", ","])
    def test_empty_horizon_list_is_a_config_error(self, tmp_path, scenario, horizons):
        out = tmp_path / "n.csv"
        assert main([scenario, "--N", horizons, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key", ["epsilon", "trials", "seed", "q", "offline_opt_max_n",
                                     "exact_dp_max_n", "max_denominator"])
    @pytest.mark.parametrize("value", ["", ",", "1,2"])
    def test_scalar_key_takes_exactly_one_value(self, tmp_path, capsys, key, value):
        out = tmp_path / "s.csv"
        assert main(["compare", "--N", "4", f"--{key}", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval-offline", "--policy", "random", "--q", "1.5"],
        ["eval-offline", "--policy", "ratio", "--N", "1"],
        ["compare", "--N", "4", "--max_denominator", "0"],
        ["solve-online", "--N", "5", "--trials", "3", "--seed", "-1"],
        ["multi-expert", "--N", "5", "--trials", "3", "--seed", "-1"],
        ["eval-offline", "--policy", "random", "--seed", "-1"],
        ["solve-online", "--N", "5", "--trials", "3", "--seed", str(2**128)],
        ["multi-expert", "--N", "5", "--trials", "3", "--seed", str(2**128)],
        ["eval-offline", "--N", "5", "--policy", ","],
    ])
    def test_bad_policy_or_seed_is_a_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "p.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config:")
        assert not out.exists()

    @pytest.mark.parametrize("accuracies, weights, message", [
        pytest.param("", "1", "need at least one honest expert", id="no-honest-expert"),
        pytest.param("0.5", "1", "initial_weights must list the adversary first, then every honest expert",
                     id="weights-length"),
    ])
    def test_bad_k_expert_inputs_are_checked_before_use(self, tmp_path, accuracies, weights, message):
        """A fresh process prints the one config error line and nothing else
        (no numpy warning from computing with the inputs first)."""
        out = tmp_path / "m.csv"
        proc = _run_module("multi-expert", "--N", "4", "--trials", "2", "--accuracies", accuracies,
                           "--weights", weights, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"invalid config: {message}\n"
        assert not out.exists()

    def test_missing_output_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "x.csv"
        assert main(["compare", "--N", "4", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invalid config: output directory {out.parent} does not exist\n")
        assert main(["verify", "--out", str(out)]) == 2

    def test_output_path_naming_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["compare", "--N", "4", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid config: output path {tmp_path} is a directory\n")

    @pytest.mark.parametrize("scenario", ["eval-offline", "solve-online", "compare", "multi-expert"])
    def test_repeated_horizon_is_a_config_error(self, tmp_path, capsys, scenario):
        out = tmp_path / "r.csv"
        assert main([scenario, "--N", "4,6,4", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config:")
        assert not out.exists()

    def test_non_finite_weights_are_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        argv = ["multi-expert", "--N", "5", "--trials", "3", "--weights", "nan,1,1,1,1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "finite and strictly positive" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, n", [
    (["--N", "40", "--accuracies", "0.5", "--exact_dp_max_n", "60"], 40),
    (["--N", "60", "--trials", "200", "--accuracies", "0.3", "--exact_dp_max_n", "0"], 60),
])
def test_k_expert_weight_overflow_and_underflow_are_guard_violations(tmp_path, capsys, argv, n):
    """Weights past double range end the run (exit 3) instead of writing NaN."""
    out = tmp_path / "k.csv"
    assert main(["multi-expert", *argv, "--weights", "1,1", "--epsilon", "1e-9",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard violation: ") and err.count("\n") == 1
    assert f"epsilon=1e-09 and N={n}" in err
    assert not out.exists()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("compare", ["compare", "--N", "4,8,12", "--mu", "0.3,0.7", "--offline_opt_max_n", "12"]),
    ("compare_long", ["compare", "--N", "1000,2000", "--mu", "0.3,0.5,0.7"]),
    ("eval_offline", ["eval-offline", "--N", "9", "--mu", "0.3,0.5",
                      "--policy", "false,true,ratio,random,FTFTFTFTF"]),
    ("solve_online", ["solve-online", "--N", "10,20", "--mu", "0.3,0.7", "--trials", "50"]),
    ("multi_expert", ["multi-expert", "--N", "5,10", "--trials", "20", "--exact_dp_max_n", "8"]),
])
def test_csv_matches_golden_bytes(tmp_path, name, argv):
    """Refactors keep the CSV bytes: each call rewrites its committed file
    in tests/golden exactly."""
    out = tmp_path / f"{name}.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


_FLAGS = [
    ("--config", "INI-style key=value file"),
    ("--N", "comma list of horizons"),
    ("--mu", "honest accuracy (comma list pairs with rho0)"),
    ("--rho0", "adversary initial relative weight"),
    ("--epsilon", "multiplicative penalty in (0,1)"),
    ("--trials", "Monte Carlo trials"),
    ("--seed", "root RNG seed"),
    ("--out", "output CSV path"),
    ("--svg", "emit SVG charts"),
    ("--policy", "policies for eval-offline"),
    ("--q", "truth probability for the random policy"),
    ("--accuracies", "honest accuracies for multi-expert"),
    ("--weights", "initial weights (adversary first)"),
    ("--offline_opt_max_n", "largest N for the exhaustive column"),
    ("--exact_dp_max_n", "largest N for the exact K-expert column"),
    ("--max_denominator", "rational-approximation bound for ratio policy"),
]


@pytest.mark.parametrize("scenario", ["eval-offline", "solve-online", "compare", "multi-expert",
                                      "verify"])
def test_flags_keep_their_order_and_help(scenario):
    """Every scenario takes -h, then --config and one flag per config key,
    in this order and with this help text (argparse's layout is not pinned)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[scenario]._actions
    assert actions[0].option_strings == ["-h", "--help"]
    assert [(a.option_strings[-1], a.help) for a in actions[1:]] == _FLAGS


def test_benchmark_layer_metrics_name_public_functions():
    """Every per-layer metric <layer>.<function>.calls|self_s of BENCHMARK.json
    names a public function defined in mwadversary.<layer>, so deleting or
    renaming one fails here rather than in a traced benchmark run."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3 or parts[2] not in ("calls", "self_s"):
            continue
        module = importlib.import_module(f"mwadversary.{parts[0]}")
        fn = getattr(module, parts[1], None)
        if (parts[1].startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            missing.append(metric["name"])
    assert not missing


def test_package_names_are_in_their_modules_all():
    """Every name ``mwadversary/__init__.py`` imports from one of its modules
    is listed in that module's ``__all__``, so a stale name fails here."""
    init = Path(mwadversary.__file__)
    missing = []
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"mwadversary.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in getattr(module, "__all__", ())]
    assert not missing


class TestHorizonGrouping:
    """Every horizon of a (mu, rho0) group is read off one pass at the
    group's largest N; rows keep the order the horizons were given in."""

    def test_compare_matches_per_row_evaluators(self, tmp_path):
        out = tmp_path / "grp.csv"
        assert main(["compare", "--N", "30,10,20", "--mu", "0.3,0.7", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [(r[0], r[1]) for r in rows] == [
            ("30", "0.3"), ("10", "0.3"), ("20", "0.3"),
            ("30", "0.7"), ("10", "0.7"), ("20", "0.7"),
        ]
        cols = {name: header.index(name) for name in ("v_online", "v_no_adversary", "v_no_info")}
        for row in rows:
            p = ModelParams(epsilon=math.exp(-1.0), mu=float(row[1]), horizon=int(row[0]))
            want = {"v_online": optimal_value(p), "v_no_adversary": two_honest_value(p),
                    "v_no_info": no_information_baseline(p)}
            for name, col in cols.items():
                assert float(row[col]) == pytest.approx(want[name], rel=1e-12, abs=0.0)

    def test_multi_expert_matches_per_row_two_expert_value(self, tmp_path):
        out = tmp_path / "grp_me.csv"
        assert main(["multi-expert", "--N", "30,10,20", "--trials", "5",
                     "--exact_dp_max_n", "0", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [r[0] for r in rows] == ["30", "10", "20"]
        col = header.index("v_two_expert")
        for row in rows:
            # default accuracies 0.5 x 4 and weights 1 x 5
            p = ModelParams(epsilon=math.exp(-1.0), mu=0.5, horizon=int(row[0]), rho0=0.2)
            assert float(row[col]) == pytest.approx(optimal_value(p), rel=1e-12, abs=0.0)
