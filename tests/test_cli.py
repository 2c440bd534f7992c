"""CLI scenarios: config handling, CSV/SVG output, exit codes, verify suite."""

import argparse
import ast
import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mwadversary
from mwadversary import (
    KExpertParams,
    ModelParams,
    clairvoyant_values,
    no_information_baseline,
    optimal_value,
    policy_value,
    solve_k_expert,
    two_honest_value,
    verify,
)
from mwadversary import cli, online_dp
from mwadversary.cli import ConfigError, build_parser, main, parse_config_file, resolve_config
from mwadversary.exact_eval import value_block_policy
from mwadversary.online_dp import _honest_outcomes
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
        cfg.write_text("# comment\nN = 4,6\nmu = 0.4\nseed = 9\n")
        values = parse_config_file(str(cfg))
        assert values == {"N": "4,6", "mu": "0.4", "seed": "9"}

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    def test_key_set_twice(self, tmp_path):
        """A key set twice is an error naming both lines, not the last value."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 4\nmu = 0.3\n\nN = 8\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'N' is already set on line 1"):
            parse_config_file(str(cfg))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_section_header_is_a_config_error(self, tmp_path, capsys):
        """The file is flat and shared by every scenario: a header would
        suggest its keys apply to one scenario only, while every scenario
        that owns a key reads it."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solve-online]\nN = 8\ntrials = 5\n")
        out = tmp_path / "x.csv"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"invalid config: {cfg}:1: section header '[solve-online]' in a flat key = value file\n")
        assert not out.exists()

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("line", ["policy = false", "max_denominator = 0",
                                      "offline_opt_max_n = 3"])
    def test_keys_of_other_scenarios_in_the_file_are_left_alone(self, tmp_path, line):
        """solve-online neither checks nor hashes a key it does not own, so
        the shared file writes the CSV the file without that line writes."""
        shared, alone = tmp_path / "shared.cfg", tmp_path / "alone.cfg"
        shared.write_text(f"N = 5\n{line}\n")
        alone.write_text("N = 5\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve-online", "--config", str(shared), "--out", str(a)]) == 0
        assert main(["solve-online", "--config", str(alone), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_offline_column_beyond_the_exhaustive_search(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--N", "30,40", "--offline_opt_max_n", "40", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_csv(str(out))
        for row in rows:
            v_false, v_ratio, v_opt, v_online = (float(row[i]) for i in (4, 6, 7, 8))
            assert max(v_false, v_ratio) <= v_opt <= v_online

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


def test_tiny_initial_weight_writes_nothing_to_stderr(tmp_path):
    """At rho0 = 1e-5 the weights of far offsets saturate to 0 with no
    overflow warning."""
    proc = _run_module("compare", "--N", "800", "--rho0", "1e-5",
                       "--out", str(tmp_path / "cmp.csv"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_compare_makes_one_offline_pass_per_group_or_none(tmp_path, monkeypatch):
    """The offline column costs one pass per (mu, rho0) group, at its largest
    horizon within offline_opt_max_n, and none if no horizon qualifies."""
    calls = []
    real = cli.offline_optimum_values

    def counted(params):
        calls.append(params.horizon)
        return real(params)

    monkeypatch.setattr(cli, "offline_optimum_values", counted)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--N", "100,200", "--mu", "0.3,0.5", "--out", out]) == 0
    assert calls == []
    assert main(["compare", "--N", "4,8,12,30", "--mu", "0.3,0.7",
                 "--offline_opt_max_n", "12", "--out", out]) == 0
    assert calls == [12, 12]


def test_compare_makes_one_backward_pass_over_all_groups(tmp_path, monkeypatch):
    """The online column of every (mu, rho0) group comes from one backward
    pass at the largest horizon, which steps all the groups together."""
    calls = []
    real = online_dp._backward

    def counted(problems):
        calls.append([(p.mu, p.rho0, p.horizon) for p in problems])
        return real(problems)

    monkeypatch.setattr(online_dp, "_backward", counted)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--N", "100,200", "--mu", "0.3,0.5,0.7", "--out", out]) == 0
    assert calls == [[(0.3, 0.5, 200), (0.5, 0.5, 200), (0.7, 0.5, 200)]]
    calls.clear()
    assert main(["compare", "--N", "4,8", "--rho0", "0.2,0.6", "--out", out]) == 0
    assert calls == [[(0.5, 0.2, 8), (0.5, 0.6, 8)]]


def test_solve_online_rows_have_distinct_keys():
    """Row i of solve-online draws from Philox key (seed + i * 2**64) mod
    2**128: row 0 keeps the seed, so a one-row call draws what it always
    did, and no two rows of one call share a stream."""
    for seed in (0, 1729, 2**64 - 1, 2**128 - 1):
        keys = [cli._row_key(seed, i) for i in range(50)]
        assert keys[0] == seed
        assert len(set(keys)) == len(keys)
        assert all(0 <= key < 2**128 for key in keys)


def test_solve_online_rows_draw_their_own_keys(tmp_path, monkeypatch):
    calls = []
    real = cli.simulate_online

    def recorded(params, policy, trials, seed):
        calls.append(seed)
        return real(params, policy, trials, seed)

    monkeypatch.setattr(cli, "simulate_online", recorded)
    out = str(tmp_path / "so.csv")
    assert main(["solve-online", "--N", "4,6", "--mu", "0.3,0.7", "--trials", "3",
                 "--seed", "11", "--out", out]) == 0
    assert calls == [cli._row_key(11, i) for i in range(4)]


def test_parser_is_built_once_and_not_at_import(tmp_path):
    """The parser is built on the first ``build_parser`` call, not at import
    (which ``setup_s`` times), and reused; two ``main`` calls in a row each
    parse their own arguments."""
    src = str(Path(mwadversary.__file__).resolve().parents[1])
    probe = "import mwadversary.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.stdout == "0\n"
    assert build_parser() is build_parser()
    for n in ("4", "6"):
        out = tmp_path / f"{n}.csv"
        assert main(["compare", "--N", n, "--out", str(out)]) == 0
        assert [row[0] for row in read_csv(out)[2]] == [n]


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
            policy_value(OfflinePolicy("F" * 9), p), abs=1e-12
        )
        explicit = by_name["explicit"]
        assert explicit[5] == "FTFFTFFFT"
        assert float(explicit[6]) == pytest.approx(
            value_block_policy(block_form(OfflinePolicy("FTFFTFFFT")), p), abs=1e-12
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


    def test_one_trial_leaves_stderr_blank(self, tmp_path):
        out = tmp_path / "so.csv"
        assert main(["solve-online", "--N", "5", "--trials", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert rows[0][header.index("sim_mean")] != ""
        assert rows[0][header.index("sim_stderr")] == ""


class TestMultiExpertScenario:
    def test_one_trial_leaves_stderr_blank(self, tmp_path):
        out = tmp_path / "me.csv"
        assert main(["multi-expert", "--N", "5", "--trials", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert rows[0][header.index("v_k_clairvoyant")] != ""
        assert rows[0][header.index("v_k_clairvoyant_stderr")] == ""

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

    def test_rows_read_prefixes_of_one_draw(self, tmp_path, monkeypatch):
        """Each row's clairvoyant columns are those of the first n stages of
        one draw at the largest horizon; the forward pass runs once per block
        of trials and the exact solver once, whatever the number of rows."""
        blocks, solves = [], []
        forward, solve = online_dp._clairvoyant_forward, cli.solve_k_expert_values
        monkeypatch.setattr(online_dp, "_clairvoyant_forward",
                            lambda correct, kp: blocks.append(correct.shape) or forward(correct, kp))
        monkeypatch.setattr(cli, "solve_k_expert_values",
                            lambda kp: solves.append(kp.horizon) or solve(kp))
        out = tmp_path / "me.csv"
        assert main(["multi-expert", "--N", "12,4,8,3", "--trials", "300", "--seed", "5",
                     "--exact_dp_max_n", "8", "--out", str(out)]) == 0
        assert blocks == [(256, 12, 4), (44, 12, 4)] and solves == [8]
        _, header, rows = read_csv(str(out))
        assert [row[0] for row in rows] == ["12", "4", "8", "3"]
        kp = KExpertParams(epsilon=math.exp(-1.0), horizon=12, accuracies=(0.5,) * 4,
                           initial_weights=(1.0,) * 5)
        draws = np.concatenate(list(_honest_outcomes(5, np.full(48, 0.5), 300)))
        for row in rows:
            n = int(row[0])
            kn = replace(kp, horizon=n)
            losses = clairvoyant_values(draws.reshape(300, 12, 4)[:, :n].transpose(0, 2, 1), kn)
            assert row[header.index("v_k_clairvoyant")] == fmt(float(losses.mean()))
            assert row[header.index("v_k_clairvoyant_stderr")] == fmt(
                float(losses.std(ddof=1)) / math.sqrt(300))
            assert row[header.index("v_k_exact_dp")] == (fmt(solve_k_expert(kn)) if n <= 8 else "")

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
        assert stdout.count("[PASS]") == 7
        assert "[FAIL]" not in stdout
        _, header, rows = read_csv(str(out))
        assert header == ["check", "passed", "measured", "tolerance", "detail"]
        assert [row[0] for row in rows] == [
            "oracle-equivalence", "online-oracle", "clairvoyant-forward", "residual-inequalities",
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

    def test_detects_perturbed_batched_rows(self, monkeypatch):
        """Each (epsilon, N)'s problems also run as one batched pass, checked
        row by row: a 1e-9 relative error in the batched rows alone trips
        the check."""
        solve = verify.optimal_values
        monkeypatch.setattr(verify, "optimal_values", lambda p: solve(p) * (
            1 + 1e-9 if isinstance(p, list) else 1.0))
        result = verify.check_online_oracle()
        assert result.passed is False
        assert result.measured > result.tolerance
        assert result.detail.startswith("batched optimal_values ")

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

    def test_detects_perturbed_clairvoyant_forward_pass(self, monkeypatch):
        """A 1e-9 relative error in one horizon of the forward pass trips the
        clairvoyant-forward check and names that horizon."""
        forward = verify._clairvoyant_forward

        def skewed(correct, kp):
            out = forward(correct, kp)
            out[:, 17] *= 1 + 1e-9
            return out

        monkeypatch.setattr(verify, "_clairvoyant_forward", skewed)
        result = verify.check_clairvoyant_forward()
        assert result.passed is False
        assert result.measured > result.tolerance and result.detail.startswith("N=17 ")

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


def test_fmt_writes_nan_as_blank():
    assert fmt(math.nan) == fmt(np.float64("nan")) == fmt(None) == ""


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
    ])
    def test_bad_trials_is_a_config_error(self, tmp_path, argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve-online", "--N", "5", "--policy", "false"],
        ["compare", "--N", "4", "--trials", "-1"],
        ["eval-offline", "--N", "4", "--accuracies", "0.3"],
        ["multi-expert", "--N", "4", "--max_denominator", "3"],
        ["verify", "--epsilon", "0.5"],
    ])
    def test_flag_of_a_key_the_scenario_does_not_read_is_an_error(self, tmp_path, capsys, argv):
        """A flag the scenario would ignore is refused before anything runs."""
        out = tmp_path / "f.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["eval-offline", "solve-online", "compare", "multi-expert"])
    @pytest.mark.parametrize("horizons", ["", ","])
    def test_empty_horizon_list_is_a_config_error(self, tmp_path, scenario, horizons):
        out = tmp_path / "n.csv"
        assert main([scenario, "--N", horizons, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key", [
        ("compare", "epsilon"), ("solve-online", "trials"), ("compare", "seed"),
        ("eval-offline", "q"), ("compare", "offline_opt_max_n"), ("multi-expert", "exact_dp_max_n"),
        ("compare", "max_denominator"),
    ], ids=["epsilon", "trials", "seed", "q", "offline_opt_max_n", "exact_dp_max_n",
            "max_denominator"])
    @pytest.mark.parametrize("value", ["", ",", "1,2"])
    def test_scalar_key_takes_exactly_one_value(self, tmp_path, capsys, scenario, key, value):
        out = tmp_path / "s.csv"
        assert main([scenario, "--N", "4", f"--{key}", value, "--out", str(out)]) == 2
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

    @pytest.mark.parametrize("policies", ["ratio,ratio", "FTFTF,true,FTFTF"])
    def test_repeated_policy_is_a_config_error(self, tmp_path, capsys, policies):
        out = tmp_path / "r.csv"
        assert main(["eval-offline", "--N", "5", "--policy", policies, "--svg",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config: every policy must be distinct")
        assert list(tmp_path.iterdir()) == []

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
    ("eval_offline_long", ["eval-offline", "--N", "500,2000", "--mu", "0.3,0.7",
                           "--policy", "false,true,ratio,random"]),
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
    ("--offline_opt_max_n", "largest N for the offline-optimum column"),
    ("--exact_dp_max_n", "largest N for the exact K-expert column"),
    ("--max_denominator", "rational-approximation bound for ratio policy"),
]


_SCENARIO_KEYS = {
    "eval-offline": ["N", "mu", "rho0", "epsilon", "seed", "out", "svg", "policy", "q",
                     "max_denominator"],
    "solve-online": ["N", "mu", "rho0", "epsilon", "trials", "seed", "out", "svg"],
    "compare": ["N", "mu", "rho0", "epsilon", "seed", "out", "svg", "offline_opt_max_n",
                "max_denominator"],
    "multi-expert": ["N", "epsilon", "trials", "seed", "out", "svg", "accuracies", "weights",
                     "exact_dp_max_n"],
    "verify": ["seed", "out"],
}


def _scenario_actions(scenario):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[scenario]._actions


@pytest.mark.parametrize("scenario", list(_SCENARIO_KEYS))
def test_flags_keep_their_order_and_help(scenario):
    """Every scenario takes -h, then --config and one flag per key it reads,
    in this order and with this help text (argparse's layout is not pinned)."""
    actions = _scenario_actions(scenario)
    assert actions[0].option_strings == ["-h", "--help"]
    keys = ["config", *_SCENARIO_KEYS[scenario]]
    assert [(a.option_strings[-1], a.help) for a in actions[1:]] == [
        (flag, text) for flag, text in _FLAGS if flag[2:] in keys]


# a small run of each scenario, and one value per key that differs from
# every base run's (mu 0.3 at N = 6 is where max_denominator 1 moves the
# ratio policy)
_KEY_READ_BASE = {
    "eval-offline": ["--N", "6", "--mu", "0.3", "--policy", "random,ratio"],
    "solve-online": ["--N", "6", "--trials", "5"],
    "compare": ["--N", "4,6", "--mu", "0.3"],
    "multi-expert": ["--N", "4,6", "--trials", "5", "--exact_dp_max_n", "4"],
    "verify": [],
}
_OTHER_VALUE = {
    "N": "7", "mu": "0.4", "rho0": "0.3", "epsilon": "0.5", "trials": "6", "seed": "5",
    "policy": "random,false", "q": "0.2", "accuracies": "0.3,0.5,0.5,0.5",
    "weights": "2,1,1,1,1", "offline_opt_max_n": "4", "exact_dp_max_n": "6",
    "max_denominator": "1",
}


def _without_hash(path):
    return re.sub(r"config_sha256=\w+", "", path.read_text())


@pytest.mark.parametrize("scenario", list(_KEY_READ_BASE))
def test_every_accepted_key_is_read(tmp_path, capsys, scenario):
    """Each key a scenario takes, other than out and svg, changes its CSV
    outside the config_sha256 field: a key that moved only the hash would
    keep identical experiments from matching."""
    keys = [a.option_strings[-1][2:] for a in _scenario_actions(scenario)[2:]]
    base = tmp_path / "base.csv"
    assert main([scenario, *_KEY_READ_BASE[scenario], "--out", str(base)]) == 0
    unread = []
    for key in (k for k in keys if k not in ("out", "svg")):
        out = tmp_path / f"{key}.csv"
        argv = [scenario, *_KEY_READ_BASE[scenario], f"--{key}", _OTHER_VALUE[key]]
        assert main(argv + ["--out", str(out)]) == 0, key
        if _without_hash(out) == _without_hash(base):
            unread.append(key)
    assert unread == []


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
    is listed in that module's ``__all__``, and every ``__all__`` entry of
    every module is defined there (``import *`` would fail on it), so a stale
    name fails here."""
    init = Path(mwadversary.__file__)
    missing = []
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"mwadversary.{node.module}")
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if a.name not in getattr(module, "__all__", ())]
    for info in pkgutil.iter_modules(mwadversary.__path__):
        module = importlib.import_module(f"mwadversary.{info.name}")
        missing += [f"{info.name}.__all__: {name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
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

    def test_no_adversary_column_is_exact(self, tmp_path):
        """(1 - mu) * N, with no mass drift from a 100-stage forward pass."""
        out = tmp_path / "exact.csv"
        assert main(["compare", "--N", "100", "--mu", "0.3", "--out", str(out)]) == 0
        _, header, rows = read_csv(str(out))
        assert [row[header.index("v_no_adversary")] for row in rows] == ["70"]

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
