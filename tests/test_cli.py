"""End-to-end tests of the command line interface, run in process."""

import argparse
import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse.linalg

from kfpq import acceptance
from kfpq.cli import ConfigError, _build_parser, main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCsvOutput:
    def test_norms_default_shape(self, capsys):
        rc, out, _ = run(capsys, ["norms", "--nu", "1",
                                  "--t", "0.1:1:5:log"])
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].startswith("# kfpq schema 1 command=norms")
        assert "nu=1" in lines[0]
        assert lines[1].split(",")[0] == "nu"
        assert "analytic" in lines[1]
        assert len(lines) == 2 + 5

    def test_multiple_nu_values_multiply_rows(self, capsys):
        rc, out, _ = run(capsys, ["norms", "--nu", "1,4",
                                  "--t", "0.5:2:3:lin"])
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 2 + 2 * 3

    def test_subelliptic_reports_both_signs(self, capsys):
        rc, out, _ = run(capsys, ["subelliptic", "--nu", "1,-1",
                                  "--dims", "12"])
        assert rc == 0
        rows = out.rstrip("\n").split("\n")[2:]
        assert len(rows) == 2
        for row in rows:
            assert row.split(",")[-1] == "true"

    def test_out_file_matches_stdout_content(self, capsys, tmp_path):
        argv = ["norms", "--nu", "2", "--t", "0.5:1:3:lin"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        path = tmp_path / "norms.csv"
        rc2 = main(argv + ["--out", str(path)])
        capsys.readouterr()
        assert rc2 == 0
        assert path.read_text() == out


def _verdicts(out):
    return [row.rsplit(",", 1)[-1] for row in out.rstrip("\n").split("\n")[2:]]


class TestVerdicts:
    def test_norms_verdict_reads_the_discrepancy(self, capsys, monkeypatch):
        def perturbed(t, nu, original=acceptance.semigroup_norm):
            res = original(t, nu)
            return dataclasses.replace(res, mu1=res.mu1 * (1.0 + 1e-8))
        monkeypatch.setattr(acceptance, "semigroup_norm", perturbed)
        rc, out, _ = run(capsys, ["norms", "--nu", "1",
                                  "--t", "0.1:1:3:log"])
        assert rc == 0
        assert _verdicts(out) == ["false"] * 3

    def test_norms_underflow_keeps_every_row(self, capsys):
        # at nu = 1e4 the closed norm underflows to 0 and mu2 overflows
        rc, out, _ = run(capsys, ["norms", "--nu", "0.5,1,4,100,1e4",
                                  "--t", "0.001:20:25:log"])
        assert rc == 0
        assert _verdicts(out) == ["true"] * 125
        zero = [row for row in out.split("\n")[2:]
                if row.startswith("10000,") and row.split(",")[2] == "0"]
        assert zero and all(row.split(",")[5] == "0" for row in zero)

    def test_positivity_verdict_reads_the_residual(self, capsys, monkeypatch):
        def off_threshold(*args, original=acceptance.positivity_report):
            return dataclasses.replace(original(*args), det_residual=1e-6)
        monkeypatch.setattr(acceptance, "positivity_report", off_threshold)
        rc, out, _ = run(capsys, ["positivity", "--nu", "1", "--alpha", "pi2",
                                  "--t", "0.5:1:2:lin"])
        assert rc == 0
        assert _verdicts(out) == ["false"] * 4


class TestCommandFlags:
    COMMON = {"-h", "--help", "--config", "--out"}
    TABLE = COMMON | {"--format"}
    FLAGS = {
        "norms": TABLE | {"--nu", "--t"},
        "delta0": TABLE | {"--nu", "--alpha", "--t"},
        "positivity": TABLE | {"--nu", "--alpha", "--t"},
        "bargmann": TABLE | {"--nu", "--t"},
        "resolvent": TABLE | {"--nu"},
        "optimality": TABLE | {"--nu"},
        "degenerate": TABLE | {"--lambda1", "--t"},
        "subelliptic": TABLE | {"--nu", "--dims"},
        "verify-all": COMMON | {"--criteria", "--seed"},
    }

    def test_each_command_accepts_its_flags(self):
        parser = _build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {flag for action in sub._actions
                           for flag in action.option_strings}
                    for name, sub in subparsers.choices.items()}
        assert accepted == self.FLAGS


class TestJsonOutput:
    def test_norms_json_is_valid_and_versioned(self, capsys):
        rc, out, _ = run(capsys, ["norms", "--nu", "1",
                                  "--t", "0.1:1:4:log", "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["command"] == "norms"
        assert doc["parameters"]["nu"] == "1"
        assert len(doc["rows"]) == 4
        assert all(len(row) == len(doc["columns"]) for row in doc["rows"])

    def test_json_none_becomes_null(self, capsys):
        rc, out, _ = run(capsys, ["subelliptic", "--nu", "1",
                                  "--dims", "12", "--format", "json"])
        assert rc == 0
        doc = json.loads(out)
        t_col = doc["columns"].index("t")
        assert doc["rows"][0][t_col] is None


class TestConfigPrecedence:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": "3", "t": "0.5:1:2:lin"}))
        rc, out, _ = run(capsys, ["norms", "--config", str(cfg)])
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert "nu=3" in lines[0]
        assert len(lines) == 2 + 2

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": "3", "t": "0.5:1:2:lin"}))
        rc, out, _ = run(capsys, ["norms", "--config", str(cfg),
                                  "--nu", "7"])
        assert rc == 0
        assert "nu=7" in out.split("\n")[0]

    def test_unknown_config_key_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu": "3"}))
        rc, _, err = run(capsys, ["norms", "--config", str(cfg)])
        assert rc == 2
        assert "not an option" in err


class TestErrorExits:
    @pytest.mark.parametrize("argv", [
        ["norms", "--t", "oops"],
        ["norms", "--t", "1:2:0:log"],
        ["norms", "--t", "2:1:5:log"],
        ["norms", "--nu", "-1"],
        ["delta0", "--nu", "0"],
        ["subelliptic", "--nu", "0"],
        # the pencil needs at least 8 levels per direction
        ["subelliptic", "--dims", "5"],
        ["subelliptic", "--dims", "7"],
        # every number must be finite
        ["norms", "--nu", "nan"],
        ["norms", "--t", "0.1:inf:3:log"],
        ["norms", "--t", "nan:1:3:log"],
        ["optimality", "--nu", "inf"],
        ["degenerate", "--lambda1", "nan"],
        ["verify-all", "--criteria", "99"],
    ])
    def test_bad_input_is_exit_2(self, capsys, argv):
        rc, _, err = run(capsys, argv)
        assert rc == 2
        assert "config error" in err or "field" in err

    @pytest.mark.parametrize("command, field, value", [
        ("norms", "nu", float("nan")),
        ("norms", "nu", "1,inf"),
        ("norms", "t", [0.1, float("inf")]),
        ("optimality", "nu", [float("inf")]),
        ("degenerate", "lambda1", float("nan")),
        ("subelliptic", "dims", float("inf")),
    ])
    def test_non_finite_config_is_exit_2(self, capsys, tmp_path, command,
                                         field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        rc, out, err = run(capsys, [command, "--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert "config error: field '%s'" % field in err

    def test_numerical_failure_is_exit_3(self, capsys, tmp_path):
        # a witness coarse enough that grid refinement rejects it
        rc, _, err = run(capsys, ["optimality", "--nu", "8886110",
                                  "--out", str(tmp_path / "w.csv")])
        assert rc == 3
        assert "GridUnderResolved" in err

    def test_norm_not_converged_is_exit_3(self, capsys, tmp_path,
                                          monkeypatch):
        # criterion 5 reaches the Galerkin norms, whose ARPACK run stalls
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros(0))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
        rc, _, err = run(capsys, ["verify-all", "--criteria", "5",
                                  "--out", str(tmp_path / "v.txt")])
        assert rc == 3
        assert "NormNotConverged" in err

    @pytest.mark.parametrize("command", ["delta0", "positivity"])
    @pytest.mark.parametrize("nu", ["5000", "1e4", "1e6"])
    def test_overflow_at_large_nu_is_exit_3(self, capsys, command, nu):
        # the flow-form coefficients grow like e^{2 sqrt(nu) t}; at t = 3 the
        # determinant or the threshold itself is no longer finite
        rc, _, err = run(capsys, [command, "--nu", nu, "--t", "3:3:1:lin"])
        assert rc == 3
        assert "numerical failure" in err
        # the message names the quantity that overflowed
        assert "NonFiniteDeterminant" in err or "NonRealDelta0" in err
        assert "t=3" in err
        assert "RuntimeWarning" not in err

    def test_config_error_importable(self):
        assert issubclass(ConfigError, ValueError)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys):
        argv = ["bargmann", "--nu", "1", "--t", "0.5:2:3:log"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert first

    def test_json_runs_are_byte_identical(self, capsys):
        argv = ["delta0", "--nu", "1", "--alpha", "pi2",
                "--t", "0.1:1:4:log", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestVerifyAll:
    def test_fast_subset_passes(self, capsys):
        rc, out, err = run(capsys, ["verify-all", "--criteria", "1,2"])
        assert rc == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0].startswith("criterion 01 PASS")
        assert lines[1].startswith("criterion 02 PASS")
        assert lines[-1] == "passed 2 of 2 criteria"
        assert "elapsed" in err

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        rc = main(["verify-all", "--criteria", "2", "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        text = path.read_text()
        assert text.startswith("criterion 02 PASS")
        assert text.endswith("passed 1 of 1 criteria\n")
