"""End-to-end tests of the command line interface, run in process."""

import json

import pytest

from kfpq.cli import ConfigError, main


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
        ["verify-all", "--criteria", "99"],
    ])
    def test_bad_input_is_exit_2(self, capsys, argv):
        rc, _, err = run(capsys, argv)
        assert rc == 2
        assert "config error" in err or "field" in err

    def test_numerical_failure_is_exit_3(self, capsys, tmp_path):
        # a witness coarse enough that grid refinement rejects it
        rc, _, err = run(capsys, ["optimality", "--nu", "8886110",
                                  "--out", str(tmp_path / "w.csv")])
        assert rc == 3
        assert "GridUnderResolved" in err

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
        argv = ["bargmann", "--nu", "1", "--t", "0.5:2:3:log",
                "--seed", "0"]
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
