import json
import subprocess
import sys

import numpy as np
import pytest

from tdiscrim.cli import main
from tdiscrim.closed_form import critical_b
from tdiscrim.designs import Design


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCritical:
    def test_value_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "critical", "--n", "5")
        assert code == 0
        assert float(out) == critical_b(5)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "critical", "--n", "7")
        _, out2, _ = run_cli(capsys, "critical", "--n", "7")
        assert out1 == out2

    def test_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--n", "1")
        assert code == 2
        assert "error" in err


class TestDesign:
    def test_json_design_parses(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--n", "4", "--b", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "positive_b"
        d = Design.from_json(out)
        assert d.support_size == 4
        assert payload["criterion"] == pytest.approx(
            (1.0 + 0.3 / 4.0) ** 8 / 2.0**6, rel=1e-10
        )

    def test_zero_b_defaults_to_symmetric_member(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "3", "--b", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.5
        assert len(payload["points"]) == 4
        assert "alpha" in err

    def test_zero_b_with_explicit_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--n", "3", "--b", "0",
                               "--alpha", "0")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["points"]) == 3

    def test_outside_regime_exit_code_and_hint(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "3", "--b", "2")
        assert code == 3
        assert out == ""
        assert "trajectory" in err

    def test_bad_alpha_is_argument_error(self, capsys):
        code, _, _ = run_cli(capsys, "design", "--n", "3", "--b", "0",
                             "--alpha", "2")
        assert code == 2

    def test_nan_ratio_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "5", "--b", "nan")
        assert code == 2
        assert out == ""
        assert "b must be a number" in err

    def test_infinite_ratio_is_outside_regime(self, capsys):
        for b in ("inf", "-inf"):
            code, out, _ = run_cli(capsys, "design", "--n", "5", f"--b={b}")
            assert code == 3
            assert out == ""


class TestTrajectory:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--n", "3",
                               "--bbar-min", "0", "--bbar-max", "1",
                               "--steps", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "bbar,t_1,t_2,t_3,w_1,w_2,w_3,criterion"
        assert len(lines) == 4
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == -1.0 and first[3] == 1.0

    def test_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, out, _ = run_cli(capsys, "trajectory", "--n", "4",
                               "--bbar-min", "-0.2", "--bbar-max", "0.2",
                               "--steps", "5", "--out", str(out_file))
        assert code == 0
        assert out == ""
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0].count(",") == 9

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TDISCRIM_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "trajectory", "--n", "3",
                             "--bbar-min", "0", "--bbar-max", "0.5",
                             "--steps", "2", "--out", "t.csv")
        assert code == 0
        assert (tmp_path / "t.csv").exists()

    def test_grid_outside_interval(self, capsys):
        code, _, err = run_cli(capsys, "trajectory", "--n", "3",
                               "--bbar-min", "0", "--bbar-max", "2",
                               "--steps", "4")
        assert code == 3

    def test_float_events_raise_no_warning(self):
        # at n = 26 the walk overshoots into overflow; that must fail a step,
        # not print numpy warnings
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "tdiscrim",
             "trajectory", "--n", "26", "--bbar-min", "-5", "--bbar-max", "5",
             "--steps", "5"],
            capture_output=True, text=True,
        )
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode in (0, 4)

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(capsys, "trajectory", "--n", "3",
                             "--bbar-min", "0", "--bbar-max", "1",
                             "--steps", "0")
        assert code == 2


class TestMaximin:
    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "maximin", "--n", "3",
                               "--interval", "all")
        assert code == 0
        d = Design.from_json(out)
        assert np.allclose(d.points, [-1.0, -0.5, 0.5, 1.0], atol=1e-15)

    def test_rays_mirror(self, capsys):
        _, up, _ = run_cli(capsys, "maximin", "--n", "4",
                           "--interval", "geq:0.4")
        _, down, _ = run_cli(capsys, "maximin", "--n", "4",
                             "--interval", "leq:-0.4")
        du, dd = Design.from_json(up), Design.from_json(down)
        assert np.allclose(dd.points, -du.points[::-1], atol=1e-15)

    def test_bad_interval(self, capsys):
        code, _, _ = run_cli(capsys, "maximin", "--n", "3",
                             "--interval", "between:0,1")
        assert code == 2
        code, _, _ = run_cli(capsys, "maximin", "--n", "3",
                             "--interval", "leq:0.4")
        assert code == 2


class TestVerify:
    def test_verify_generated_design(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "design", "--n", "5", "--b", "0.4")
        f = tmp_path / "design.json"
        f.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--design", str(f),
                               "--n", "5", "--b", "0.4")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["checks"]) == 4

    def test_verify_flags_wrong_design(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"points": [-1.0, 0.0, 1.0],
                                 "weights": [0.25, 0.5, 0.25]}))
        code, out, _ = run_cli(capsys, "verify", "--design", str(f),
                               "--n", "3", "--b", "0.5")
        assert code == 0
        assert json.loads(out)["passed"] is False

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--design", "/nope.json",
                               "--n", "3", "--b", "0.5")
        assert code == 2


class TestRemez:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "remez", "--n", "3", "--b", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] >= 1
        assert len(payload["extremal_points"]) >= 3
        signs = payload["signs"]
        assert all(a * b == -1 for a, b in zip(signs, signs[1:]))

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "remez", "--n", "6", "--b", "0.2")
        _, out2, _ = run_cli(capsys, "remez", "--n", "6", "--b", "0.2")
        assert out1 == out2

    def test_nan_tolerance_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "remez", "--n", "5", "--b", "1",
                                 "--tol", "nan")
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestPower:
    def test_csv_columns_and_reproducibility(self, capsys):
        args = ("power", "--reps", "10000", "--seed", "3")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[1] == "design,theta3,mc_power,std_err,analytic_power,reps,seed"
        assert len(lines) == 12
        for line in lines[2:]:
            cells = line.split(",")
            assert cells[0] in ("T-optimal", "Equidistant")
            assert int(cells[5]) == 10000 and int(cells[6]) == 3

    def test_reps_gate(self, capsys):
        code, _, _ = run_cli(capsys, "power", "--reps", "100")
        assert code == 2


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert main(["design", "--n", "3"]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tdiscrim", "critical", "--n", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout) == critical_b(4)

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import tdiscrim.cli as c; print(c._build_parser.cache_info().currsize)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"

    def test_shared_parser_keeps_no_state_between_calls(self, capsys):
        _, first, _ = run_cli(capsys, "critical", "--n", "5")
        assert run_cli(capsys, "design", "--n", "3")[0] == 2
        assert run_cli(capsys, "critical", "--help")[0] == 0
        code, again, _ = run_cli(capsys, "critical", "--n", "5")
        assert code == 0 and again == first
