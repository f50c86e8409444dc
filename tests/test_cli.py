import json
import re
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from tdiscrim.cli import main
from tdiscrim.closed_form import critical_b
from tdiscrim.continuation import solve_at
from tdiscrim.designs import Design
from tdiscrim.minimax import remez, target_polynomial


def mp_chebval(x, coeffs):
    """sum_k coeffs[k] T_k(x) in the working precision of mpmath."""
    prev, cur = mp.mpf(1), x
    total = coeffs[0]
    for c in coeffs[1:]:
        total += c * cur
        prev, cur = cur, 2 * x * cur - prev
    return total


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

    def test_beyond_critical_ratio_is_the_alternance(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "3", "--b", "2")
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["regime"] == "alternance"
        assert payload["alpha"] is None
        d = Design.from_json(out)
        state = solve_at(3, 0.5)
        assert d.points.tolist() == state.points.tolist()
        assert d.weights.tolist() == state.weights.tolist()

    def test_degree_two_beyond_critical_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--n", "2", "--b", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "alternance"
        assert payload["points"] == [-1.0, 1.0]
        assert payload["weights"] == [0.5, 0.5]
        assert payload["criterion"] == pytest.approx(25.0, rel=1e-15)

    def test_degree_beyond_the_maximum_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "41", "--b", "0.1")
        assert code == 2
        assert out == ""
        assert "n = 41 exceeds the maximum degree 40" in err

    def test_bad_alpha_is_argument_error(self, capsys):
        code, _, _ = run_cli(capsys, "design", "--n", "3", "--b", "0",
                             "--alpha", "2")
        assert code == 2

    def test_alpha_off_zero_ratio_is_ignored_with_a_note(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "4", "--b", "0.3", "--alpha", "0.2")
        assert code == 0
        assert err == "--alpha only selects among b = 0 optima; ignored\n"
        assert json.loads(out)["alpha"] is None

    def test_nan_ratio_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "design", "--n", "5", "--b", "nan")
        assert code == 2
        assert out == ""
        assert "b must be a number" in err

    def test_infinite_ratio_is_argument_error(self, capsys):
        for b in ("inf", "-inf"):
            code, out, err = run_cli(capsys, "design", "--n", "5", f"--b={b}")
            assert code == 2
            assert out == ""
            assert "b must be finite" in err


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
        # a floating-point event at n = 26 once failed this request; it must
        # succeed, and print no numpy warning
        proc = subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "tdiscrim",
             "trajectory", "--n", "26", "--bbar-min", "-5", "--bbar-max", "5",
             "--steps", "5"],
            capture_output=True, text=True,
        )
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode == 0, proc.stderr

    def test_symmetric_grid_prints_mirrored_rows(self, capsys):
        code, out, _ = run_cli(capsys, "trajectory", "--n", "5",
                               "--bbar-min", "-0.9", "--bbar-max", "0.9",
                               "--steps", "9")
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.strip().split("\n")[1:]]
        assert len(rows) == 9
        # the middle row, bbar = 0, is its own mirror
        for low, high in zip(rows[:4], rows[:4:-1]):
            assert low[0] == pytest.approx(-high[0], rel=1e-15, abs=0.0)
            # t_1..t_5, then w_1..w_5, then the criterion
            assert low[1:6] == [-t for t in high[5:0:-1]]
            assert low[6:11] == high[10:5:-1]
            assert low[11] == pytest.approx(high[11], rel=1e-12)

    def test_reversed_bounds_are_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "trajectory", "--n", "4", "--bbar-min", "0.5",
                                 "--bbar-max", "0.1", "--steps", "3")
        assert code == 2
        assert out == ""
        assert err == "error: --bbar-max must be >= --bbar-min\n"

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

    def test_degree_two_beyond_critical_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "maximin", "--n", "2",
                               "--interval", "geq:5")
        assert code == 0
        d = Design.from_json(out)
        assert d.points.tolist() == [-1.0, 1.0]
        assert d.weights.tolist() == [0.5, 0.5]

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

    @pytest.mark.parametrize("design", [{"points": {}, "weights": [1.0]},
                                        {"points": [0.0], "weights": {"w": 1.0}},
                                        {"points": [{}], "weights": [1.0]}])
    def test_object_for_a_list_is_argument_error(self, tmp_path, capsys, design):
        f = tmp_path / "design.json"
        f.write_text(json.dumps(design))
        code, out, err = run_cli(capsys, "verify", "--design", str(f),
                                 "--n", "3", "--b", "0.5")
        assert code == 2
        assert out == ""
        assert "lists of numbers" in err


class TestRemez:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "remez", "--n", "3", "--b", "1.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] >= 1
        assert len(payload["extremal_points"]) >= 3
        signs = payload["signs"]
        assert all(a * b == -1 for a, b in zip(signs, signs[1:]))

    def test_approximant_in_monomial_coefficients(self, capsys):
        # the best linear approximation of x^3 on [-1, 1] is 3x/4
        _, out, _ = run_cli(capsys, "remez", "--n", "3", "--b", "0")
        assert json.loads(out)["approximant"] == pytest.approx([0.0, 0.75], abs=1e-14)

    def test_full_alternance_at_high_degree(self, capsys):
        code, out, _ = run_cli(capsys, "remez", "--n", "30", "--b", "50")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["extremal_points"]) == 30
        assert len(payload["approximant"]) == 29
        signs = payload["signs"]
        assert all(a * b == -1 for a, b in zip(signs, signs[1:]))

    def test_chebyshev_keys_carry_the_result_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "remez", "--n", "12", "--b", "3")
        assert code == 0
        payload = json.loads(out)
        res = remez(12, 3.0)
        assert payload["approximant_chebyshev"] == res.approximant.coeffs.tolist()
        assert payload["psi_chebyshev"] == res.psi.coeffs.tolist()
        assert len(payload["approximant_chebyshev"]) == 11
        assert payload["psi_chebyshev"][11:] == target_polynomial(12, 3.0).coeffs[11:].tolist()

    @pytest.mark.parametrize("n,holds", [(12, True), (20, True), (40, False)])
    def test_monomial_approximant_loses_digits_at_high_degree(self, capsys, n, holds):
        # share of the deviation by which the monomial coefficients, summed at
        # 60 digits, miss the Chebyshev approximant: 7.9e-10 at n = 20, 1.5e-2 at n = 40
        for b in (0.5 * critical_b(n), 3.0 * critical_b(n)):
            payload = json.loads(run_cli(capsys, "remez", "--n", str(n), f"--b={b!r}")[1])
            with mp.workdps(60):
                mono = [mp.mpf(c) for c in payload["approximant"]][::-1]
                cheb = [mp.mpf(c) for c in payload["approximant_chebyshev"]]
                xs = [mp.cos(mp.pi * (k + mp.mpf(0.5)) / 400) for k in range(400)]
                miss = max(abs(mp.polyval(mono, x) - mp_chebval(x, cheb)) for x in xs)
            loss = float(miss) / payload["deviation"]
            assert (loss <= 1e-8) if holds else (loss > 1e-4)

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "remez", "--n", "6", "--b", "0.2")
        _, out2, _ = run_cli(capsys, "remez", "--n", "6", "--b", "0.2")
        assert out1 == out2

    def test_solver_failure_exits_4(self, capsys):
        # no exchange closes its gap to 1e-300 of the deviation
        code, out, err = run_cli(capsys, "remez", "--n", "5", "--b", "100", "--tol", "1e-300")
        assert code == 4
        assert out == ""
        assert re.fullmatch(r"error: no equioscillation within 100 iterations \(gap \S+\)\n", err)

    def test_nan_tolerance_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "remez", "--n", "5", "--b", "1",
                                 "--tol", "nan")
        assert code == 2
        assert out == ""
        assert "tol" in err

    @pytest.mark.parametrize("tol", ["1", "inf"])
    def test_tolerance_of_one_or_more_is_argument_error(self, capsys, tol):
        # it would stop on the first, unconverged reference
        code, out, err = run_cli(capsys, "remez", "--n", "5", "--b", "1",
                                 "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol" in err


class TestNonNumericArguments:
    """NaN b or bbar is a bad argument (exit 2); infinite ones are outside (exit 3)
    where a regime applies, and bad arguments where none does (design, remez, verify)."""

    @pytest.mark.parametrize("b", ["1e200", "-1e200"])
    def test_ratio_whose_square_overflows_is_argument_error(self, tmp_path, capsys, b):
        f = tmp_path / "design.json"
        f.write_text(run_cli(capsys, "maximin", "--n", "5", "--interval", "geq:1e200")[1])
        for argv in (["design"], ["remez"], ["verify", "--design", str(f)]):
            code, out, err = run_cli(capsys, *argv, "--n", "5", f"--b={b}")
            assert code == 2
            assert out == ""
            assert "is too large: its square overflows" in err

    def test_nan_bbar_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "trajectory", "--n", "5",
                                 "--bbar-min", "nan", "--bbar-max", "1",
                                 "--steps", "3")
        assert code == 2
        assert out == ""
        assert "bbar must be a number" in err
        assert "np.float64" not in err

    def test_infinite_bbar_is_outside_regime(self, capsys):
        code, out, err = run_cli(capsys, "trajectory", "--n", "5",
                                 "--bbar-min=-inf", "--bbar-max", "0",
                                 "--steps", "3")
        assert code == 3
        assert out == ""
        assert "np.float64" not in err

    def test_outside_interval_prints_plain_floats(self, capsys):
        code, _, err = run_cli(capsys, "trajectory", "--n", "3",
                               "--bbar-min", "0", "--bbar-max", "2",
                               "--steps", "4")
        assert code == 3
        assert "|bbar| = 2.0 " in err
        assert "np.float64" not in err

    def test_nan_b_in_remez_is_argument_error(self, capsys):
        code, out, err = run_cli(capsys, "remez", "--n", "5", "--b", "nan")
        assert code == 2
        assert out == ""
        assert "b must be a number" in err

    @pytest.mark.parametrize("b", ["inf", "-inf"])
    def test_infinite_b_in_remez_is_argument_error(self, capsys, b):
        code, out, err = run_cli(capsys, "remez", "--n", "5", f"--b={b}")
        assert code == 2
        assert out == ""
        assert "b must be finite" in err

    def test_infinite_b_in_verify_is_argument_error(self, tmp_path, capsys):
        f = tmp_path / "design.json"
        f.write_text(run_cli(capsys, "design", "--n", "5", "--b", "0.4")[1])
        code, out, err = run_cli(capsys, "verify", "--design", str(f),
                                 "--n", "5", "--b", "inf")
        assert code == 2
        assert out == ""
        assert "b must be finite" in err

    def test_nan_b_in_verify_is_argument_error(self, tmp_path, capsys):
        f = tmp_path / "design.json"
        f.write_text(run_cli(capsys, "design", "--n", "5", "--b", "0.4")[1])
        code, out, err = run_cli(capsys, "verify", "--design", str(f),
                                 "--n", "5", "--b", "nan")
        assert code == 2
        assert out == ""
        assert "b must be a number" in err


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

    @pytest.mark.parametrize("argv", [
        ["design", "--n", "5", "--b", "-1e-3"],
        ["design", "--b", "-1E+0", "--n", "5"],
        ["design", "--n", "5", "--b", "-.5"],
        ["remez", "--n", "5", "--b", "-inf"],
        ["remez", "--n", "5", "--b", "-NaN"],
        ["trajectory", "--n", "5", "--bbar-min", "-1e-1", "--bbar-max", "0.1",
         "--steps", "2"],
    ])
    def test_negative_float_literals_are_values(self, capsys, argv):
        # each value after an option, spaced or joined by =, is the same argument
        joined = []
        for arg in argv:
            if joined and joined[-1].startswith("--") and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        spaced = run_cli(capsys, *argv)
        assert "expected one argument" not in spaced[2]
        assert spaced == run_cli(capsys, *joined)

    def test_negative_float_in_verify_is_a_value(self, tmp_path, capsys):
        f = tmp_path / "design.json"
        f.write_text(run_cli(capsys, "design", "--n", "5", "--b", "-0.001")[1])
        spaced = run_cli(capsys, "verify", "--design", str(f), "--n", "5", "--b", "-1e-3")
        assert spaced[0] == 0 and json.loads(spaced[1])["passed"] is True
        assert spaced == run_cli(capsys, "verify", "--design", str(f), "--n", "5",
                                 "--b=-1e-3")

    def test_shared_parser_keeps_no_state_between_calls(self, capsys):
        _, first, _ = run_cli(capsys, "critical", "--n", "5")
        assert run_cli(capsys, "design", "--n", "3")[0] == 2
        assert run_cli(capsys, "critical", "--help")[0] == 0
        code, again, _ = run_cli(capsys, "critical", "--n", "5")
        assert code == 0 and again == first
