"""Command-line surface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import FIXTURES

from ruminslice.cli import main
from ruminslice.formio import save_chain
from ruminslice.currents import Simplex, SimplicialCurrent
from ruminslice.heis import HeisParams

F = Fraction
CUBE = str(FIXTURES / "cube_h1.json")
SQUARE = str(FIXTURES / "square_h2.json")


def middle_square_file(tmp_path):
    params = HeisParams(1)
    square = SimplicialCurrent(params, 2, [
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0))), F(1)),
        Simplex(((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0))), F(1)),
    ])
    path = tmp_path / "middle.json"
    save_chain(square, path)
    return str(path)


class TestVerifyCommands:
    def test_verify_complex_passes(self, capsys):
        assert main(["verify-complex", "--n", "1", "--seed", "7", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "RESULT PASS" in out
        assert "10/10 exact" in out

    def test_verify_lemmas_passes(self, capsys):
        assert main(["verify-lemmas", "--n", "1", "--seed", "3", "--count", "5"]) == 0
        out = capsys.readouterr().out
        assert "RESULT PASS" in out

    def test_determinism_byte_identical(self, capsys):
        main(["verify-complex", "--n", "1", "--seed", "11", "--count", "5"])
        first = capsys.readouterr().out
        main(["verify-complex", "--n", "1", "--seed", "11", "--count", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestSliceCommand:
    def test_slice_emits_chain_and_mass(self, capsys, tmp_path):
        out_path = tmp_path / "slice.json"
        code = main(["slice", "--chain", CUBE, "--f", "x1", "--t", "1/2",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mass 1" in out
        data = json.loads(out_path.read_text())
        assert data["version"] == "rumin-slice/1"
        assert data["degree"] == 2

    def test_minus_side(self, capsys):
        assert main(["slice", "--chain", CUBE, "--f", "x1", "--t", "1/3", "--minus"]) == 0
        assert "slice side -" in capsys.readouterr().out

    def test_vertex_level_exits_2(self, capsys):
        assert main(["slice", "--chain", CUBE, "--f", "x1", "--t", "0"]) == 2
        assert "scope error" in capsys.readouterr().err

    def test_missing_chain_exits_2(self, capsys):
        assert main(["slice", "--chain", "no-such-file.json", "--f", "x1", "--t", "1/2"]) == 2

    def test_bad_expression_exits_2(self, capsys):
        assert main(["slice", "--chain", CUBE, "--f", "dq9", "--t", "1/2"]) == 2

    def test_oversized_literal_in_expression_exits_2(self, capsys):
        segment = str(FIXTURES / "segment_h1.json")
        assert main(["slice", "--chain", segment, "--f", "1" * 5000 + "*x1", "--t", "1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_oversized_literal_in_chain_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"version": "rumin-slice/1", "n": 1, "degree": 1,'
                        ' "vertices": [["0", "0", "0"], ["%s/3", "0", "0"]],'
                        ' "simplices": [{"vertices": [0, 1]}]}' % ("1" * 5000))
        assert main(["slice", "--chain", str(path), "--f", "x1", "--t", "1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("level", ["1e-4400", "1" * 1001, "9" * 990 + "e+11"],
                             ids=["huge exponent", "1001 digits", "digits plus exponent"])
    def test_oversized_level_literal_exits_2(self, capsys, level):
        segment = str(FIXTURES / "segment_h1.json")
        with pytest.raises(SystemExit) as err:
            main(["slice", "--chain", segment, "--f", "x1", "--t", level])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --t: literal of" in captured.err
        assert "the limit is 1000" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_oversized_sweep_bound_exits_2(self, capsys, flag):
        bounds = {"--a": "0", "--b": "1"}
        bounds[flag] = "1e-4400"
        with pytest.raises(SystemExit) as err:
            main(["coarea", "--chain", CUBE, "--f", "x1", "--a", bounds["--a"],
                  "--b", bounds["--b"], "--grid", "2"])
        assert err.value.code == 2
        assert f"argument {flag}: literal of" in capsys.readouterr().err

    def test_unprintable_slice_coordinate_exits_2(self, capsys, tmp_path):
        # 1000-digit coordinates are within the cap, but the cut point's
        # coordinates grow past Python's 4300-digit int-string limit
        rng = random.Random(2024)

        def literal():
            return F(rng.randrange(10 ** 999, 10 ** 1000), rng.randrange(10 ** 999, 10 ** 1000))

        a, b = (tuple(literal() for _ in range(3)) for _ in range(2))
        level = ((a[0] + a[1] + b[0] + b[1]) / 2).limit_denominator(10 ** 990)
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({
            "version": "rumin-slice/1", "n": 1, "degree": 1,
            "vertices": [[str(c) for c in a], [str(c) for c in b]],
            "simplices": [{"vertices": [0, 1], "multiplicity": "1"}]}))
        assert main(["slice", "--chain", str(path), "--f", "x1+y1", "--t", str(level)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write a chain coordinate")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("level,shown", [
        ("1/3", "1/3"), ("0.25", "1/4"), ("2e-3", "1/500"),
        ("1" * 1000 + "/" + "3" * 1000, "1/3"),
    ], ids=["fraction", "decimal", "exponent", "1000 digits each side"])
    def test_level_literals_within_the_cap(self, capsys, level, shown):
        segment = str(FIXTURES / "segment_h1.json")
        assert main(["slice", "--chain", segment, "--f", "x1", "--t", level]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"slice side + at t = {shown}"

    @pytest.mark.parametrize("payload", [
        "[]",
        '{"version": "rumin-slice/1", "n": 1, "degree": 1,'
        ' "vertices": [["0", "0", "0"], ["1", "0", "0"]], "simplices": [[0, 1]]}',
        '{"version": "rumin-slice/1", "n": 1, "degree": 1,'
        ' "vertices": [5, ["1", "0", "0"]], "simplices": [{"vertices": [0, 1]}]}',
        '{"version": "rumin-slice/1", "n": 1, "degree": 1,'
        ' "vertices": [["0", "0", "0"], ["1", "0", "0"]],'
        ' "simplices": [{"vertices": [false, true]}]}',
    ], ids=["top-level list", "simplex entry is a list", "vertex row is a number",
            "boolean vertex index"])
    def test_malformed_chain_file_exits_2(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        for argv in (["slice", "--chain", str(path), "--f", "x1", "--t", "1/2"],
                     ["report", "--chain", str(path), "--f", "x1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
            assert "Traceback" not in captured.err


class TestCoareaCommand:
    def test_cube_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = main(["coarea", "--chain", CUBE, "--f", "x1",
                     "--a", "0", "--b", "1", "--grid", "10", "--out", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio 1 " in out and "[PASS]" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,mass,band_bound,ratio"
        assert len(lines) == 11
        assert lines[1] == "0.05,1,1,1"

    def test_middle_dimension_exits_2(self, capsys, tmp_path):
        path = middle_square_file(tmp_path)
        code = main(["coarea", "--chain", path, "--f", "x1",
                     "--a", "0", "--b", "1", "--grid", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "open" in err and "middle" in err

    def test_nonlinear_function_exits_2(self, capsys):
        code = main(["coarea", "--chain", CUBE, "--f", "x1*x1",
                     "--a", "0", "--b", "1", "--grid", "4"])
        assert code == 2


class TestReportCommand:
    def test_square_report_passes(self, capsys):
        assert main(["report", "--chain", SQUARE, "--f", "x1", "--levels", "4"]) == 0
        out = capsys.readouterr().out
        for key in ("P0", "P1", "P2", "P3", "P4", "P5", "P6"):
            assert f"{key} PASS" in out
        assert "RESULT PASS" in out

    def test_report_is_deterministic(self, capsys):
        main(["report", "--chain", SQUARE, "--f", "x1", "--levels", "3"])
        first = capsys.readouterr().out
        main(["report", "--chain", SQUARE, "--f", "x1", "--levels", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_middle_dimension_report_skips(self, capsys, tmp_path):
        path = middle_square_file(tmp_path)
        assert main(["report", "--chain", path, "--f", "x1", "--levels", "3"]) == 0
        out = capsys.readouterr().out
        assert "P4 SKIP" in out and "P5 SKIP" in out

    def test_explicit_middle_request_exits_2(self, capsys, tmp_path):
        path = middle_square_file(tmp_path)
        code = main(["report", "--chain", path, "--f", "x1",
                     "--levels", "3", "--properties", "4,5"])
        assert code == 2

    def test_vertical_f_exits_2_before_slicing(self, capsys):
        code = main(["report", "--chain", CUBE, "--f", "t", "--levels", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: closed-form Lipschitz constant needs a horizontal-affine f" in captured.err

    def test_vertical_f_reports_without_mass_bounds(self, capsys):
        code = main(["report", "--chain", CUBE, "--f", "t", "--levels", "3",
                     "--properties", "0,1,2,3,6"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("P0", "P1", "P2", "P3", "P6"):
            assert f"{key} PASS" in out
        assert "P4" not in out and "P5" not in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["report", "--chain", SQUARE, "--f", "x1", "--frobnicate"])
        assert err.value.code == 2

    def test_malformed_properties_exits_2(self, capsys):
        assert main(["report", "--chain", SQUARE, "--f", "x1",
                     "--properties", "1,zebra"]) == 2
        assert main(["report", "--chain", SQUARE, "--f", "x1",
                     "--properties", "9"]) == 2
