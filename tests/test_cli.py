"""End-to-end tests for the command-line experiment runner."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jordannum import ParseError, from_descriptor
from jordannum import functionals as fn
from jordannum.cli import run


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def parse_points(text):
    points = [complex(float(r), float(i))
              for r, i in (line.split(",")
                           for line in text.strip().split("\n"))]
    return sorted(points, key=lambda z: (z.real, z.imag))


class TestImport:
    def test_cli_imports_no_scipy(self):
        # a fresh interpreter, since this test process has imported scipy
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys, jordannum.cli; print(jordannum.cli.__file__); "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        where, loaded = done.stdout.splitlines()
        assert Path(where).is_relative_to(src)
        assert loaded == "[]"


class TestParseAlgebra:
    def test_families(self):
        assert from_descriptor("matrix:3").dim == 9
        assert from_descriptor("spin:4").dim == 5
        assert from_descriptor("fn:6").dim == 6
        assert from_descriptor("sum:fn:2+matrix:2").dim == 6

    def test_three_summands(self):
        assert from_descriptor("sum:fn:1+fn:1+spin:2").dim == 5

    @pytest.mark.parametrize("bad", ["matrix:0", "cube:3", "matrix",
                                     "sum:fn:2", "fn:-1", ""])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            from_descriptor(bad)


class TestValidate:
    def test_spin_passes(self):
        code, text = invoke(["validate", "--algebra", "spin:4",
                             "--seed", "3", "--samples", "10"])
        assert code == 0
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert all(": pass " in line for line in lines)
        assert lines[0].startswith("jordan_identity:")

    def test_direct_sum_passes(self):
        code, text = invoke(["validate", "--algebra", "sum:fn:2+matrix:2",
                             "--samples", "5"])
        assert code == 0

    def test_zero_samples_rejected(self, capsys):
        code, text = invoke(["validate", "--algebra", "fn:3",
                             "--samples", "0"])
        assert code == 2
        assert text == ""
        assert "--samples: must be at least 1" in capsys.readouterr().err


class TestSpectrum:
    def test_fn_element(self):
        # coefficients are interleaved real,imag pairs
        code, text = invoke(["spectrum", "--algebra", "fn:3",
                             "--element", "1,0,0,2,-5,0"])
        assert code == 0
        got = parse_points(text)
        assert len(got) == 3
        for point, expected in zip(got, (-5.0, 2j, 1.0)):
            assert abs(point - expected) <= 1e-9

    def test_matrix_diag(self):
        code, text = invoke(["spectrum", "--algebra", "matrix:2",
                             "--element", "4,0,0,0,0,0,7,0"])
        assert code == 0
        got = parse_points(text)
        assert len(got) == 2
        assert abs(got[0] - 4.0) <= 1e-9
        assert abs(got[1] - 7.0) <= 1e-9

    def test_matrix_jordan_block_is_one_point(self):
        # [[1, 2], [0, 1]] is not diagonalizable; its spectrum is {1}
        code, text = invoke(["spectrum", "--algebra", "matrix:2",
                             "--element", "1,0,2,0,0,0,1,0"])
        assert code == 0
        got = parse_points(text)
        assert len(got) == 1
        assert abs(got[0] - 1.0) <= 1e-12

    def test_element_from_file(self, tmp_path):
        path = tmp_path / "el.txt"
        path.write_text("1,0\n0,0\n2,0\n")
        code, text = invoke(["spectrum", "--algebra", "fn:3",
                             "--element", str(path)])
        assert code == 0
        got = parse_points(text)
        assert len(got) == 3
        for point, expected in zip(got, (0.0, 1.0, 2.0)):
            assert abs(point - expected) <= 1e-9

    def test_missing_element(self):
        code, _ = invoke(["spectrum", "--algebra", "fn:3"])
        assert code == 2

    def test_wrong_length(self):
        code, _ = invoke(["spectrum", "--algebra", "fn:3",
                          "--element", "1,0"])
        assert code == 2

    def test_element_file_that_is_not_utf8_is_a_usage_error(self, tmp_path,
                                                             capsys):
        path = tmp_path / "el.txt"
        path.write_bytes(b"\xff1,0,0,0\n")
        code, text = invoke(["spectrum", "--algebra", "fn:2",
                             "--element", str(path)])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_is_a_parse_error(self, value, capsys):
        code, text = invoke(["spectrum", "--algebra", "fn:2",
                             "--element", f"{value},0,1,0"])
        assert code == 2
        assert text == ""
        assert "finite" in capsys.readouterr().err

    def test_spectrum_beyond_the_double_range_is_an_error(self, capsys):
        # spin:2 [1.7e308]*3: H's entry sqrt(2) 1.7e308 overflows
        code, text = invoke(["spectrum", "--algebra", "spin:2", "--element",
                             "1.7e308,0,1.7e308,0,1.7e308,0"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == \
            "error: the compression of L_x to C[x] is beyond the " \
            "double-precision range\n"


class TestTrotter:
    @pytest.mark.parametrize("formula",
                             ["jordan_product", "U_single", "U_pair"])
    def test_csv_shape(self, formula):
        code, text = invoke(["trotter", "--algebra", "spin:3", "--seed", "7",
                             "--formula", formula,
                             "--n-grid", "16:4096:2"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "formula,algebra,seed,n,error"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 9  # 16, 32, ..., 4096
        assert data[0].startswith(f"{formula},spin:3,7,16,")
        footers = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# slope=") for l in footers)
        assert any(l.startswith("# target_norm=") for l in footers)

    def test_deterministic_bytes(self, tmp_path):
        argv = ["trotter", "--algebra", "matrix:2", "--seed", "42",
                "--formula", "U_single", "--n-grid", "16:512:2"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_bad_grid(self):
        code, _ = invoke(["trotter", "--algebra", "fn:2",
                          "--n-grid", "16:4096"])
        assert code == 2

    def test_short_grid_is_a_usage_error(self, capsys):
        code, text = invoke(["trotter", "--algebra", "fn:3",
                             "--n-grid", "16:64:2"])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith(
            "error: need a geometric grid with at least 6 points")

    def test_unknown_formula(self):
        code, _ = invoke(["trotter", "--algebra", "fn:2",
                          "--formula", "lie_bracket"])
        assert code == 2


class TestFunctional:
    def test_character_passes(self):
        code, text = invoke(["functional", "--algebra", "fn:3",
                             "--functional", "char:1", "--samples", "6"])
        assert code == 0
        assert "passed=True" in text
        assert "sign_flipped=False" in text

    def test_negated_character_is_flipped_and_passes(self):
        code, text = invoke(["functional", "--algebra", "fn:3",
                             "--functional", "negchar:0", "--samples", "6"])
        assert code == 0
        assert "sign_flipped=True" in text
        assert "passed=True" in text

    @pytest.mark.parametrize("algebra, functional, vetted, code", [
        ("fn:3", "char:1", "char:1", 0),
        ("fn:3", "negchar:0", "-(negchar:0)", 0),
        # f(1) = 0: nothing to flip, and the vetting reports the unit sign
        ("spin:3", "char:2", "char:2", 1),
    ])
    def test_functional_is_vetted_once(self, algebra, functional, vetted,
                                       code, monkeypatch):
        labels = []
        vet = fn.verify_character_theorem

        def counted(f, *args, **kwargs):
            labels.append(f.label)
            return vet(f, *args, **kwargs)

        monkeypatch.setattr(fn, "verify_character_theorem", counted)
        got, text = invoke(["functional", "--algebra", algebra,
                            "--functional", functional])
        assert labels == [vetted]
        assert got == code
        assert f"passed={code == 0}" in text
        assert f"sign_flipped={vetted != functional}" in text
        assert ("failure=unit sign: " in text) == (algebra == "spin:3")

    def test_trace_fails(self):
        code, text = invoke(["functional", "--algebra", "matrix:2",
                             "--functional", "trace", "--samples", "20"])
        assert code == 1
        assert "passed=False" in text

    def test_trace_needs_a_matrix_algebra(self, capsys):
        code, text = invoke(["functional", "--algebra", "fn:3",
                             "--functional", "trace"])
        assert code == 2
        assert text == ""
        assert "requires a matrix algebra" in capsys.readouterr().err

    def test_zero_samples_rejected(self, capsys):
        code, text = invoke(["functional", "--algebra", "fn:3",
                             "--functional", "char:1", "--samples", "0"])
        assert code == 2
        assert text == ""
        assert "--samples: must be at least 1" in capsys.readouterr().err

    def test_unknown_functional(self):
        code, _ = invoke(["functional", "--algebra", "fn:3",
                          "--functional", "det"])
        assert code == 2

    def test_index_out_of_range(self):
        code, _ = invoke(["functional", "--algebra", "fn:3",
                          "--functional", "char:9"])
        assert code == 2


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = fn:3\n# a comment\nseed = 5\n")
        code, text = invoke(["validate", "--config", str(cfg),
                             "--samples", "5"])
        assert code == 0

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algebra = matrix:5\nn-grid = 16:512:2\n")
        code, text = invoke(["trotter", "--config", str(cfg),
                             "--algebra", "fn:2"])
        assert code == 0
        assert ",fn:2," in text
        data = [l for l in text.strip().split("\n")
                if not l.startswith(("#", "formula,"))]
        assert len(data) == 6  # 16, 32, ..., 512 from the config grid

    def test_explicit_default_valued_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nn-grid = 16:512:2\n")
        code, text = invoke(["trotter", "--config", str(cfg),
                             "--algebra", "fn:2", "--seed", "0"])
        assert code == 0
        data = [l for l in text.strip().split("\n")
                if not l.startswith(("#", "formula,"))]
        assert len(data) == 6  # the grid still comes from the config
        assert all(l.startswith("jordan_product,fn:2,0,") for l in data)

    def test_config_value_of_wrong_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = five\n")
        code, _ = invoke(["validate", "--config", str(cfg),
                          "--algebra", "fn:2"])
        assert code == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        code, _ = invoke(["validate", "--config", str(cfg),
                          "--algebra", "fn:2"])
        assert code == 2

    def test_missing_config_file(self):
        code, _ = invoke(["validate", "--config", "/nonexistent.cfg",
                          "--algebra", "fn:2"])
        assert code == 2

    def test_negative_seed_in_config_is_a_usage_error(self, tmp_path,
                                                        capsys):
        # the config value goes through the flag's argparse type
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        code, text = invoke(["validate", "--config", str(cfg),
                             "--algebra", "fn:2"])
        assert (code, text) == (2, "")
        assert "--seed: must be at least 0" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_a_usage_error(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xffseed = 1\n")
        code, text = invoke(["validate", "--config", str(cfg),
                             "--algebra", "fn:2"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text")


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["validate", "--algebra", "spin:4", "--seed", "3", "--samples", "5"],
        ["spectrum", "--algebra", "fn:3", "--element", "1,0,0,2,-5,0"],
        ["trotter", "--algebra", "fn:2", "--n-grid", "16:512:2"],
        ["functional", "--algebra", "fn:3", "--functional", "char:1",
         "--samples", "6"],
    ])
    def test_out_file_holds_the_stdout_bytes(self, argv, tmp_path):
        code, text = invoke(argv)
        path = tmp_path / "report.txt"
        out_code, out_text = invoke(argv + ["--out", str(path)])
        assert (out_code, out_text) == (code, "")
        assert path.read_bytes() == text.encode("utf-8")


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--algebra", "fn:3", "--element", "1,0,0,2,-5,0",
         "--seed", "1"],
        ["spectrum", "--algebra", "fn:3", "--element", "1,0,0,2,-5,0",
         "--samples", "3"],
        ["trotter", "--algebra", "fn:2", "--samples", "3"],
        ["validate", "--algebra", "fn:2", "--formula", "U_single"],
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv,
                                                           capsys):
        code, text = invoke(argv)
        assert code == 2
        assert text == ""
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_config_key_the_subcommand_does_not_read_is_ignored(self,
                                                                tmp_path):
        argv = ["trotter", "--algebra", "fn:2", "--n-grid", "16:512:2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\nelement = 1,0\n")
        assert invoke(argv + ["--config", str(cfg)]) == invoke(argv)


class TestUsageErrors:
    def test_no_algebra(self):
        code, _ = invoke(["validate"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = invoke(["frobnicate"])
        assert code == 2

    def test_bad_descriptor(self):
        code, _ = invoke(["validate", "--algebra", "ring:3"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--algebra", "fn:2"],
        ["trotter", "--algebra", "fn:2"],
        ["functional", "--algebra", "fn:2", "--functional", "char:0"],
    ])
    def test_negative_seed(self, argv, capsys):
        # default_rng refuses a negative seed; argparse refuses it first
        code, text = invoke(argv + ["--seed", "-1"])
        assert (code, text) == (2, "")
        assert "--seed: must be at least 0" in capsys.readouterr().err

    def test_size_too_long_for_int(self, capsys):
        # int() refuses more than 4,300 digits; no algebra is built
        code, text = invoke(["validate", "--algebra", "fn:" + "9" * 5000])
        assert code == 2
        assert text == ""
        assert "size too big (5000 digits)" in capsys.readouterr().err

    def test_malformed_config_line_names_no_offset(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\njust a line without equals\n")
        code, text = invoke(["validate", "--config", str(cfg),
                             "--algebra", "fn:2"])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: expected key = value\n")

    def test_unknown_formula_names_no_offset(self, capsys):
        code, text = invoke(["trotter", "--algebra", "fn:2",
                             "--formula", "lie_bracket"])
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: unknown formula 'lie_bracket'")
        assert "(at offset" not in err

    def test_descriptor_error_keeps_its_offset(self, capsys):
        # a real offset of 0 is still named
        code, _ = invoke(["validate", "--algebra", "ring:3"])
        assert code == 2
        assert capsys.readouterr().err.endswith("(at offset 0)\n")

    def test_parse_error_offset_is_optional(self):
        assert str(ParseError("bad")) == "bad"
        assert ParseError("bad").offset is None
        assert str(ParseError("bad", 0)) == "bad (at offset 0)"

    @pytest.mark.parametrize("family", ["fn", "spin", "matrix"])
    def test_size_too_big_for_numpy(self, family, capsys):
        # numpy refuses the arrays of a 20-digit size before allocating them
        code, text = invoke(["validate", "--algebra", f"{family}:" + "9" * 20])
        assert code == 2
        assert text == ""
        assert "size too big" in capsys.readouterr().err
