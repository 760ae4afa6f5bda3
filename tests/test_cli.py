"""Tests for configuration parsing, CSV emission and the CLI."""

import ast
import functools
import gc
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvsim
from nvsim import cli, fitting, motional
from nvsim.cli import run
from nvsim.config import (ARTIFACT_VERSION, Config, ConfigError, RunManifest,
                          format_number, parse_config, write_csv)
from nvsim.fitting import synthesize_dataset
from nvsim.linalg import eigensolve_counts
from nvsim.model import FineStructureParams


def make_config(tmp_path, extra=""):
    out = tmp_path / "out"
    path = tmp_path / "cfg.txt"
    path.write_text(f"output_dir = {out}\n{extra}", encoding="utf-8")
    return str(path), out


def no_warning_err(capfd, recwarn):
    """Stderr of the run, checked to carry no numpy warning. pytest records
    warnings instead of printing them, so `recwarn` sees what a user's
    terminal would."""
    err = capfd.readouterr().err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if w.category is RuntimeWarning]
    return err


def write_fixture(tmp_path, n=8, noise=0.0, strains=None, seed=18):
    if strains is None:
        rng = np.random.default_rng(17)
        strains = np.sort(rng.uniform(0.5, 20.0, n))
    rows = ["defect_id,line_ghz"]
    for d in synthesize_dataset(FineStructureParams(), strains,
                                noise=noise, seed=seed):
        rows.extend(f"{d.id},{x:.9f}" for x in d.lines)
    path = tmp_path / "fixture.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


# modules no nvsim process loads unless a bare `import numpy` does
HOST_LOADED = ("dataclasses", "argparse", "gettext", "locale")


@functools.cache
def numpy_loads(*names):
    """Those of names that a bare `import numpy` loads on this host."""
    code = (f"import sys, numpy; print([n for n in {names} "
            "if n in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return tuple(ast.literal_eval(out))


# every subcommand at a small size (`fit` gets a 4-defect fixture) and the
# files it writes, in write order
SMALL_COMMANDS = [
    (["levels"], ["levels.csv"]),
    (["sweep"], ["sweep.csv", "crossings.csv"]),
    (["lines"], ["lines.csv"]),
    (["excitation", "--detuning-points", "21"], ["excitation.csv"]),
    (["rabi", "--readout", "sxy", "--tau-points", "5"], ["rabi.csv"]),
    (["odmr", "--freq-points", "21"], ["odmr.csv"]),
    (["odmr", "--temperature-scan", "--temp-points", "5"],
     ["odmr_contrast.csv"]),
    (["avg", "--points", "11"], ["avg.csv"]),
    (["fit"], ["fit_report.txt", "fit_strains.csv"]),
]


def command_id(argv):
    return "-".join(a.lstrip("-") for a in argv[:2])


class TestConfig:
    def test_defaults_present(self):
        cfg = Config()
        assert cfg["lambda_z"] == 5.3
        assert cfg["strain_points"] == 801

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("lambda_zz = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("lambda_z = five\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3: key 'd_es' already "
                                              r"set on line 1"):
            parse_config("d_es = 1.5\n\n  d_es=1.5 # again\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nd_es = 1.5  # inline\n")
        assert cfg["d_es"] == 1.5

    def test_dump_round_trip(self):
        cfg = parse_config("lambda_z = 4.2\nstrain_points = 101\n")
        again = parse_config(cfg.dump())
        assert again.values == cfg.values

    def test_typed_accessors(self):
        cfg = parse_config("lambda_perp = 0\nk_isc_z = 0.01\n")
        assert cfg.fine_structure().lambda_perp == 0.0
        assert cfg.rates().k_isc_z == 0.01
        assert cfg.temperature_map().r0 > 0
        assert cfg.strain_grid().size == 801


class TestWriteCsv:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a"], [(1.42,)])
        assert path.read_text() == "a\n1.42000000\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_rewrite_byte_identical(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = [(0.1 * k, "tag") for k in range(10)]
        write_csv(str(path), ["v", "t"], rows)
        first = path.read_bytes()
        write_csv(str(path), ["v", "t"], rows)
        assert path.read_bytes() == first

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), ["a", "b"], [(1.0,)])

    def test_format_number(self):
        assert format_number(1.42) == "1.42000000"
        assert format_number(0.000123456789) == "0.000123456789"

    def test_same_bytes_as_formatting_each_value(self, tmp_path):
        # rows mixing every value type the commands write, the types
        # changing from row to row within a column
        rng = np.random.default_rng(4)
        pool = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e300, -7,
                2 ** 60, True, False, "nv01", "gSz"]
        pool += rng.normal(0.0, 1.0, 20).tolist()
        pool += list(np.float64(x) for x in rng.normal(0.0, 1e5, 20))
        rows = [tuple(pool[j] for j in rng.integers(0, len(pool), 5))
                for _ in range(200)]
        path = tmp_path / "x.csv"
        write_csv(str(path), list("abcde"), rows)
        expect = ["a,b,c,d,e"] + [",".join(
            str(v) if isinstance(v, (bool, str)) else format_number(v)
            for v in row) for row in rows]
        assert path.read_text() == "\n".join(expect) + "\n"


class TestManifest:
    def test_render_contains_command_and_outputs(self):
        man = RunManifest(command="nvsim levels", config=Config(),
                          outputs=["levels.csv"])
        text = man.render()
        assert "command = nvsim levels" in text
        assert "output levels.csv" in text
        assert "version = " in text
        assert "lambda_z = 5.3" in text

    def test_single_version_string(self):
        tomllib = pytest.importorskip("tomllib")
        assert nvsim.__version__ == ARTIFACT_VERSION
        assert f"version = {ARTIFACT_VERSION}" in RunManifest(
            command="nvsim levels", config=Config()).render()
        root = Path(__file__).resolve().parents[1]
        meta = tomllib.loads((root / "pyproject.toml").read_text())
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == \
            {"attr": "nvsim.config.ARTIFACT_VERSION"}

    def test_command_words_quoted_as_shlex_quotes_them(self):
        for token in ["", "fit", "-2e6", "--strain=-1", "a b", "it's",
                      "my lines 'v2'.csv", "$HOME", "*.csv", "x\ny", "\u00e9",
                      "a@b%c+d=e:f,g./h-i_j"]:
            assert cli._shell_quote(token) == shlex.quote(token), token

    def test_recorded_command_replays(self, tmp_path, monkeypatch):
        # a path with a space and a quote stays one word of the recorded
        # line; the line, run in a fresh directory, gives the same files
        data = tmp_path / "my lines 'v2'.csv"
        os.replace(write_fixture(tmp_path, n=4), data)
        first, again = tmp_path / "first", tmp_path / "again"
        first.mkdir()
        again.mkdir()
        monkeypatch.chdir(first)
        assert run(["fit", str(data)]) == 0
        line = (first / "manifest.txt").read_text().splitlines()[0]
        argv = shlex.split(line.split(" = ", 1)[1])
        assert argv == ["nvsim", "fit", str(data)]
        monkeypatch.chdir(again)
        assert run(argv[1:]) == 0
        assert {p.name: p.read_bytes() for p in again.iterdir()} == \
            {p.name: p.read_bytes() for p in first.iterdir()}

    def test_input_hashed_before_outputs_are_written(self, tmp_path,
                                                      monkeypatch):
        # an input that an output overwrites is recorded as it was read
        monkeypatch.chdir(tmp_path)
        os.replace(write_fixture(tmp_path, n=4), "fit_report.txt")
        digest = hashlib.sha256(Path("fit_report.txt").read_bytes())
        assert run(["fit", "fit_report.txt"]) == 0
        assert f"input fit_report.txt sha256 {digest.hexdigest()}\n" in \
            Path("manifest.txt").read_text()


class TestCliCommands:
    def test_levels(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "levels"]) == 0
        text = capsys.readouterr().out
        assert "A2 - A1" in text
        assert (out / "levels.csv").exists()
        assert (out / "manifest.txt").exists()

    def test_levels_a2_a1_value(self, tmp_path):
        cfg, out = make_config(tmp_path, "lambda_perp = 0\n")
        assert run(["--config", cfg, "levels"]) == 0
        rows = (out / "levels.csv").read_text().splitlines()[1:]
        e = {r.split(",")[0]: float(r.split(",")[1]) for r in rows}
        assert e["A2"] - e["A1"] == pytest.approx(3.10, abs=1e-9)

    def test_levels_label_each_level_once(self, tmp_path, capsys):
        # a per-level argmax labelled two of these levels A1 and printed
        # A2 - A1 = 5.22688938 GHz
        cfg, out = make_config(tmp_path, "lambda_z = 1.6131365190189433\n"
                               "lambda_perp = 0.5374671513261948\n"
                               "d_es = 1.0756563538067068\n"
                               "delta_cap = 2.669178381874575\n")
        assert run(["--config", cfg, "levels"]) == 0
        assert "A2 - A1 = 5.45018338 GHz" in capsys.readouterr().out
        rows = (out / "levels.csv").read_text().splitlines()[1:]
        assert sorted(r.split(",")[0] for r in rows) == sorted(
            ["E1", "E2", "E'x", "E'y", "A1", "A2"])

    def test_avg_within_band(self, tmp_path):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "avg", "--max-strain", "30",
                    "--points", "61"]) == 0
        rows = (out / "avg.csv").read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert all(abs(v - 1.42) < 0.05 for v in vals)

    def test_fit_reports_parameters(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        fixture = write_fixture(tmp_path)
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg2, out2 = make_config(tmp_path, init)
        assert run(["--config", cfg2, "fit", fixture]) == 0
        report = (out2 / "fit_report.txt").read_text()
        assert "lambda_z_ghz = 5.300000" in report
        assert "d_es_ghz = 1.420000" in report
        assert "delta_cap_ghz = 1.550000" in report
        assert (out2 / "fit_strains.csv").exists()

    def test_fit_reports_errors(self, tmp_path):
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        fixture = write_fixture(tmp_path, noise=0.01)
        for flags, free in (([], ()), (["--free-lambda-perp"],
                                       ("lambda_perp",))):
            assert run(["--config", cfg, "fit", *flags, fixture]) == 0
            report = dict(line.split(" = ") for line in (
                out / "fit_report.txt").read_text().splitlines())
            names = ("lambda_z", "d_es", "delta_cap") + free
            assert {k for k in report if k.endswith("_err_ghz")} == {
                f"{n}_err_ghz" for n in names}
            for n in names:
                assert 0 < float(report[f"{n}_err_ghz"]) < 0.2

    def test_fit_free_lambda_perp_from_zero(self, tmp_path, capsys):
        init = ("lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
                "lambda_perp = 0\n")
        cfg, out = make_config(tmp_path, init)
        fixture = write_fixture(tmp_path)
        assert run(["--config", cfg, "fit", "--free-lambda-perp",
                    fixture]) == 0
        report = dict(line.split(" = ") for line in (
            out / "fit_report.txt").read_text().splitlines())
        assert float(report["lambda_perp_ghz"]) == pytest.approx(0.2,
                                                                 abs=1e-6)
        assert "lambda_perp_err_ghz" in report

    def test_config_named_by_the_flag_alone(self, tmp_path, monkeypatch):
        cfg, _ = make_config(tmp_path, "lambda_z = 6\n")
        monkeypatch.setenv("NVSIM_CONFIG", cfg)
        monkeypatch.chdir(tmp_path)
        assert run(["levels"]) == 0
        assert "\nlambda_z = 5.3\n" in (tmp_path / "manifest.txt").read_text()

    def test_config_with_byte_order_mark(self, tmp_path):
        # spreadsheet and editor exports may start with U+FEFF; it is not
        # part of the first key
        cfg, out = make_config(tmp_path)
        Path(cfg).write_text(f"lambda_z = 6\noutput_dir = {out}\n",
                             encoding="utf-8-sig")
        assert run(["--config", cfg, "levels"]) == 0
        assert "\nlambda_z = 6.0\n" in (out / "manifest.txt").read_text()

    def test_fit_csv_with_byte_order_mark(self, tmp_path, monkeypatch):
        # the mark is not part of the header, and the manifest hashes the
        # input's bytes as they are on disk
        plain = Path(write_fixture(tmp_path, n=4))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            out = tmp_path / f"out_{path.stem}"
            out.mkdir()
            monkeypatch.chdir(out)
            assert run(["fit", str(path)]) == 0
            outputs.append({name: (out / name).read_bytes() for name in
                            ("fit_report.txt", "fit_strains.csv")})
        assert outputs[0] == outputs[1]
        digest = hashlib.sha256(marked.read_bytes()).hexdigest()
        assert f"input {marked} sha256 {digest}\n" in \
            (out / "manifest.txt").read_text()

    def test_axial_strain_enters_through_zpl_offset(self, tmp_path, capsys):
        # an axial strain shifts all six levels alike, which zpl_offset
        # does; no second key takes the same shift
        cfg, out = make_config(tmp_path, "delta_z = 0.1\n")
        assert run(["--config", cfg, "levels"]) == 1
        assert "unknown key 'delta_z'" in capsys.readouterr().err
        assert not out.exists()
        energies = []
        for extra in ("", "zpl_offset = 0.1\n"):
            cfg, out = make_config(tmp_path, extra)
            assert run(["--config", cfg, "levels"]) == 0
            rows = (out / "levels.csv").read_text().splitlines()[1:]
            energies.append([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(np.subtract(*energies[::-1]) - 0.1)) <= 2e-8


class TestExitCodes:
    def test_help_describes_the_commands_not_the_code(self):
        src = str(Path(nvsim.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-m", "nvsim.cli", "-h"],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert res.returncode == 0
        assert res.stdout.startswith("usage: nvsim")
        assert "Exit codes" in res.stdout
        for internal in ("_finish", "os._exit", "collector"):
            assert internal not in res.stdout
        assert res.stderr == ""
        # every subcommand, with its help line
        lines = res.stdout.splitlines()
        for name, (text, _) in cli._COMMAND_LINE.items():
            assert [ln for ln in lines if ln.split()[:1] == [name]
                    and ln.rstrip().endswith(text)], name

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path)
        assert run(["--config", cfg, "levels", "--bogus"]) == 1

    @pytest.mark.parametrize("argv", [["lines", "--gpa", "1"],
                                      ["excitation", "--mw-on"]])
    def test_each_input_has_one_flag(self, tmp_path, capsys, argv):
        # strain is given in GHz (--strain), and the MW drive is on unless
        # --mw-off
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, *argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config(self, capsys):
        assert run(["--config", "/nonexistent/cfg", "levels"]) == 1

    def test_malformed_fit_csv(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("defect_id,line_ghz\nnv1,oops\n")
        assert run(["--config", cfg, "fit", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_fit_defect_with_seven_lines(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path)
        bad = tmp_path / "seven.csv"
        bad.write_text("defect_id,line_ghz\n"
                       + "".join(f"a,{x}\n" for x in range(7)))
        assert run(["--config", cfg, "fit", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nvsim: error: ")
        assert "defect a: 7 lines, need 2 to 6" in err
        assert not out.exists()

    def test_fit_under_determined(self, tmp_path, capsys):
        # one defect's 3 lines cannot fix 3 globals plus its strain and
        # offset: an input error, found before any solve
        cfg, out = make_config(tmp_path)
        bad = tmp_path / "three.csv"
        bad.write_text("defect_id,line_ghz\n"
                       + "".join(f"a,{x}\n" for x in range(3)))
        assert run(["--config", cfg, "fit", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == ("nvsim: error: under-determined: 3 lines for 5 free "
                       "parameters (3 global + 2 per defect)\n")
        assert not out.exists()

    def test_repeated_config_key(self, tmp_path, capsys):
        # the last value won silently, with exit 0
        cfg, out = make_config(tmp_path, "lambda_z = 5.0\nlambda_z = 6.0\n")
        assert run(["--config", cfg, "levels"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nvsim: error: ")
        assert "'lambda_z'" in err and "line 2" in err and "line 3" in err
        assert not out.exists()

    def test_output_dir_under_a_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg, _ = make_config(tmp_path)
        Path(cfg).write_text(f"output_dir = {blocker / 'sub'}\n")
        src = str(Path(nvsim.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-m", "nvsim.cli", "--config",
                              cfg, "levels"], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert res.returncode == 1
        assert res.stderr.startswith("nvsim: error: ")
        assert str(blocker) in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_numerical_failure(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path, "mw_mix_rate = 1e308\n")
        assert run(["--config", cfg, "excitation",
                    "--detuning-points", "3"]) == 2
        assert "nvsim: numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, cause", [
        (["--strain", "0"], "orbital branches unresolved"),
        (["--strain", "0.1"], "orbital branches unresolved"),
        (["--strain", "15.52"], "level anti-crossing in the Ey branch"),
        (["--temperature-scan", "--strain", "15.52"],
         "level anti-crossing in the Ey branch")])
    def test_unresolved_branches_are_a_domain_error(self, tmp_path, capsys,
                                                    argv, cause):
        # within-branch ESR frequencies are not defined there; the
        # numerics are fine
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "odmr", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("nvsim: error: ") and cause in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1e3", "-1E2", "-5.", "-.5", "-7",
                                       "-1_000"])
    def test_negative_values_in_every_float_form(self, tmp_path, value):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "excitation", "--detuning-min", value,
                    "--detuning-max", "1e3", "--detuning-points", "3"]) == 0
        first = (out / "excitation.csv").read_text().splitlines()[1]
        assert float(first.split(",")[0]) == float(value)

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_negative_non_finite_value_reaches_the_check(self, tmp_path,
                                                        capsys, value):
        cfg, _ = make_config(tmp_path)
        assert run(["--config", cfg, "excitation",
                    "--detuning-min", value]) == 1
        assert capsys.readouterr().err == ("nvsim: error: --detuning-min "
                                           "and --detuning-max must be "
                                           "finite\n")

    @pytest.mark.parametrize("command", sorted(cli._COMMAND_LINE))
    def test_help_flag_still_an_option(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            run([command, "-h"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: nvsim {command} ")
        # every flag of the table, and the positional, is named, and its
        # help follows it apart
        for row in cli._COMMAND_LINE[command][1]:
            assert f" {row[0]} " in out, row[0]
            assert f" {row[4]}" in out, row[4]

    def test_lapack_failure_is_numerical(self, tmp_path, capsys,
                                         monkeypatch):
        def fail(cfg, args, command):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._COMMANDS, "levels", fail)
        cfg, _ = make_config(tmp_path)
        assert run(["--config", cfg, "levels"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_nan_rate_rejected(self, tmp_path, capsys):
        cfg, out = make_config(tmp_path, "gamma_rad = nan\n")
        assert run(["--config", cfg, "rabi"]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (out / "rabi.csv").exists()

    def test_non_finite_generator_is_numerical(self, tmp_path, capfd,
                                               recwarn):
        # the MW mixing rate overflows the generator's diagonal to -inf;
        # handed to LAPACK, that printed DLASCL errors and never returned
        cfg, out = make_config(tmp_path, "mw_mix_rate = 1e308\n")
        assert run(["--config", cfg, "excitation"]) == 2
        err = capfd.readouterr().err
        assert "at detuning -10.0 GHz: generator not finite" in err
        assert "DLASCL" not in err and "Traceback" not in err
        # the overflow is reported once, as the failure, without a warning
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert not (out / "excitation.csv").exists()

    def test_rank_deficiency_is_not_called_reducible(self, tmp_path,
                                                     capsys):
        # every transition is present, but the rates span about 1e302,
        # so the bordered generator's numerical rank falls
        cfg, out = make_config(tmp_path, "gamma_rad = 1e300\n")
        assert run(["--config", cfg, "excitation",
                    "--detuning-points", "11"]) == 2
        err = capsys.readouterr().err
        assert "stationary state not unique" in err
        assert "rank-deficient" in err
        assert "reducible, or its rates span too wide a range" in err
        assert not (out / "excitation.csv").exists()

    def test_fit_strain_beyond_grid(self, tmp_path, capsys):
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        fixture = write_fixture(tmp_path,
                                strains=[3.0, 8.0, 14.0, 40.0, 45.0])
        assert run(["--config", cfg, "fit", fixture]) == 2
        assert "converged = False" in (out / "fit_report.txt").read_text()
        assert "strain-grid edge" in capsys.readouterr().err
        assert (out / "manifest.txt").exists()

    def test_fit_edge_message_names_the_defects(self, tmp_path, capsys):
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, _ = make_config(tmp_path, init)
        fixture = write_fixture(tmp_path,
                                strains=[3.0, 8.0, 14.0, 40.0, 45.0])
        assert run(["--config", cfg, "fit", fixture]) == 2
        err = capsys.readouterr().err
        assert "defects at the strain-grid edge: nv04, nv05;" in err
        assert "iteration limit" not in err

    def test_fit_edge_alone_exits_2(self, tmp_path, capsys):
        # the fit neither stalls nor ends on a bound: only nv05, past the
        # strain grid, keeps it from converging
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        rows = ["defect_id,line_ghz"]
        for d in synthesize_dataset(FineStructureParams(),
                                    [3.0, 8.0, 14.0, 20.0, 31.0], seed=0):
            rows.extend(f"{d.id},{float(x)!r}" for x in d.lines)
        fixture = tmp_path / "edge.csv"
        fixture.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--config", cfg, "fit", str(fixture)]) == 2
        err = capsys.readouterr().err
        assert "defects at the strain-grid edge: nv05;" in err
        assert "converged = False" in (out / "fit_report.txt").read_text()

    def test_fit_on_a_bound_exits_2_and_names_it(self, tmp_path, capsys):
        # the highest three lines of each defect: the fit ends with
        # lambda_z on the lower end of its bounds, a wrong result
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        rows = ["defect_id,line_ghz"]
        for d in synthesize_dataset(FineStructureParams(),
                                    [3.0, 7.0, 12.0, 17.0, 21.0], seed=0):
            rows.extend(f"{d.id},{float(x)!r}" for x in d.lines[3:])
        fixture = tmp_path / "highest.csv"
        fixture.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run(["--config", cfg, "fit", str(fixture)]) == 2
        err = capsys.readouterr().err
        assert "fit did not converge: globals on an end of their fit " \
            "bounds: lambda_z; result flagged" in err
        report = (out / "fit_report.txt").read_text()
        assert "lambda_z_ghz = 1.00000000\n" in report
        assert "converged = False" in report
        assert (out / "fit_strains.csv").exists()
        assert (out / "manifest.txt").exists()

    def test_fit_iteration_limit_message(self, tmp_path, capsys,
                                         monkeypatch):
        # from the truth the fit converges in one iteration, so it starts
        # off the truth
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        assert run(["--config", cfg, "fit", write_fixture(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "optimizer stopped at its iteration limit (1 iterations)" \
            in err
        assert "edge" not in err
        assert "converged = False" in (out / "fit_report.txt").read_text()

    def test_fit_stalled_message(self, tmp_path, capsys, monkeypatch):
        # a cost that never falls below the start's
        solve = fitting._solve_strains
        start = []

        def flat(params, groups, guess=None):
            strains, costs, at_edge = solve(params, groups, guess)
            start.append(costs)
            return strains, start[0], at_edge

        monkeypatch.setattr(fitting, "_solve_strains", flat)
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        assert run(["--config", cfg, "fit", write_fixture(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no step the optimizer tried lowered the cost" in err
        assert "iteration limit" not in err
        assert "converged = False" in (out / "fit_report.txt").read_text()

    @pytest.mark.parametrize("extra", ["strain_max = inf\n",
                                       "strain_min = nan\n"])
    def test_non_finite_strain_grid_rejected(self, tmp_path, capsys, extra):
        cfg, out = make_config(tmp_path, extra)
        assert run(["--config", cfg, "sweep"]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("extra", [
        "strain_min = 5\nstrain_max = 5\n",
        "strain_min = 20\nstrain_max = 0\n",
        # too close for float64 to hold three distinct points
        "strain_max = 5e-324\nstrain_points = 3\n"])
    def test_strain_grid_not_ascending_rejected(self, tmp_path, capsys,
                                                extra):
        # a configuration error, not a numerical failure of the sweep
        cfg, out = make_config(tmp_path, extra)
        assert run(["--config", cfg, "sweep"]) == 1
        assert "strain_min and strain_max must give an ascending grid" in \
            capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_max_strain_rejected(self, tmp_path, capsys, value):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "avg", "--max-strain", value]) == 1
        assert "finite" in capsys.readouterr().err
        assert not (out / "avg.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["avg", "--max-strain", "1e14"], ["avg", "--max-strain", "1e308"],
        ["lines", "--strain", "2e6"], ["excitation", "--strain", "-2e6"],
        ["rabi", "--strain=-1e16"], ["odmr", "--strain", "1e7"],
        ["sweep", "strain_max = 1e14\n"],
        ["sweep", "strain_min = -2e6\n"],
        # the same bound holds for every fine-structure parameter: at
        # lambda_z = 1e200 levels printed A2 - A1 = 1.7e184 GHz, exit 0
        ["levels", "lambda_z = 1e200\n"], ["levels", "d_gs = 2e6\n"],
        ["levels", "zpl_offset = -1e300\n"]])
    def test_strain_beyond_physical_limit_rejected(self, tmp_path, capsys,
                                                   argv):
        # float64 cancellation swamps the splittings far beyond 1e6 GHz
        extra = argv.pop() if argv[-1].endswith("\n") else ""
        cfg, out = make_config(tmp_path, extra)
        assert run(["--config", cfg, *argv]) == 1
        assert "1e+06 GHz" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_strain_at_physical_limit_accepted(self, tmp_path):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "avg", "--max-strain", "1e6",
                    "--points", "5"]) == 0
        rows = (out / "avg.csv").read_text().splitlines()[1:]
        assert all(abs(float(r.split(",")[1]) - 1.42) < 0.05 for r in rows)
        # a fine-structure parameter exactly at the bound
        cfg, out = make_config(tmp_path, "zpl_offset = 1e6\n")
        assert run(["--config", cfg, "levels"]) == 0
        assert (out / "levels.csv").exists()

    def test_fit_non_finite_starting_cost(self, tmp_path, capfd):
        cfg, out = make_config(tmp_path)
        bad = tmp_path / "huge.csv"
        bad.write_text("defect_id,line_ghz\n" + "".join(
            f"nv{i},{1e300 * (1 + 1e-15 * k):.17g}\n"
            for i in range(2) for k in range(6)))
        assert run(["--config", cfg, "fit", str(bad)]) == 2
        err = capfd.readouterr().err
        assert "numerical failure: the cost at the starting parameters " \
            "is not finite" in err
        assert "Traceback" not in err and "LASCL" not in err
        assert "Warning" not in err
        assert not (out / "fit_report.txt").exists()

    @pytest.mark.parametrize("scan", [[], ["--temperature-scan"]])
    def test_nonpositive_odmr_linewidth_rejected(self, tmp_path, capsys,
                                                 scan):
        # the message names the config key, as excitation and rabi do
        for linewidth in ("0", "-0.02"):
            cfg, out = make_config(tmp_path, f"linewidth = {linewidth}\n")
            assert run(["--config", cfg, "odmr", *scan]) == 1
            assert capsys.readouterr().err == \
                "nvsim: error: linewidth must be positive\n"
            assert not list(out.glob("odmr*.csv"))

    def test_non_finite_odmr_grid_rejected(self, tmp_path, capfd, recwarn):
        # an infinite bound reaching np.linspace printed numpy's
        # `invalid value encountered in multiply` before the usage error
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "odmr", "--freq-max", "inf"]) == 1
        assert "finite" in no_warning_err(capfd, recwarn)
        assert not (out / "odmr.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--freq-min", "nan"], ["--temperature-scan", "--temp-max", "inf"],
        ["--temperature-scan", "--temp-min=-inf"]])
    def test_non_finite_odmr_bounds_rejected(self, tmp_path, capfd, recwarn,
                                             argv):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "odmr", *argv]) == 1
        assert "must be finite" in no_warning_err(capfd, recwarn)
        assert not list(out.glob("odmr*.csv"))

    @pytest.mark.parametrize("flag", ["--tau-max", "--omega-mw"])
    def test_non_finite_rabi_input_rejected(self, tmp_path, capfd, recwarn,
                                            flag):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "rabi", flag, "inf"]) == 1
        assert "finite" in no_warning_err(capfd, recwarn)
        assert not (out / "rabi.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--detuning-max", "inf"),
                                             ("--detuning-min", "nan")])
    def test_non_finite_detuning_grid_rejected(self, tmp_path, capfd,
                                               recwarn, flag, value):
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "excitation", flag, value]) == 1
        assert "finite" in no_warning_err(capfd, recwarn)
        assert not (out / "excitation.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["--omega-mw", "1e308"], ["--omega-mw", "1e300", "--tau-max", "1e10"]])
    def test_overflowing_rabi_angle_rejected(self, tmp_path, capfd, recwarn,
                                             argv):
        # the MW angle omega * tau overflowed to inf: exit 0 with 80 of 81
        # counts nan, after numpy's overflow and invalid-value warnings
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "rabi", *argv]) == 1
        assert no_warning_err(capfd, recwarn) == \
            "nvsim: error: MW angle omega_mw * tau overflows\n"
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("argv, bounds", [
        (["excitation", "--detuning-min=-1e308", "--detuning-max", "1e308"],
         "--detuning-min and --detuning-max"),
        (["odmr", "--freq-min=-1e308", "--freq-max", "1e308"],
         "--freq-min and --freq-max")])
    def test_overflowing_grid_span_rejected(self, tmp_path, capfd, recwarn,
                                            argv, bounds):
        # finite ascending bounds whose span overflows: np.linspace printed
        # three warnings, then the grid was called not ascending
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, *argv]) == 1
        assert no_warning_err(capfd, recwarn) == \
            f"nvsim: error: {bounds} span a range too wide to represent\n"
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["excitation"], "--detuning-points=1"),
        (["rabi"], "--tau-points=0"),
        (["odmr"], "--freq-points=0"), (["odmr"], "--freq-points=-5"),
        (["odmr", "--temperature-scan"], "--temp-points=0"),
        (["avg"], "--points=1")])
    def test_point_count_below_two_rejected(self, tmp_path, capsys, argv,
                                            flag):
        # 0 points wrote a header-only CSV with exit 0; -5 printed numpy's
        # own message
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, *argv, flag]) == 1
        assert capsys.readouterr().err == \
            f"nvsim: error: {flag.split('=')[0]} must be >= 2\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("argv, bounds", [
        (["avg", "--max-strain", "0"], "--max-strain"),
        (["avg", "--max-strain=-5"], "--max-strain"),
        (["rabi", "--tau-max", "0"], "--tau-max"),
        (["odmr", "--temperature-scan", "--temp-min", "6", "--temp-max",
          "6"], "--temp-min and --temp-max"),
        (["odmr", "--temperature-scan", "--temp-min", "300", "--temp-max",
          "6"], "--temp-min and --temp-max"),
        (["excitation", "--detuning-min", "1", "--detuning-max", "1"],
         "--detuning-min and --detuning-max"),
        (["odmr", "--freq-min", "2", "--freq-max", "1"],
         "--freq-min and --freq-max"),
        # ascending bounds too close for float64 to hold distinct points
        (["avg", "--max-strain", "5e-324", "--points", "3"], "--max-strain"),
        (["rabi", "--tau-max", "5e-324", "--tau-points", "3"], "--tau-max"),
        (["odmr", "--temperature-scan", "--temp-min", "6", "--temp-max",
          "6.000000000000001"], "--temp-min and --temp-max")],
        ids=["avg-empty", "avg-descending", "rabi-empty", "scan-empty",
             "scan-descending", "excitation-empty", "odmr-descending",
             "avg-narrow", "rabi-narrow", "scan-narrow"])
    def test_grid_bounds_not_ascending_rejected(self, tmp_path, capsys, argv,
                                                bounds):
        # a zero-width, descending or too narrow range wrote repeated or
        # descending rows with exit 0 (avg, rabi, the temperature scan)
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, *argv]) == 1
        assert capsys.readouterr().err == \
            f"nvsim: error: {bounds} must give an ascending grid\n"
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_temperature_rejected(self, tmp_path, capsys, value):
        # inf wrote odmr.csv at the attempt rate with exit 0; nan blamed
        # the exchange-model parameters
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "odmr", "--temperature", value]) == 1
        assert "temperature must be positive and finite" in \
            capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_near_zero_temperature_runs_quietly(self, tmp_path, capfd,
                                                recwarn):
        # the Arrhenius exponent overflows to -inf: a hop rate of 0, and
        # numpy's overflow warning used to reach stderr with exit 0
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "odmr", "--temperature", "1e-320"]) == 0
        assert no_warning_err(capfd, recwarn) == ""
        assert (out / "odmr.csv").exists()

    @pytest.mark.parametrize("argv, written", [
        (["--temperature", "5e-324"], "odmr.csv"),
        (["--temperature-scan", "--temp-min", "5e-324", "--temp-max", "1",
          "--temp-points", "3"], "odmr_contrast.csv")],
        ids=["single", "scan"])
    def test_zero_activation_near_zero_kelvin_runs_quietly(
            self, tmp_path, capfd, recwarn, argv, written):
        # without activation the hop rate is the attempt rate; at a
        # kB T that underflows to 0 the exponent was 0 / 0, so the single
        # temperature exited 1 and the scan exited 2
        cfg, out = make_config(tmp_path, "hop_activation_mev = 0\n")
        assert run(["--config", cfg, "odmr", *argv]) == 0
        assert no_warning_err(capfd, recwarn) == ""
        assert (out / written).exists()

    @pytest.mark.parametrize("value", ["0", "nan"])
    def test_bad_gap_threshold_rejected(self, tmp_path, capsys, value):
        # 0 exited 1 after writing sweep.csv, without a manifest; NaN
        # reported no crossings with exit 0
        cfg, out = make_config(tmp_path, "strain_points = 41\n")
        assert run(["--config", cfg, "sweep", "--gap-threshold", value]) == 1
        assert "gap_threshold must be positive" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    def test_negative_tau_rejected(self, tmp_path, capsys):
        # printed a mirror image of the positive trace with exit 0
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "rabi", "--tau-max=-400"]) == 1
        assert "--tau-max must give an ascending grid" in \
            capsys.readouterr().err
        assert not (out / "rabi.csv").exists()

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        # what numpy raises for `excitation --detuning-points 1e11`, without
        # asking for the 745 GiB
        def fail(lo, hi, points):
            raise MemoryError("Unable to allocate 745. GiB for an array "
                              "with shape (100000000000,) and data type "
                              "float64")

        monkeypatch.setattr(cli.np, "linspace", fail)
        cfg, out = make_config(tmp_path)
        assert run(["--config", cfg, "excitation", "--detuning-points",
                    "100000000000"]) == 1
        assert capsys.readouterr().err == (
            "nvsim: error: out of memory: Unable to allocate 745. GiB for an "
            "array with shape (100000000000,) and data type float64\n")
        assert not list(out.glob("*.csv"))

    def test_singular_exchange_resolvent_is_numerical(self, tmp_path, capsys,
                                                      monkeypatch):
        # equal branch frequencies, no exchange at 0.1 K and a damping whose
        # square underflows make the resolvent exactly singular at 1 GHz
        monkeypatch.setattr(motional, "branch_esr_frequencies",
                            lambda params, dperp: (1.0, 1.0, 0.0, 0.0))
        cfg, out = make_config(tmp_path, "linewidth = 1e-321\n")
        assert run(["--config", cfg, "odmr", "--temperature", "0.1",
                    "--freq-min", "1.0"]) == 2
        assert "singular" in capsys.readouterr().err
        assert not (out / "odmr.csv").exists()


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(nvsim.__file__).resolve().parents[1])
        code = ("import sys, nvsim.cli; print(sorted(n for n in sys.modules "
                "if n.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["rabi", "fit"])
    def test_command_loads_no_scipy(self, tmp_path, command):
        src = str(Path(nvsim.__file__).resolve().parents[1])
        cfg, out = make_config(tmp_path)
        argv = ["--config", cfg, command]
        if command == "fit":
            argv.append(write_fixture(tmp_path, n=4))
        code = ("import sys; from nvsim.cli import run; "
                "rc = run(sys.argv[1:]); print(rc, sorted(n for n in "
                "sys.modules if n.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.splitlines()[-1] == "0 []"
        assert (out / "manifest.txt").exists()

    def test_fit_loads_no_numpy_ma(self, tmp_path):
        src = str(Path(nvsim.__file__).resolve().parents[1])
        cfg, out = make_config(tmp_path)
        code = ("import sys; from nvsim.cli import run; "
                "rc = run(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code, "--config", cfg,
                              "fit", write_fixture(tmp_path, n=4)],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert res.stdout.splitlines()[-1] == "0 False"
        assert (out / "fit_strains.csv").exists()

    def test_cli_import_loads_no_command_module(self):
        # the fit, the lineshape, the rate model, input hashing and
        # numpy.ma load only where a command uses them, scipy nowhere, and
        # dataclasses, argparse, gettext and locale only where numpy
        # itself loads them
        src = str(Path(nvsim.__file__).resolve().parents[1])
        code = ("import sys, nvsim.cli; print([n for n in ('nvsim.fitting', "
                "'nvsim.motional', 'hashlib', 'numpy.ma', "
                "'nvsim.photodynamics', 'dataclasses', 'argparse', "
                "'gettext', 'locale') if n in sys.modules], sorted(n for n "
                "in sys.modules if n.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == f"{list(numpy_loads(*HOST_LOADED))} []"

    @pytest.mark.parametrize("argv", [argv for argv, _ in SMALL_COMMANDS],
                             ids=command_id)
    def test_every_command_runs_in_a_fresh_process(self, tmp_path, argv):
        # each command imports what it runs, and of the modules `import
        # nvsim.cli` leaves out exactly those; a missing import shows only
        # in a process that has not loaded it for another command
        loaded = {"lines": ["nvsim.photodynamics"],
                  "excitation": ["nvsim.photodynamics"],
                  "rabi": ["nvsim.photodynamics"],
                  "odmr": ["nvsim.motional"],
                  "fit": ["hashlib", "nvsim.fitting"]}.get(argv[0], [])
        src = str(Path(nvsim.__file__).resolve().parents[1])
        cfg, out = make_config(tmp_path, "strain_points = 41\n")
        if argv == ["fit"]:
            argv = ["fit", write_fixture(tmp_path, n=4)]
        loaded = sorted([*loaded, *numpy_loads(*HOST_LOADED)])
        # main() ends the process itself, so an atexit handler reads the
        # loaded modules; no command loads scipy or numpy.ma, nor
        # dataclasses, argparse, gettext or locale unless numpy does
        code = ("import atexit, sys\nfrom nvsim.cli import main\n"
                "atexit.register(lambda: print(sorted(n for n in "
                "('nvsim.photodynamics', 'nvsim.motional', 'nvsim.fitting', "
                f"'hashlib', 'numpy.ma', *{HOST_LOADED}) if n in "
                "sys.modules), sorted(n for n in sys.modules if "
                "n.split('.')[0] == 'scipy')))\nmain()")
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code, "--config", cfg,
                              *argv], env=env, capture_output=True,
                             text=True)
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.splitlines()[-1] == f"{loaded} []"
        assert (out / "manifest.txt").exists()


class TestOneWriter:
    """`cli._finish` writes every output file of every command: the
    output directory holds the manifest's `output` files and manifest.txt,
    and stdout ends with a `wrote` line per file, in write order, with
    manifest.txt last."""

    @staticmethod
    def check_outputs(out, stdout, names):
        listed = [line.split(" ", 1)[1] for line in
                  (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("output ")]
        assert listed == names
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(names + ["manifest.txt"])
        assert stdout.splitlines()[-len(names) - 1:] == \
            [f"wrote {out / name}" for name in names + ["manifest.txt"]]

    @pytest.mark.parametrize("argv, names", SMALL_COMMANDS,
                             ids=[command_id(a) for a, _ in SMALL_COMMANDS])
    def test_every_command_writes_through_finish(self, tmp_path, capsys,
                                                 argv, names):
        cfg, out = make_config(tmp_path, "strain_points = 41\n")
        if argv == ["fit"]:
            argv = ["fit", write_fixture(tmp_path, n=4)]
        assert run(["--config", cfg, *argv]) == 0
        self.check_outputs(out, capsys.readouterr().out, names)

    def test_only_finish_writes_files(self):
        # every write_csv call and every open() outside read mode in cli.py
        # lies inside _finish
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        finish, = (node for node in tree.body
                   if getattr(node, "name", None) == "_finish")
        inside = range(finish.lineno, finish.end_lineno + 1)
        writes = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in ("write_csv", "open")
                  and not (len(node.args) > 1
                           and isinstance(node.args[1], ast.Constant)
                           and node.args[1].value == "r")]
        assert len(writes) == 2
        assert all(line in inside for line in writes), writes

    def test_fit_that_does_not_converge_writes_then_exits_2(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITER", 1)
        init = "lambda_z = 5.0\nd_es = 1.3\ndelta_cap = 1.4\n"
        cfg, out = make_config(tmp_path, init)
        assert run(["--config", cfg, "fit", write_fixture(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "fit did not converge" in captured.err
        self.check_outputs(out, captured.out,
                           ["fit_report.txt", "fit_strains.csv"])


# a command that exits 0, one that exits 1 and one that exits 2, with the
# config line each needs and its stderr
EXIT_CASES = [
    (["levels"], "", 0, ""),
    (["rabi", "--tau-points", "0"], "", 1,
     "nvsim: error: --tau-points must be >= 2\n"),
    (["excitation", "--detuning-points", "21"], "mw_mix_rate = 1e308\n", 2,
     "nvsim: numerical failure: at detuning -10.0 GHz: generator not "
     "finite\n")]


class TestProcessEntry:
    """`main()`, the process entry, ends the process once `run()` returns:
    atexit handlers, a flush of stdout and stderr, then `os._exit` with
    `run()`'s code. It is only run in fresh processes here; `run()`, which
    tests and library callers use, returns and leaves the collector
    alone."""

    def test_run_leaves_gc_unfrozen(self, tmp_path, capsys):
        cfg, _ = make_config(tmp_path)
        before = gc.get_freeze_count()
        assert run(["--config", cfg, "levels"]) == 0
        assert run(["--config", cfg, "rabi", "--tau-points", "0"]) == 1
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, extra, code, err", EXIT_CASES,
                             ids=["0", "1", "2"])
    def test_atexit_handler_runs_after_the_command(self, tmp_path, argv,
                                                   extra, code, err):
        # the handler writes to block-buffered stdout and, without a
        # newline, to stderr: only the flush after it delivers either
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"output_dir = out\n{extra}", encoding="utf-8")
        script = ("import atexit, sys\nfrom nvsim.cli import main\n"
                  "atexit.register(lambda: (print('atexit ran'), "
                  "sys.stderr.write('atexit ran')))\nmain()")
        env = dict(os.environ, PYTHONUNBUFFERED="",
                   PYTHONPATH=str(Path(nvsim.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-c", script, "--config",
                              str(cfg), *argv], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert res.returncode == code
        assert res.stderr == err + "atexit ran"
        lines = res.stdout.splitlines()
        assert lines[-1] == "atexit ran"
        if code == 0:
            assert lines[-2] == "wrote out/manifest.txt"
        else:
            assert len(lines) == 1

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv, extra, code, err", EXIT_CASES,
                             ids=["0", "1", "2"])
    def test_process_matches_in_process_run(self, tmp_path, capsys,
                                            monkeypatch, argv, extra, code,
                                            err, unbuffered):
        # a relative output_dir keeps the manifests of both runs equal
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"output_dir = out\n{extra}", encoding="utf-8")
        argv = ["--config", str(cfg), *argv]
        proc_dir, run_dir = tmp_path / "proc", tmp_path / "run"
        proc_dir.mkdir()
        run_dir.mkdir()
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(nvsim.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-m", "nvsim.cli", *argv],
                             cwd=proc_dir, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        monkeypatch.chdir(run_dir)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert res.returncode == code
        assert res.stderr == captured.err == err
        assert res.stdout == captured.out
        if code == 0:
            assert res.stdout.endswith("wrote out/manifest.txt\n")

        def files(d):
            out = d / "out"
            return {p.name: p.read_bytes() for p in out.iterdir()} \
                if out.exists() else {}

        assert files(proc_dir) == files(run_dir)
        assert bool(files(proc_dir)) == (code == 0)

    def test_help_from_a_fresh_process(self, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED="",
                   PYTHONPATH=str(Path(nvsim.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-m", "nvsim.cli",
                              "excitation", "-h"], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.startswith("usage: nvsim excitation")
        assert res.stderr == ""

    def test_stdout_closed_at_start(self, tmp_path):
        # `nvsim levels >&-`: Python sets sys.stdout to None, so there is
        # nothing to print and nothing to flush
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("output_dir = out\n", encoding="utf-8")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(nvsim.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-m", "nvsim.cli", "--config",
                              str(cfg), "levels"], cwd=tmp_path, env=env,
                             stderr=subprocess.PIPE, text=True,
                             preexec_fn=lambda: os.close(1))
        assert res.returncode == 0
        assert res.stderr == ""
        assert (tmp_path / "out" / "manifest.txt").exists()

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", [["levels"], ["sweep"], ["fit"]])
    def test_closed_stdout_ends_quietly(self, tmp_path, argv, unbuffered):
        # the reader of stdout is gone before the command writes to it, as
        # in `nvsim sweep | head -1`
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("output_dir = out\n", encoding="utf-8")
        if argv == ["fit"]:
            argv = ["fit", write_fixture(tmp_path)]
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=str(Path(nvsim.__file__).resolve().parents[1]))
        read, write = os.pipe()
        os.close(read)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "nvsim.cli", "--config", str(cfg),
                 *argv], cwd=tmp_path, env=env, stdout=write,
                stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert res.returncode == 0
        assert res.stderr == ""
        out = tmp_path / "out"
        listed = [line.split(" ", 1)[1] for line in
                  (out / "manifest.txt").read_text().splitlines()
                  if line.startswith("output ")]
        assert listed and sorted(p.name for p in out.iterdir()) \
            == sorted(listed + ["manifest.txt"])


# eigensolve calls and matrices of each command at its default size
# (`fit` on CI's 8-defect fixture): a change that moves this work shows here
EIGENSOLVE_WORK = [
    (["levels"], 1, 1), (["sweep"], 29, 863), (["lines"], 1, 1),
    (["excitation"], 1, 1), (["rabi"], 1, 1), (["odmr"], 1, 1),
    (["odmr", "--temperature-scan"], 1, 1), (["avg"], 1, 301),
    (["fit"], 6, 161)]

# the same for three 5 x k fits: five noise-free defects at 3, 7, 12, 17
# and 21 GHz that each report k of their six lines, from the start
# (lambda_z, d_es, delta_cap) = (5.0, 1.3, 1.4)
PARTIAL_FIT_WORK = [("middle_four", slice(1, 5), 27, 1065),
                    ("lowest_three", slice(0, 3), 127, 4913),
                    ("highest_three", slice(3, 6), 296, 10408)]


class TestWorkCounts:
    @pytest.mark.parametrize("argv, calls, matrices", EIGENSOLVE_WORK,
                             ids=[command_id(w[0]) for w in EIGENSOLVE_WORK])
    def test_eigensolve_work_per_command(self, tmp_path, capsys, argv, calls,
                                         matrices):
        cfg, _ = make_config(tmp_path)
        if argv == ["fit"]:
            argv = ["fit", write_fixture(
                tmp_path, strains=np.linspace(2.0, 20.0, 8), seed=1)]
        before = dict(eigensolve_counts)
        assert run(["--config", cfg, *argv]) == 0
        assert (eigensolve_counts["calls"] - before["calls"],
                eigensolve_counts["matrices"] - before["matrices"]) == \
            (calls, matrices)

    @pytest.mark.parametrize("lines, calls, matrices",
                             [w[1:] for w in PARTIAL_FIT_WORK],
                             ids=[w[0] for w in PARTIAL_FIT_WORK])
    def test_eigensolve_work_per_partial_fit(self, lines, calls, matrices):
        full = synthesize_dataset(FineStructureParams(),
                                  [3.0, 7.0, 12.0, 17.0, 21.0], seed=0)
        data = [d._replace(lines=d.lines[lines]) for d in full]
        before = dict(eigensolve_counts)
        fitting.fit(data, FineStructureParams(lambda_z=5.0, d_es=1.3,
                                              delta_cap=1.4))
        assert (eigensolve_counts["calls"] - before["calls"],
                eigensolve_counts["matrices"] - before["matrices"]) == \
            (calls, matrices)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg, out = make_config(tmp_path, "strain_points = 41\n")
        args = ["--config", cfg, "excitation", "--strain", "3",
                "--detuning-points", "41"]
        assert run(args) == 0
        first = {p: (out / p).read_bytes() for p in os.listdir(out)}
        assert run(args) == 0
        second = {p: (out / p).read_bytes() for p in os.listdir(out)}
        assert first == second
