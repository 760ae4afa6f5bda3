"""Seeded property test of the CLI: any argv drawn from a bounded strategy,
run with a drawn config file, exits 0, 1 or 2, raises nothing and lets no
numpy warning, traceback or LAPACK message reach stderr; on exit 0 every
number in every CSV it wrote is finite. A value parses the same after its
flag (`--flag value`) as joined to it (`--flag=value`)."""

import csv
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvsim.cli import UsageError, _build_parser, run
from nvsim.fitting import synthesize_dataset
from nvsim.model import FineStructureParams

MAX_POINTS = 50

# edge values first: hypothesis shrinks towards the start of the list
VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, np.inf, -np.inf, np.nan, 1e6, -2e6, 1e308,
                     -1e308, -400.0, 1e-300, -1e-5]),
    st.floats(-1e3, 1e3, allow_nan=False))
# odmr's branches are unresolved below about 8.1 GHz, and the lower (Ey)
# branch has a level anti-crossing at 15.519-15.5215 GHz
ODMR_WINDOWS = st.one_of(st.sampled_from([0.0, 15.52]), st.floats(0.0, 0.5),
                         st.floats(15.49, 15.53))
ODMR_STRAINS = st.one_of(VALUES, ODMR_WINDOWS)
COUNTS = st.integers(-3, MAX_POINTS)
SWITCH = st.just(None)
# config-file values: rates (1/ns), the linewidth (GHz) and the hop rate
# and activation energy, up to 1e300, and 1e308, which overflows the line
# profiles and the propagation
RATE_VALUES = st.one_of(st.sampled_from([0.0, 1e300, 1e-300, 1e150, 1e308]),
                        st.floats(0.0, 1e300))
CONFIG_KEYS = {
    **dict.fromkeys(("gamma_rad", "k_isc_xy", "k_isc_z", "gamma_singlet",
                     "pump_green", "pump_res_max", "mw_mix_rate",
                     "linewidth", "hop_attempt_rate", "hop_activation_mev"),
                    RATE_VALUES),
    "strain_min": VALUES, "strain_max": VALUES,
    "strain_points": st.integers(2, MAX_POINTS),
}

FLAGS = {
    "levels": {},
    "sweep": {"--gap-threshold": VALUES},
    "lines": {"--strain": VALUES},
    "excitation": {"--strain": VALUES, "--mw-off": SWITCH,
                   "--detuning-min": VALUES, "--detuning-max": VALUES,
                   "--detuning-points": COUNTS},
    "rabi": {"--strain": VALUES, "--readout": st.sampled_from(["sz", "sxy"]),
             "--omega-mw": VALUES, "--tau-max": VALUES,
             "--tau-points": COUNTS},
    "odmr": {"--strain": ODMR_STRAINS,
             "--temperature": VALUES, "--temperature-scan": SWITCH,
             "--temp-min": VALUES, "--temp-max": VALUES,
             "--temp-points": COUNTS, "--freq-min": VALUES,
             "--freq-max": VALUES, "--freq-points": COUNTS},
    "avg": {"--max-strain": VALUES, "--points": COUNTS},
    "fit": {"--free-lambda-perp": SWITCH},
}

# the CSV each command writes its grid to (`odmr_contrast.csv` on a scan)
GRID_CSV = {"excitation": "excitation.csv", "rabi": "rabi.csv",
            "odmr": "odmr.csv", "avg": "avg.csv"}


@st.composite
def command_lines(draw, fixture):
    """An argv, each value after its flag or joined to it, and the same
    argv with every value joined."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "fit":
        argv.append(draw(st.sampled_from([fixture, fixture + ".missing"])))
    joined = list(argv)
    for flag, values in FLAGS[command].items():
        if not draw(st.booleans()):
            continue
        value = draw(values)
        if value is None:
            argv.append(flag)
            joined.append(flag)
            continue
        argv += [flag, str(value)] if draw(st.booleans()) \
            else [f"{flag}={value}"]
        joined.append(f"{flag}={value}")
    return argv, joined


@st.composite
def config_lines(draw):
    """Config-file lines setting a drawn subset of CONFIG_KEYS."""
    return [f"{key} = {draw(values)!r}" for key, values in CONFIG_KEYS.items()
            if draw(st.booleans())]


def finite_csv_cells(directory):
    """(file, cell) for each cell of each CSV in `directory` that parses
    as a number and is not finite; the benchmark checker rejects those."""
    bad = []
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in list(csv.reader(fh))[1:]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        bad.append((path.name, cell))
    return bad


def pinned(*argv):
    """An explicit (argv, joined argv) example, each value after its flag."""
    joined = [argv[0]] + [f"{flag}={value}"
                          for flag, value in zip(argv[1::2], argv[2::2])]
    return list(argv), joined


def parsed(argv):
    """The parsed namespace, or the usage error, as text (nan == nan)."""
    try:
        return repr(vars(_build_parser().parse_args(argv)))
    except UsageError as err:
        return f"error: {err}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_properties")
    cfg = d / "cfg.txt"
    cfg.write_text(f"output_dir = {d / 'out'}\nstrain_points = 41\n",
                   encoding="utf-8")
    rows = ["defect_id,line_ghz"]
    for defect in synthesize_dataset(FineStructureParams(), [2.0, 9.0, 15.0],
                                     noise=0.0, seed=3):
        rows.extend(f"{defect.id},{x:.9f}" for x in defect.lines)
    (d / "lines.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return d


def test_every_command_line_exits_cleanly(workdir, capfd):
    cfg, out = workdir / "run.cfg", workdir / "out"

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines(str(workdir / "lines.csv")), config_lines())
    # overflows the draws missed: the MW angle omega * tau (80 of 81 counts
    # nan with exit 0) and a grid span hi - lo (numpy warnings)
    @example(pinned("rabi", "--omega-mw", "1e308"), [])
    @example(pinned("rabi", "--omega-mw", "1e300", "--tau-max", "1e10"), [])
    @example(pinned("excitation", "--detuning-min", "-1e308",
                    "--detuning-max", "1e308"), [])
    @example(pinned("odmr", "--freq-min", "-1e308", "--freq-max", "1e308"),
             [])
    def check(argvs, lines):
        argv, joined = argvs
        assert parsed(argv) == parsed(joined)
        shutil.rmtree(out, ignore_errors=True)
        cfg.write_text("\n".join([f"output_dir = {out}", *lines]) + "\n",
                       encoding="utf-8")
        capfd.readouterr()
        with warnings.catch_warnings():
            # a warning numpy prints is noise a user cannot act on
            warnings.simplefilter("error")
            code = run(["--config", str(cfg), *argv])
        assert code in (0, 1, 2)
        # fd-level capture: LAPACK writes to the process's own streams
        printed = capfd.readouterr()
        assert "Traceback" not in printed.err
        assert "DLASCL" not in printed.out + printed.err
        # an unresolved branch is a domain error, not a numerical one; a
        # linewidth, hop rate or frequency whose square overflows the
        # exchange resolvent is numerical (test_motional, test_cli)
        if argv[0] == "odmr" and code == 2:
            assert "exchange resolvent singular or overflowed" in printed.err
        if code == 1:
            # a usage error is found before any output is written
            assert not out.exists() or not any(out.iterdir())
        if code == 0:
            assert finite_csv_cells(out) == []
        name = GRID_CSV.get(argv[0])
        if code == 0 and name is not None:
            if "--temperature-scan" in argv:
                name = "odmr_contrast.csv"
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) >= 2, "a grid of fewer than two points"
            grid = [float(row.split(",")[0]) for row in rows]
            assert all(a < b for a, b in zip(grid, grid[1:])), \
                "a grid column that does not ascend"

    check()


def test_odmr_strain_windows_are_domain_errors(workdir, capsys):
    # ODMR_WINDOWS, met by every example here: exit 1 names the cause
    cfg, out = str(workdir / "cfg.txt"), workdir / "out"

    @settings(derandomize=True, deadline=None, max_examples=40,
              database=None)
    @given(strain=ODMR_WINDOWS, scan=st.booleans())
    def check(strain, scan):
        shutil.rmtree(out, ignore_errors=True)
        capsys.readouterr()
        code = run(["--config", cfg, "odmr", "--strain", str(strain),
                    *(["--temperature-scan"] * scan)])
        err = capsys.readouterr().err
        if strain <= 0.5:
            assert code == 1 and "orbital branches unresolved" in err
        else:
            assert code == 0 or (
                code == 1 and "level anti-crossing in the Ey branch" in err)
        if code == 1:
            assert not out.exists() or not any(out.iterdir())

    check()
