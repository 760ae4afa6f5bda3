"""Seeded property test of the CLI: any argv drawn from a bounded strategy
exits 0, 1 or 2, raises nothing and lets no numpy warning reach stderr."""

import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvsim.cli import run
from nvsim.fitting import synthesize_dataset
from nvsim.model import FineStructureParams

MAX_POINTS = 50

# edge values first: hypothesis shrinks towards the start of the list
VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, np.inf, -np.inf, np.nan, 1e6, -2e6, 1e308,
                     -400.0, 1e-300]),
    st.floats(-1e3, 1e3, allow_nan=False))
COUNTS = st.integers(-3, MAX_POINTS)
SWITCH = st.just(None)

STRAIN = {"--strain": VALUES, "--gpa": VALUES}
FLAGS = {
    "levels": {},
    "sweep": {"--gap-threshold": VALUES},
    "lines": STRAIN,
    "excitation": {**STRAIN, "--mw-off": SWITCH, "--detuning-min": VALUES,
                   "--detuning-max": VALUES, "--detuning-points": COUNTS},
    "rabi": {**STRAIN, "--readout": st.sampled_from(["sz", "sxy"]),
             "--omega-mw": VALUES, "--tau-max": VALUES,
             "--tau-points": COUNTS},
    "odmr": {**STRAIN, "--temperature": VALUES, "--temperature-scan": SWITCH,
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
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "fit":
        argv.append(draw(st.sampled_from([fixture, fixture + ".missing"])))
    for flag, values in FLAGS[command].items():
        if not draw(st.booleans()):
            continue
        value = draw(values)
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


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


def test_every_command_line_exits_cleanly(workdir):
    cfg, out = str(workdir / "cfg.txt"), workdir / "out"

    @settings(derandomize=True, deadline=None, max_examples=150,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command_lines(str(workdir / "lines.csv")))
    def check(argv):
        shutil.rmtree(out, ignore_errors=True)
        with warnings.catch_warnings():
            # a warning numpy prints is noise a user cannot act on
            warnings.simplefilter("error")
            code = run(["--config", cfg, *argv])
        assert code in (0, 1, 2)
        if code == 1:
            # a usage error is found before any output is written
            assert not out.exists() or not any(out.iterdir())
        name = GRID_CSV.get(argv[0])
        if code == 0 and name is not None:
            if "--temperature-scan" in argv:
                name = "odmr_contrast.csv"
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) >= 2, "a grid of fewer than two points"

    check()
