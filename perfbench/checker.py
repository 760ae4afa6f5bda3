"""Output checks for every benchmarked command.

A command passes only if it exited 0 without a traceback, wrote every
expected file, every CSV number is finite, and its output agrees with

* the references frozen from the seed commit (`refs/<workload>/`; every
  command that has them takes no seeded input), within the ROADMAP
  gates: 1e-8 GHz on energies, crossing count equal with positions
  within 1e-6 GHz, 1e-9 relative on spectra;
* invariants that hold at any seed (grids, bounds, eigenvalues of the
  independently built Hamiltonian, the Rabi trace's cos^2 form);
* for fits, the synthetic truth: c11's noisy tolerances, converged, and
  no strain pinned at the 30 GHz edge of the fit grid.

Every comparison also allows one unit in the ninth significant digit,
because the CLI prints nine: a value that moved by 1e-15 can still flip
its last printed digit.
"""

import csv
import gzip
import math
from pathlib import Path

import numpy as np

import synth
from workloads import OUTPUTS, RABI_OMEGA

REFS = Path(__file__).resolve().parent / "refs"

ENERGY_ABS = 1e-8          # GHz
CROSSING_ABS = 1e-6        # GHz
SPECTRUM_REL = 1e-9
FIT_TOL = {"lambda_z": 0.05, "d_es": 0.03, "delta_cap": 0.03}
FIT_GRID_EDGE = 30.0       # GHz, nvsim.fitting.STRAIN_MAX at the seed
GAMMA_RAD = 1.0 / 12.0     # default RateParams.gamma_rad, 1/ns
ODMR_LINEWIDTH = 0.1       # default optical linewidth x 5, GHz

# file -> (absolute tolerance, relative tolerance) for reference checks
REF_TOL = {
    "levels.csv": (ENERGY_ABS, 0.0),
    "sweep.csv": (ENERGY_ABS, 0.0),
    "lines.csv": (ENERGY_ABS, SPECTRUM_REL),
    "avg.csv": (ENERGY_ABS, 0.0),
    "excitation.csv": (0.0, SPECTRUM_REL),
    "rabi.csv": (0.0, SPECTRUM_REL),
    "odmr.csv": (0.0, SPECTRUM_REL),
    "odmr_contrast.csv": (0.0, SPECTRUM_REL),
}


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _ulp9(x):
    """One unit in the ninth significant digit of |x|."""
    x = np.abs(x)
    with np.errstate(divide="ignore"):
        return np.where(x > 0, 10.0 ** (np.floor(np.log10(x)) - 8), 0.0)


def read_table(path):
    """(header, rows of strings, float matrix with NaN for text cells)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path.name}: empty")
    header, body = rows[0], rows[1:]
    values = np.full((len(body), len(header)), np.nan)
    for i, row in enumerate(body):
        _require(len(row) == len(header), f"{path.name}: row {i + 1} has "
                 f"{len(row)} fields, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                continue
            _require(math.isfinite(values[i, j]),
                     f"{path.name}: non-finite number {cell!r} in row {i + 1}")
    return header, body, values


def _numeric(values, name):
    _require(not np.isnan(values).any(), f"{name}: non-numeric cell")
    return values


def _close(actual, ref, abs_tol, rel_tol, what):
    actual, ref = np.asarray(actual), np.asarray(ref)
    _require(actual.shape == ref.shape,
             f"{what}: shape {actual.shape}, reference {ref.shape}")
    allowed = abs_tol + rel_tol * np.abs(ref) + _ulp9(ref)
    err = np.abs(actual - ref)
    bad = np.flatnonzero(~(err <= allowed))
    _require(bad.size == 0, f"{what}: {bad.size} value(s) off the reference, "
             f"worst {err.flat[bad[0]] if bad.size else 0:.3e} "
             f"(allowed {allowed.flat[bad[0]] if bad.size else 0:.3e})")


def _check_grid(column, expect, name):
    lo, hi, n = expect["grid"]
    _require(column.size == n, f"{name}: {column.size} rows, expected {n}")
    _close(column, np.linspace(lo, hi, n), 0.0, SPECTRUM_REL, f"{name} grid")


def _read_ref(workload, fname):
    path = REFS / workload / (fname + ".gz")
    if not path.is_file():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return fh.read()


def _compare_ref(outdir, fname, ref_text):
    header, body, values = read_table(outdir / fname)
    ref_rows = list(csv.reader(ref_text.splitlines()))
    _require(header == ref_rows[0], f"{fname}: header {header}")
    ref_body = ref_rows[1:]
    if fname == "crossings.csv":
        _require(len(body) == len(ref_body), f"crossings.csv: {len(body)} "
                 f"crossings, reference has {len(ref_body)}")
        ref_vals = np.array(ref_body, dtype=float).reshape(values.shape)
        _close(values[:, 0], ref_vals[:, 0], CROSSING_ABS, 0.0,
               "crossing positions")
        _require(np.array_equal(values[:, [1, 2, 4]], ref_vals[:, [1, 2, 4]]),
                 "crossings.csv: track pairs or avoided flags differ")
        return
    _require(len(body) == len(ref_body),
             f"{fname}: {len(body)} rows, reference has {len(ref_body)}")
    for j in range(len(header)):
        col = [r[j] for r in body]
        ref_col = [r[j] for r in ref_body]
        if np.isnan(values[:, j]).any():
            _require(col == ref_col, f"{fname}: column {header[j]} differs")
        else:
            abs_tol, rel_tol = REF_TOL[fname]
            _close(values[:, j], np.array(ref_col, dtype=float), abs_tol,
                   rel_tol, f"{fname} column {header[j]}")


# --- invariants, per command kind ---------------------------------------

def _inv_sweep(outdir, expect):
    _, _, v = read_table(outdir / "sweep.csv")
    v = _numeric(v, "sweep.csv")
    _check_grid(v[:, 0], expect, "sweep.csv")
    _close(np.sort(v[:, 1:], axis=1), synth.excited_levels(v[:, 0]),
           ENERGY_ABS, 0.0, "sweep.csv levels vs eigenvalues")
    _, _, c = read_table(outdir / "crossings.csv")
    c = _numeric(c, "crossings.csv")
    if c.size:
        lo, hi, _ = expect["grid"]
        _require(np.all((c[:, 0] >= lo) & (c[:, 0] <= hi)),
                 "crossings.csv: position outside the grid")
        _require(np.all((c[:, 3] >= 0) & (c[:, 3] < 0.5)),
                 "crossings.csv: gap outside [0, threshold)")


def _inv_levels(outdir, expect):
    _, body, v = read_table(outdir / "levels.csv")
    _require(sorted(r[0] for r in body)
             == sorted(["E1", "E2", "E'x", "E'y", "A1", "A2"]),
             "levels.csv: wrong labels")
    _require(np.all(np.diff(v[:, 1]) >= 0), "levels.csv: not ascending")


def _inv_lines(outdir, expect):
    _, body, v = read_table(outdir / "lines.csv")
    _require(len(body) == 18, f"lines.csv: {len(body)} lines, expected 18")
    for g in ("gSz", "gSx", "gSy"):
        total = sum(float(r[3]) for r in body if r[0] == g)
        _require(abs(total - 1.0) < 1e-6,
                 f"lines.csv: {g} strengths sum to {total}")


def _inv_excitation(outdir, expect):
    _, _, v = read_table(outdir / "excitation.csv")
    v = _numeric(v, "excitation.csv")
    _check_grid(v[:, 0], expect, "excitation.csv")
    _require(np.all((v[:, 1] > 0) & (v[:, 1] <= GAMMA_RAD * (1 + 1e-8))),
             "excitation.csv: PL rate outside (0, gamma_rad]")


def _inv_rabi(outdir, expect):
    _, _, v = read_table(outdir / "rabi.csv")
    v = _numeric(v, "rabi.csv")
    _check_grid(v[:, 0], expect, "rabi.csv")
    counts = v[:, 1]
    _require(np.all(counts > 0), "rabi.csv: non-positive counts")
    # populations enter linearly, so counts = a + b cos^2(omega tau / 2)
    basis = np.column_stack([np.ones_like(counts),
                             np.cos(RABI_OMEGA * v[:, 0] / 2.0) ** 2])
    coef, *_ = np.linalg.lstsq(basis, counts, rcond=None)
    _close(basis @ coef, counts, 0.0, 1e-7, "rabi.csv cos^2 form")


def _inv_odmr(outdir, expect):
    _, _, v = read_table(outdir / "odmr.csv")
    v = _numeric(v, "odmr.csv")
    _check_grid(v[:, 0], expect, "odmr.csv")
    top = 1.0 / (math.pi ** 2 * ODMR_LINEWIDTH)
    _require(np.all((v[:, 1] > 0) & (v[:, 1] <= top * (1 + 1e-8))),
             "odmr.csv: intensity outside (0, 1/(pi^2 linewidth)]")


def _inv_odmr_scan(outdir, expect):
    _, _, v = read_table(outdir / "odmr_contrast.csv")
    v = _numeric(v, "odmr_contrast.csv")
    _check_grid(v[:, 0], expect, "odmr_contrast.csv")
    _require(np.all((v[:, 1] > 0) & (v[:, 1] <= 1 + 1e-8)),
             "odmr_contrast.csv: contrast outside (0, 1]")
    _require(np.all(np.diff(v[:, 1]) >= -_ulp9(v[1:, 1])),
             "odmr_contrast.csv: contrast falls with temperature")


def _inv_avg(outdir, expect):
    _, _, v = read_table(outdir / "avg.csv")
    v = _numeric(v, "avg.csv")
    _check_grid(v[:, 0], expect, "avg.csv")
    _require(np.all(np.abs(v[:, 1] - synth.TRUTH["d_es"]) < 0.2),
             "avg.csv: averaged splitting far from d_es")


def _inv_fit(outdir, expect):
    report = {}
    for line in (outdir / "fit_report.txt").read_text().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key] = value
    _require(report.get("converged") == "True",
             f"fit: converged = {report.get('converged')}")
    _require(report.get("defects") == str(expect["defects"]),
             f"fit: defects = {report.get('defects')}")
    for name, tol in FIT_TOL.items():
        got = float(report.get(f"{name}_ghz", "nan"))
        _require(abs(got - synth.TRUTH[name]) <= tol,
                 f"fit: {name} = {got}, truth {synth.TRUTH[name]} +- {tol}")
    _require(math.isfinite(float(report.get("residual_rms_ghz", "nan"))),
             "fit: residual_rms not finite")
    _, body, v = read_table(outdir / "fit_strains.csv")
    _require(len(body) == expect["defects"],
             f"fit_strains.csv: {len(body)} defects")
    pinned = int(np.sum(v[:, 1] >= FIT_GRID_EDGE - 1e-6))
    _require(pinned == 0, f"fit: {pinned} strain(s) pinned at the "
             f"{FIT_GRID_EDGE:g} GHz grid edge")


INVARIANTS = {
    "levels": _inv_levels, "sweep": _inv_sweep, "lines": _inv_lines,
    "excitation": _inv_excitation, "rabi": _inv_rabi, "odmr": _inv_odmr,
    "odmr_scan": _inv_odmr_scan, "avg": _inv_avg,
    "fit_full": _inv_fit, "fit_partial": _inv_fit,
}


def check(workload, cmd, outdir, returncode, stderr):
    """None if the command's output passes, else the first reason it
    fails."""
    outdir = Path(outdir)
    try:
        _require(returncode == 0, f"exit code {returncode}")
        _require("Traceback (most recent call last)" not in stderr,
                 "traceback on stderr")
        for fname in OUTPUTS[cmd.kind] + ("manifest.txt",):
            _require((outdir / fname).is_file(), f"{fname} not written")
            if fname.endswith(".csv"):
                read_table(outdir / fname)
        INVARIANTS[cmd.kind](outdir, cmd.expect)
        for fname in OUTPUTS[cmd.kind]:
            ref = _read_ref(workload, fname)
            if ref is not None:
                _compare_ref(outdir, fname, ref)
    except CheckFailed as err:
        return str(err)
    except (OSError, ValueError) as err:
        return f"unreadable output: {err}"
    return None
