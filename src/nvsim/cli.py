"""Command-line front end.

Every subcommand reads an optional flat config file (--config), computes
its tables and hands them to `_finish`, the one writer: it writes them
plus a run manifest, whose command line replays by POSIX shell rules,
into the configured output directory and prints a short summary once
every file is written; a closed stdout ends that output quietly. Exit
codes: 0 success, 1 usage/configuration error (a ValueError, an `odmr`
strain with unresolved branches included) or an output that cannot be
written, 2 numerical failure.

Each command imports the modules it runs when it runs, so a process
loads only what its subcommand uses.

The package import (`nvsim/__init__.py`) pauses the collector and ages
what it allocated unscanned: one collection at start-up, not ~30. The
process entry, `main()`, ends the process once `run()` returns: it runs
the atexit handlers, flushes stdout and stderr and calls `os._exit`,
skipping the module teardown and final collections of a normal exit
(2-4 ms a command), which free only what dies with the process. Every
output file is closed before its summary is printed. `run()`, which
tests and library callers use, returns its exit code and ends nothing.
"""

import argparse
import atexit
import os
import re
import sys

import numpy as np

from .config import (Config, RunManifest, format_number, linear_grid,
                     load_config, sha256_file, write_csv)
from .model import StrainVector, zero_strain_levels

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of calling sys.exit. A token
    that starts like a negative number is a value, as every token float()
    parses does (argparse's own pattern takes -1e3, -5. or -inf for an
    option); the flag's type check rejects the rest."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    p = _Parser(prog="nvsim", description=(
        "NV- excited-state fine structure, photodynamics and ESR versus "
        "transverse strain. Each subcommand writes its CSV tables and a "
        "run manifest into the configured output directory. Exit codes: "
        "0 success, 1 usage or configuration error, 2 numerical failure."))
    p.add_argument("--config", default=None,
                   help="flat key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("levels", help="zero-strain fine-structure table")

    sp = sub.add_parser("sweep", help="energies vs transverse strain")
    sp.add_argument("--gap-threshold", type=float, default=0.5,
                    help="report gap minima below this (GHz)")

    sp = sub.add_parser("lines", help="optical transition table")
    _strain_flag(sp)

    sp = sub.add_parser("excitation", help="PL excitation spectrum")
    _strain_flag(sp)
    sp.add_argument("--mw-off", dest="mw", action="store_false",
                    help="no microwave drive (default: driven)")
    sp.add_argument("--detuning-min", type=float, default=-10.0)
    sp.add_argument("--detuning-max", type=float, default=10.0)
    sp.add_argument("--detuning-points", type=int, default=801)

    sp = sub.add_parser("rabi", help="MW nutation trace")
    _strain_flag(sp)
    sp.add_argument("--readout", choices=("sz", "sxy"), default="sz",
                    help="optical readout line family")
    sp.add_argument("--omega-mw", type=float, default=2.0 * np.pi / 200.0,
                    help="Rabi angular frequency (rad/ns)")
    sp.add_argument("--tau-max", type=float, default=400.0)
    sp.add_argument("--tau-points", type=int, default=81)

    sp = sub.add_parser("odmr", help="motional-exchange ESR lineshape")
    _strain_flag(sp, default=20.0)
    sp.add_argument("--temperature", type=float, default=300.0)
    sp.add_argument("--temperature-scan", action="store_true",
                    help="emit contrast vs temperature instead")
    sp.add_argument("--temp-min", type=float, default=6.0)
    sp.add_argument("--temp-max", type=float, default=300.0)
    sp.add_argument("--temp-points", type=int, default=60)
    sp.add_argument("--freq-min", type=float, default=0.4)
    sp.add_argument("--freq-max", type=float, default=2.6)
    sp.add_argument("--freq-points", type=int, default=441)

    sp = sub.add_parser("avg", help="orbit-averaged spin splitting")
    sp.add_argument("--max-strain", type=float, default=30.0)
    sp.add_argument("--points", type=int, default=301)

    sp = sub.add_parser("fit", help="fit parameters from a line CSV")
    sp.add_argument("input", help="CSV with defect_id,line_ghz columns")
    sp.add_argument("--free-lambda-perp", action="store_true")
    return p


def _strain_flag(sp, default=3.0):
    # its consumers check the value (`model.checked_strains`)
    sp.add_argument("--strain", type=float, default=default,
                    help=f"transverse strain, GHz (default {default})")


def _shell_quote(token):
    """`token` as one POSIX shell word, as `shlex.quote` gives it (without
    importing shlex in every command's process)."""
    if token and not re.search(r"[^\w@%+=:,./-]", token, re.ASCII):
        return token
    return "'" + token.replace("'", "'\"'\"'") + "'"


def _finish(cfg, command, files, summary, inputs=()):
    """The one writer of a command's outputs. `files` maps each file
    name, in write order, to its content: a CSV `(header, rows)` pair
    (`write_csv`) or text, written as is. Creates output_dir, writes each
    file, then manifest.txt (the hashes of the input paths `inputs`
    included, taken before any output is written, so an output cannot
    overwrite an input first), then prints the summary and a `wrote`
    line per file, manifest.txt last. A closed stdout (`nvsim sweep |
    head -1`) ends that output quietly."""
    hashes = {p: sha256_file(p) for p in inputs}
    os.makedirs(cfg["output_dir"], exist_ok=True)
    paths = [os.path.join(cfg["output_dir"], name)
             for name in [*files, "manifest.txt"]]
    for path, content in zip(paths, files.values()):
        if isinstance(content, str):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
        else:
            write_csv(path, *content)
    RunManifest(command=command, config=cfg, inputs=hashes,
                outputs=list(files)).write(paths[-1])
    try:
        print("\n".join([summary] + [f"wrote {p}" for p in paths]),
              flush=True)
    except BrokenPipeError:
        # the rest goes to os.devnull, where the last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_levels(cfg, args, command):
    levels = zero_strain_levels(cfg.fine_structure())
    by_label = {lab: e for e, lab in levels}
    summary = ["zero-strain levels (GHz):"]
    summary += [f"  {lab:4s} {format_number(e)}" for e, lab in levels]
    summary.append("A2 - A1 = "
                   f"{format_number(by_label['A2'] - by_label['A1'])} GHz")
    _finish(cfg, command, {"levels.csv": (
        ["label", "energy_ghz"], [(lab, e) for e, lab in levels])},
        "\n".join(summary))


def _cmd_sweep(cfg, args, command):
    from .sweep import detect_crossings, sweep
    sr = sweep(cfg.fine_structure(), cfg.strain_grid())
    events = detect_crossings(sr, args.gap_threshold)
    _finish(cfg, command, {
        "sweep.csv": (["delta_perp_ghz"] + [f"track{k+1}_ghz"
                                            for k in range(6)],
                      np.column_stack([sr.grid, sr.energies]).tolist()),
        "crossings.csv": (["delta_perp_ghz", "track_a", "track_b",
                           "min_gap_ghz", "avoided"],
                          [(e.strain_at_min_gap, e.track_a + 1,
                            e.track_b + 1, e.min_gap, int(e.avoided))
                           for e in events])},
        f"swept {sr.grid.size} points, "
        f"{sum(e.avoided for e in events)} avoided crossings")


def _cmd_lines(cfg, args, command):
    from .photodynamics import transition_lines
    strain = StrainVector(args.strain, 0.0)
    lines = transition_lines(cfg.fine_structure(), strain)
    strong = sum(1 for ln in lines if not ln.weak)
    _finish(cfg, command, {"lines.csv": (
        ["ground", "excited_index", "detuning_ghz", "strength",
         "spin_conserving", "weak"],
        [(ln.ground_sublevel, ln.excited_index, ln.detuning, ln.strength,
          int(ln.spin_conserving), int(ln.weak)) for ln in lines])},
        f"{len(lines)} lines at delta_perp = "
        f"{format_number(strain.delta_perp)} GHz ({strong} strong)")


def _cmd_excitation(cfg, args, command):
    from .photodynamics import excitation_spectrum
    strain = StrainVector(args.strain, 0.0)
    grid = linear_grid(args.detuning_min, args.detuning_max,
                       args.detuning_points,
                       "--detuning-min and --detuning-max",
                       "--detuning-points")
    spec = excitation_spectrum(cfg.fine_structure(), strain, cfg.rates(),
                               grid, mw_on=args.mw)
    _finish(cfg, command,
            {"excitation.csv": (["detuning_ghz", "pl_rate"], spec.tolist())},
            f"spectrum over [{args.detuning_min}, {args.detuning_max}] GHz, "
            f"MW {'on' if args.mw else 'off'}")


def _pick_readout_line(lines, family):
    from .photodynamics import RateModelError
    want = {"sz": ("gSz",), "sxy": ("gSx", "gSy")}[family]
    pool = [ln for ln in lines
            if ln.ground_sublevel in want and ln.spin_conserving]
    if not pool:
        raise RateModelError(f"no spin-conserving {family} readout line")
    return max(pool, key=lambda ln: ln.strength)


def _cmd_rabi(cfg, args, command):
    from .photodynamics import rabi_trace, transition_lines
    strain = StrainVector(args.strain, 0.0)
    params, rp = cfg.fine_structure(), cfg.rates()
    line = _pick_readout_line(transition_lines(params, strain),
                              args.readout)
    taus = linear_grid(0.0, args.tau_max, args.tau_points, "--tau-max",
                       "--tau-points")
    rows = rabi_trace(params, strain, rp, args.omega_mw, line, taus)
    _finish(cfg, command, {"rabi.csv": (["tau_ns", "counts"], rows)},
            f"rabi trace via {args.readout} line "
            f"(excited level {line.excited_index})")


def _cmd_odmr(cfg, args, command):
    from .motional import (ExchangeModel, branch_esr_frequencies,
                           esr_contrast_vs_temperature, exchange_lineshape)
    params = cfg.fine_structure()
    dperp = args.strain
    tmap = cfg.temperature_map()
    linewidth_0 = cfg.rates().linewidth * 5     # ESR intrinsic width, GHz
    if args.temperature_scan:
        temps = linear_grid(args.temp_min, args.temp_max,
                            args.temp_points, "--temp-min and --temp-max",
                            "--temp-points")
        rows = esr_contrast_vs_temperature(
            tmap, params, dperp, temps, linewidth_0=linewidth_0)
        _finish(cfg, command, {"odmr_contrast.csv": (
            ["temperature_k", "contrast"], rows)},
            f"contrast scan {args.temp_min}-{args.temp_max} K")
        return
    fa, fb, _, _ = branch_esr_frequencies(params, dperp)
    model = ExchangeModel(freq_a=fa, freq_b=fb, linewidth_0=linewidth_0,
                          hop_rate=float(tmap.hop_rate(args.temperature)))
    grid = linear_grid(args.freq_min, args.freq_max, args.freq_points,
                       "--freq-min and --freq-max", "--freq-points")
    shape = exchange_lineshape(model, grid)
    _finish(cfg, command, {"odmr.csv": (
        ["freq_ghz", "intensity"], list(zip(grid.tolist(), shape.tolist())))},
        f"lineshape at T = {args.temperature} K "
        f"(hop rate {format_number(model.hop_rate)} GHz)")


def _cmd_avg(cfg, args, command):
    from .sweep import averaged_splitting
    grid = linear_grid(0.0, args.max_strain, args.points, "--max-strain",
                       "--points")
    vals = averaged_splitting(cfg.fine_structure(), grid)
    _finish(cfg, command, {"avg.csv": (
        ["delta_perp_ghz", "avg_split_ghz"],
        list(zip(grid.tolist(), vals.tolist())))},
        f"averaged splitting in [{format_number(vals.min())}, "
        f"{format_number(vals.max())}] GHz")


def _read_defects(path):
    from .fitting import ObservedDefect
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    if not raw or [c.strip() for c in raw[0].split(",")] != \
            ["defect_id", "line_ghz"]:
        raise UsageError(f"{path}: line 1: expected header "
                         "'defect_id,line_ghz'")
    grouped = {}
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 2:
            raise UsageError(f"{path}: line {lineno}: expected 2 fields")
        try:
            value = float(parts[1])
        except ValueError as err:
            raise UsageError(f"{path}: line {lineno}: bad line_ghz "
                             f"{parts[1]!r}") from err
        grouped.setdefault(parts[0], []).append(value)
    if not grouped:
        raise UsageError(f"{path}: no data rows")
    try:
        return [ObservedDefect(id=k, lines=tuple(sorted(v)))
                for k, v in grouped.items()]
    except ValueError as err:
        raise UsageError(f"{path}: {err}") from err


def _cmd_fit(cfg, args, command):
    from .fitting import FitError, fit
    data = _read_defects(args.input)
    result = fit(data, cfg.fine_structure(), args.free_lambda_perp)
    report = [f"defects = {len(data)}"]
    for name in ("lambda_z", "d_es", "delta_cap", "lambda_perp"):
        report.append(f"{name}_ghz = "
                      f"{format_number(getattr(result.params, name))}")
        if name in result.errors:
            report.append(f"{name}_err_ghz = "
                          f"{format_number(result.errors[name])}")
    report += [
        f"residual_rms_ghz = {format_number(result.residual_rms)}",
        f"iterations = {result.iterations}",
        f"converged = {result.converged}",
    ]
    _finish(cfg, command, {
        "fit_report.txt": "\n".join(report) + "\n",
        "fit_strains.csv": (["defect_id", "delta_perp_ghz", "offset_ghz"],
                            [(d.id, result.strains[d.id],
                              result.offsets[d.id]) for d in data])},
        "\n".join(report), inputs=[args.input])
    if not result.converged:
        raise FitError(f"fit did not converge: {result.reason}; "
                       "result flagged")


_COMMANDS = {
    "levels": _cmd_levels,
    "sweep": _cmd_sweep,
    "lines": _cmd_lines,
    "excitation": _cmd_excitation,
    "rabi": _cmd_rabi,
    "odmr": _cmd_odmr,
    "avg": _cmd_avg,
    "fit": _cmd_fit,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config) if args.config else Config()
        _COMMANDS[args.command](cfg, args, " ".join(
            map(_shell_quote, ["nvsim", *argv])))
        return 0
    # every nvsim numerical error subclasses ArithmeticError, so this
    # needs no module a command did not import; LinAlgError subclasses
    # ValueError, so numerical failures are caught before usage errors
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"nvsim: numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_EXIT
    # UsageError and ConfigError are ValueErrors; inputs report their own
    # read errors, so an OSError here is an output directory or file that
    # cannot be written
    except (ValueError, OSError) as err:
        print(f"nvsim: error: {err}", file=sys.stderr)
        return USAGE_EXIT
    # an allocation too large for the host comes from the requested sizes
    except MemoryError as err:
        print(f"nvsim: error: out of memory: {err}", file=sys.stderr)
        return USAGE_EXIT


def main():
    code = run(sys.argv[1:])
    # the end of a normal exit, without its teardown (see the module
    # docstring); a stream is None when its descriptor was closed at start
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
