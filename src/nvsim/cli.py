"""Command-line front end.

Every subcommand reads an optional flat config file (--config), computes
its tables and hands them to `_finish`, the one writer: it writes them
plus a run manifest, whose command line replays by POSIX shell rules,
into the configured output directory and prints a short summary once
every file is written; a closed stdout ends that output quietly. Exit
codes: 0 success, 1 usage/configuration error (a ValueError, an `odmr`
strain with unresolved branches included) or an output that cannot be
written, 2 numerical failure.

The command line is read by `_parse` from one table, `_COMMAND_LINE`,
with argparse's grammar and error words (see README), but not argparse,
which with gettext and locale cost ~6 ms a process; `-h` is built from
the table. Each command imports the modules it runs when it runs, so a
process loads only what its subcommand uses.

The package import (`nvsim/__init__.py`) pauses the collector and ages
what it allocated unscanned: one collection at start-up, not ~30. The
process entry, `main()`, ends the process once `run()` returns: it runs
the atexit handlers, flushes stdout and stderr and calls `os._exit`,
skipping the module teardown and final collections of a normal exit
(2-4 ms a command), which free only what dies with the process. Every
output file is closed before its summary is printed. `run()`, which
tests and library callers use, returns its exit code and ends nothing.
"""

import atexit
import os
import re
import sys
import types

import numpy as np

from .config import (Config, RunManifest, format_number, linear_grid,
                     load_config, sha256_file, write_csv)
from .model import StrainVector, zero_strain_levels

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class UsageError(ValueError):
    pass


_DESCRIPTION = """\
NV- excited-state fine structure, photodynamics and ESR versus transverse
strain. Each subcommand writes its CSV tables and a run manifest into the
configured output directory. Exit codes: 0 success, 1 usage or
configuration error, 2 numerical failure."""
# An option is (flag, destination, kind, default, help). Its kind converts
# its value (`float`, `int`, `str`), is a tuple of choices, or is None for
# an on/off switch, which stores `not default`. A flag without a leading
# "-" is a required positional. The strains' consumers check them.
_HELP = ("-h/--help", None, "help", None, "show this help and exit")
_STRAIN = ("--strain", "strain", float, 3.0, "transverse strain (GHz)")
_COMMAND_LINE = {   # each subcommand's help line and options
    "levels": ("zero-strain fine-structure table", ()),
    "sweep": ("energies vs transverse strain", (
        ("--gap-threshold", "gap_threshold", float, 0.5,
         "report gap minima below this (GHz)"),)),
    "lines": ("optical transition table", (_STRAIN,)),
    "excitation": ("PL excitation spectrum", (
        _STRAIN, ("--mw-off", "mw", None, True, "no microwave drive"),
        ("--detuning-min", "detuning_min", float, -10.0,
         "lowest laser detuning (GHz)"),
        ("--detuning-max", "detuning_max", float, 10.0,
         "highest laser detuning (GHz)"),
        ("--detuning-points", "detuning_points", int, 801, "detunings"))),
    "rabi": ("MW nutation trace", (
        _STRAIN, ("--readout", "readout", ("sz", "sxy"), "sz",
                  "optical readout line family"),
        ("--omega-mw", "omega_mw", float, 2.0 * np.pi / 200.0,
         "Rabi angular frequency (rad/ns)"),
        ("--tau-max", "tau_max", float, 400.0, "longest MW pulse (ns)"),
        ("--tau-points", "tau_points", int, 81, "pulse lengths"))),
    "odmr": ("motional-exchange ESR lineshape", (
        ("--strain", "strain", float, 20.0, "transverse strain (GHz)"),
        ("--temperature", "temperature", float, 300.0, "temperature (K)"),
        ("--temperature-scan", "temperature_scan", None, False,
         "emit contrast vs temperature instead"),
        ("--temp-min", "temp_min", float, 6.0, "scan start (K)"),
        ("--temp-max", "temp_max", float, 300.0, "scan end (K)"),
        ("--temp-points", "temp_points", int, 60, "scan points"),
        ("--freq-min", "freq_min", float, 0.4, "lowest frequency (GHz)"),
        ("--freq-max", "freq_max", float, 2.6, "highest frequency (GHz)"),
        ("--freq-points", "freq_points", int, 441, "frequencies"))),
    "avg": ("orbit-averaged spin splitting", (
        ("--max-strain", "max_strain", float, 30.0, "largest strain (GHz)"),
        ("--points", "points", int, 301, "strain points"))),
    "fit": ("fit parameters from a line CSV", (
        ("input", "input", str, None, "CSV with defect_id,line_ghz columns"),
        ("--free-lambda-perp", "free_lambda_perp", None, False,
         "fit lambda_perp too"))),
}
_TOP = (("--config", "config", str, None, "flat key=value config file"),
        ("command", "command", tuple(_COMMAND_LINE), None, "one of these:"))
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _help(command):
    """`nvsim -h` (command None) or `nvsim <command> -h`, from the table."""
    text, rows = _COMMAND_LINE.get(command, (_DESCRIPTION, _TOP))
    lines = [" ".join(["usage: nvsim", *[command] * bool(command), "[-h]",
                       "[options]", *(r[0] for r in rows if r[0][0] != "-")]),
             "", text, ""]
    for flag, dest, kind, default, text in (_HELP, *rows):
        if kind not in (None, "help") and flag[0] == "-":
            flag += " {%s}" % ",".join(kind) if isinstance(kind, tuple) \
                else " " + dest.upper()
            text += "" if default is None else f" (default {default})"
        lines.append(f"  {flag:31} {text}")
    lines += [f"    {name:30}{text}" for name, (text, _)
              in _COMMAND_LINE.items() if command is None]
    return "\n".join(lines)


def _option(token, options):
    """(option, explicit value) if `token` names one of `options`, as a
    unique prefix does; (None, None) for an unknown option; None for a
    value: "-", a negative number, -inf, -nan or a token with a space."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    hits = [name] if name in options else [
        flag for flag in options if flag.startswith(name)]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {token} could match "
                         f"{', '.join(hits)}")
    if hits:
        return options[hits[0]], value if eq else None
    return None if _NEGATIVE_NUMBER.match(token) or " " in token \
        else (None, None)


def _read(tokens, rows, args, extras, command=None):
    """Reads `tokens` into `args` by the table `rows` as argparse does:
    unknown options, and values after the positional's, go to `extras`;
    after the first "--" every token is a value, and that "--" is dropped
    next to the positional's. At the top level (no `command`) the
    positional is the subcommand, which reads the rest."""
    options = {"-h": _HELP, "--help": _HELP, **{row[0]: row for row in rows}}
    positional = next((row for row in rows if row[0][0] != "-"), None)
    args.update((row[1], row[3]) for row in rows)
    sep = tokens.index("--") if "--" in tokens else len(tokens)
    found = [_option(t, options) for t in tokens[:sep]]
    found += [None] * (len(tokens) - sep)
    at, i = None, 0
    while i < len(tokens):
        token, hit, i = tokens[i], found[i], i + 1
        # a top-level "--" is taken for the subcommand, unless it is last
        if hit is None and positional and at is None and (
                i - 1 != sep or command is None and i < len(tokens)):
            (flag, dest, kind, _, _), value, at = positional, token, i - 1
        elif hit is None or hit[0] is None:
            extras.append(token)
            continue
        else:
            (flag, dest, kind, default, _), value = hit
            if kind in (None, "help") and value is not None:
                raise UsageError(f"argument {flag}: ignored explicit "
                                 f"argument {value!r}")
            if kind == "help":
                print(_help(command))
                raise SystemExit(0)
            if kind is None:
                args[dest] = not default
                continue
            if value is None and (i >= sep or found[i] is not None):
                raise UsageError(f"argument {flag}: expected one argument")
            if value is None:
                value, i = tokens[i], i + 1
        if isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        try:
            args[dest] = value if isinstance(kind, tuple) else kind(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {kind.__name__} "
                             f"value: {value!r}") from None
        if command is None and at is not None:   # the rest is the command's
            _read(tokens[i:], _COMMAND_LINE[value][1], args, extras, value)
            if extras:
                raise UsageError("unrecognized arguments: " + " ".join(extras))
            return
    if at is not None and sep < len(tokens) and abs(sep - at) == 1:
        extras.remove("--")
    if positional and at is None:
        raise UsageError("the following arguments are required: "
                         + positional[1])


def _parse(argv):
    """The namespace of `argv`; every usage error raises UsageError."""
    args = {}
    _read(argv, _TOP, args, [])
    return types.SimpleNamespace(**args)


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
    from .photodynamics import excited_structure, transition_lines
    strain = StrainVector(args.strain, 0.0)
    lines = transition_lines(excited_structure(cfg.fine_structure(), strain))
    strong = sum(1 for ln in lines if not ln.weak)
    _finish(cfg, command, {"lines.csv": (
        ["ground", "excited_index", "detuning_ghz", "strength",
         "spin_conserving", "weak"],
        [(ln.ground_sublevel, ln.excited_index, ln.detuning, ln.strength,
          int(ln.spin_conserving), int(ln.weak)) for ln in lines])},
        f"{len(lines)} lines at delta_perp = "
        f"{format_number(strain.delta_perp)} GHz ({strong} strong)")


def _cmd_excitation(cfg, args, command):
    from .photodynamics import excitation_spectrum, excited_structure
    strain = StrainVector(args.strain, 0.0)
    grid = linear_grid(args.detuning_min, args.detuning_max,
                       args.detuning_points,
                       "--detuning-min and --detuning-max",
                       "--detuning-points")
    params, rp = cfg.fine_structure(), cfg.rates()
    spec = excitation_spectrum(excited_structure(params, strain), rp, grid,
                               mw_on=args.mw)
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
    from .photodynamics import excited_structure, rabi_trace, transition_lines
    strain = StrainVector(args.strain, 0.0)
    params, rp = cfg.fine_structure(), cfg.rates()
    structure = excited_structure(params, strain)
    line = _pick_readout_line(transition_lines(structure), args.readout)
    taus = linear_grid(0.0, args.tau_max, args.tau_points, "--tau-max",
                       "--tau-points")
    rows = rabi_trace(structure, rp, args.omega_mw, line, taus)
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
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    try:
        args = _parse(argv)
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
