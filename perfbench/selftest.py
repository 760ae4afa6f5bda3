"""Self-test of the output checker: corrupted outputs must count as
failures, clean ones must not.

    python3 perfbench/selftest.py

Uses the frozen cli_defaults references and a fit output written from
the synthetic truth, so it needs neither the program nor a benchmark
run. Exits 0 when every case is classified as expected.
"""

import gzip
import shutil
import sys

import checker
import workloads
from run import ROOT

SEED = workloads.DEFAULT_SEED


def _write_sweep(outdir, shift):
    for fname in ("sweep.csv", "crossings.csv"):
        with gzip.open(checker.REFS / "cli_defaults" / (fname + ".gz"),
                       "rt", encoding="utf-8") as fh:
            (outdir / fname).write_text(fh.read())
    if shift:
        lines = (outdir / "sweep.csv").read_text().splitlines()
        cells = lines[400].split(",")
        cells[3] = f"{float(cells[3]) + shift:#.9g}"
        lines[400] = ",".join(cells)
        (outdir / "sweep.csv").write_text("\n".join(lines) + "\n")


def _write_fit(outdir, cmd, converged=True, edge_strain=False):
    truth = cmd.expect["truth_strains"]
    report = [f"defects = {len(truth)}"] + [
        f"{k}_ghz = {v:#.9g}" for k, v in checker.synth.TRUTH.items()] + [
        "residual_rms_ghz = 0.0100000000", "iterations = 90",
        f"converged = {converged}"]
    (outdir / "fit_report.txt").write_text("\n".join(report) + "\n")
    strains = list(truth)
    if edge_strain:
        strains[-1] = 30.0
    rows = [f"nv{i + 1:03d},{d:#.9g},0.00000000"
            for i, d in enumerate(strains)]
    (outdir / "fit_strains.csv").write_text(
        "defect_id,delta_perp_ghz,offset_ghz\n" + "\n".join(rows) + "\n")


def main():
    workdir = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmds = {c.kind: c for c in workloads.build("cli_defaults", SEED,
                                                workdir)}
    cases = [  # (name, command kind, writer, must fail)
        ("sweep.csv as frozen", "sweep",
         lambda d: _write_sweep(d, 0.0), False),
        ("sweep.csv value moved by 1e-6 GHz", "sweep",
         lambda d: _write_sweep(d, 1e-6), True),
        ("fit at the truth", "fit_full",
         lambda d: _write_fit(d, cmds["fit_full"]), False),
        ("fit report with converged = False", "fit_full",
         lambda d: _write_fit(d, cmds["fit_full"], converged=False), True),
        ("fit strain pinned at 30.0 GHz", "fit_full",
         lambda d: _write_fit(d, cmds["fit_full"], edge_strain=True), True),
    ]
    attempted = failed = 0
    ok = True
    for i, (name, kind, write, must_fail) in enumerate(cases):
        outdir = workdir / f"case{i}"
        outdir.mkdir()
        write(outdir)
        (outdir / "manifest.txt").write_text("command = selftest\n")
        reason = checker.check("cli_defaults", cmds[kind], outdir, 0, "")
        attempted += 1
        failed += reason is not None
        good = (reason is not None) == must_fail
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {name}: "
              f"{'counted as failed: ' + reason if reason else 'passed'}")
    print(f"attempted {attempted}, failed {failed}, expected failures "
          f"{sum(c[3] for c in cases)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
