"""End-to-end benchmark of the `nvsim` command-line interface.

    python3 perfbench/run.py --workload cli_defaults --seed 0 \
        --seconds 55 --trace 0

Run it from the root of a source checkout; it puts `src/` on PYTHONPATH
and works in `.perfbench/<workload>/`. A single closed-loop client runs
one fresh `python -m nvsim.cli` subprocess at a time, timed from spawn
to exit, so interpreter and import start-up are included; BLAS and
OpenMP are pinned to one thread. It repeats whole rounds of the
workload's commands while the next round is expected to end within
`--seconds` (at least two rounds) and checks every command's output.

The host is shared: other tenants slow each CPU by up to half, for
seconds to minutes at a time. So the client and its commands run on one
CPU, and while a command runs the client times a short fixed probe on
that CPU every PROBE_PERIOD s. Each wall time is scaled by the mean of
PROBE_S / probe time over the command's run: the time the command would
take on a quiet host, where the probe takes PROBE_S.

With `--trace 0` it reports the end-to-end metrics: per command the
median scaled wall time (`<command>_s`, with sample count, maximum and
unscaled median, printed in the table), `setup_s` (median scaled wall
time of a fresh `import nvsim.cli`), `session_s` (sum of the
per-command medians), `failed_frac` and `peak_rss_mb`. With `--trace 1`
it runs one untraced round, then the same commands in-process under
`tracer.py`, and reports the per-layer metrics of `layers.py`. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checker
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND_TIMEOUT = 120.0    # s; the slowest command takes about 15 s
SETUP_PROBES = 3           # fresh imports timed in set-up; one more per round
MIN_ROUNDS = 2             # so that every per-command median has two samples
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# (name, unit) of the metrics BENCHMARK.json lists as end_to_end.
END_TO_END = [("setup_s", "s"), ("session_s", "s"), ("peak_rss_mb", "MB")]

# The host probe: 6x6 eigensolves and bytecode arithmetic, the kinds of
# work nvsim's commands do, sharing no code with nvsim. It takes about
# 3% of the CPU away from the command it runs beside.
PROBE_PERIOD = 0.05   # s
PROBE_ITERS = 60
PROBE_S = 0.00125     # s: the probe's time on a quiet 2-core Xeon host
_PROBE_MATS = np.random.default_rng(0).standard_normal((64, 6, 6))
_PROBE_MATS = _PROBE_MATS + _PROBE_MATS.transpose(0, 2, 1)


def host_probe():
    """Wall time of the fixed host probe, run in this process."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERS):
        acc += np.linalg.eigvalsh(_PROBE_MATS[i % 64])[0]
        acc += sum(j * j for j in range(200))
    return time.perf_counter() - t0


def _wait_exit(pid, timeout):
    """Block until process `pid` exits or `timeout` s pass, without
    reaping it, so that os.wait4 can still collect its rusage. Times the
    host probe every PROBE_PERIOD s meanwhile. Returns (exited, probe
    times)."""
    fd = os.pidfd_open(pid)
    probes = []
    deadline = time.perf_counter() + timeout
    try:
        while (left := deadline - time.perf_counter()) > 0:
            if select.select([fd], [], [], min(PROBE_PERIOD, left))[0]:
                return True, probes
            probes.append(host_probe())
        return False, probes
    finally:
        os.close(fd)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it cannot start)."""


@dataclass
class Exit:
    """How one process ended. rc is None if it was killed on timeout.
    speed is the host's mean speed while it ran, 1 on a quiet host."""
    wall: float
    rc: int
    rss_mb: float
    cpu: float
    stderr: str
    speed: float


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    rss_mb: float
    failure: str = None
    speed: float = None     # None for an in-process (traced) command

    @property
    def scaled(self):
        """Wall time on a quiet host."""
        return self.wall * self.speed


class Client:
    """Runs one subprocess at a time and waits for it to end."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("NVSIM_CONFIG", "PYTHONPATH",
                                 "PYTHONDONTWRITEBYTECODE")}
        self.env.update(BLAS_THREADS, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv, cwd, timeout=COMMAND_TIMEOUT):
        """Run one process in `cwd`, stdout and stderr to files there."""
        cwd = Path(cwd)
        with open(cwd / "stdout.txt", "wb") as out, \
                open(cwd / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            exited, probes = _wait_exit(proc.pid, timeout)
            wall = time.perf_counter() - t0
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        # reaped above; record it so Popen does not try to reap it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        probes = probes or [host_probe()]
        return Exit(wall, proc.returncode if exited else None,
                    usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                    (cwd / "stderr.txt").read_text(errors="replace"),
                    statistics.mean(PROBE_S / t for t in probes))

    def import_time(self):
        ex = self.spawn([sys.executable, "-c", "import nvsim.cli"],
                        self.workdir)
        if ex.rc != 0:
            raise BenchError(f"`import nvsim.cli` failed (exit {ex.rc}):\n"
                             f"{ex.stderr[-2000:]}")
        return Sample("setup", ex.wall, ex.cpu, ex.rss_mb, speed=ex.speed)

    def command(self, workload, cmd):
        ex = self.spawn([sys.executable, "-m", "nvsim.cli", *cmd.argv],
                        cmd.cwd)
        failure = "timed out" if ex.rc is None else \
            checker.check(workload, cmd, cmd.cwd, ex.rc, ex.stderr)
        return Sample(cmd.kind, ex.wall, ex.cpu, ex.rss_mb, failure,
                      ex.speed)


def provenance(seed):
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            sha, dirty = None, None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()), "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def measure(client, workload, seed, seconds, setup):
    """Closed-loop rounds over the commands, each round on inputs of its
    own; returns the samples."""
    samples = []
    start = time.perf_counter()
    for rounds in itertools.count(1):
        round_start = time.perf_counter()
        cmds = workloads.build(workload, seed,
                               client.workdir / f"round{rounds}", rounds)
        setup.append(client.import_time())
        samples += [client.command(workload, c) for c in cmds]
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and \
                now - start + (now - round_start) > seconds:
            return samples


def timing(samples):
    """Table row of a timing: median and maximum of the scaled wall
    times, and the median of the unscaled ones."""
    scaled = [s.scaled for s in samples]
    return {"value": statistics.median(scaled), "unit": "s",
            "n": len(scaled), "max": max(scaled),
            "wall": statistics.median(s.wall for s in samples)}


def end_to_end(samples, setup):
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s)
    per_command = {f"{k}_s": timing(v) for k, v in by_kind.items()}
    values = {
        "setup_s": timing(setup)["value"],
        "session_s": sum(m["value"] for m in per_command.values()),
        "peak_rss_mb": max(s.rss_mb for s in samples),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, per_command


def traced_run(client, workload, cmds, setup):
    """One untraced subprocess round, then the same commands in-process
    under tracer.py; returns (samples, per-layer metrics, per-command
    layer breakdown)."""
    samples = [client.command(workload, c) for c in cmds]
    plan = client.workdir / "trace_plan.json"
    spans = client.workdir / "trace_spans.json"
    plan.write_text(json.dumps([{"kind": c.kind, "argv": list(c.argv),
                                 "cwd": c.cwd} for c in cmds]))
    ex = client.spawn(
        [sys.executable, str(HERE / "tracer.py"), str(plan), str(spans)],
        client.workdir, timeout=3 * COMMAND_TIMEOUT)
    if ex.rc != 0:
        raise BenchError(f"traced run failed (exit {ex.rc}):\n"
                         f"{ex.stderr[-2000:]}")
    trace = json.loads(spans.read_text())
    for cmd, res in zip(cmds, trace["commands"]):
        failure = checker.check(workload, cmd, cmd.cwd, res["rc"],
                                res["error"] or "")
        samples.append(Sample(cmd.kind, res["wall"], 0.0, 0.0,
                              failure))
    metrics = layers.derive(trace, [s.wall for s in samples[:len(cmds)]],
                            statistics.median(s.wall for s in setup))
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    if trace["missing"]:
        print("tracer: not in this program:", ", ".join(trace["missing"]))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return samples, metrics, layers.breakdown(trace)


def report(args, prov, samples, setup, metrics, per_command, breakdown):
    failed = [s for s in samples if s.failure]
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s'}")
    print("provenance: " + json.dumps(prov))
    speeds = [s.speed for s in setup + samples if s.speed is not None]
    print(f"host speed while commands ran: median "
          f"{statistics.median(speeds):.4f}, min {min(speeds):.4f} "
          f"(1 = probe at PROBE_S = {PROBE_S} s)")
    print(f"  {'metric':36s} {'value':>14s}  unit    n      max  unscaled")
    rows = dict(per_command)
    rows["setup_s"] = timing(setup)
    rows["failed_frac"] = {"value": len(failed) / len(samples), "unit": "1",
                           "n": len(samples), "max": None}
    rows.update({k: v for k, v in metrics.items() if k not in rows})
    for name, m in rows.items():
        extra = f"  {m['n']:3d}  {m['max']:7.4f}  {m['wall']:8.4f}" \
            if m.get("max") else \
            (f"  {m['n']:3d}" if "n" in m else "")
        print(f"  {name:36s} {m['value']:14.6g}  {m['unit']:6s}{extra}")
    if breakdown:
        print("in-process time by layer (layer-exclusive s), per command:")
        for kind, row in breakdown.items():
            print(f"  {kind:12s} " + "  ".join(f"{k} {v:.4g}"
                                              for k, v in row.items()))
        print("layer metric -> end-to-end metric it moves (workload):")
        for metric, e2e, where in layers.LAYER_MAP:
            print(f"  {metric} -> {e2e} ({where})")
    for s in failed:
        print(f"FAILED {s.kind}: {s.failure}")
    record = {"args": vars(args), "provenance": prov,
              "samples": [vars(s) for s in samples],
              "setup": [vars(s) for s in setup],
              "per_command": per_command, "metrics": metrics}
    (ROOT / ".perfbench" / args.workload / "result.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "nvsim" / "cli.py").is_file():
        print(f"perfbench: no nvsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # The probe must run on the CPU its command runs on: the host slows
    # each CPU independently. Commands inherit the client's affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    client = Client(workdir)
    try:
        client.import_time()        # warm-up: byte-compiles the package
        setup = [client.import_time() for _ in range(SETUP_PROBES)]
        if args.trace:
            cmds = workloads.build(args.workload, args.seed, workdir)
            samples, metrics, breakdown = traced_run(
                client, args.workload, cmds, setup)
            per_command = {}
        else:
            samples = measure(client, args.workload, args.seed,
                              args.seconds, setup)
            metrics, per_command = end_to_end(samples, setup)
            breakdown = {}
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    report(args, prov, samples, setup, metrics, per_command, breakdown)
    return 0


if __name__ == "__main__":
    sys.exit(main())
