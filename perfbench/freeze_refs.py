"""Freeze the reference outputs the checker compares against.

    python3 perfbench/freeze_refs.py

Runs every non-fit command of every workload once at DEFAULT_SEED and
stores its CSVs, gzipped, under perfbench/refs/<workload>/. Run it only
at a commit whose outputs are trusted; the references in the repository
were frozen from the seed commit. Fits are checked against the synthetic
truth instead.
"""

import gzip
import shutil
import sys

import checker
import workloads
from run import ROOT, Client


def main():
    for workload in workloads.WORKLOADS:
        workdir = ROOT / ".perfbench" / "freeze" / workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        client = Client(workdir)
        dest = checker.REFS / workload
        for cmd in workloads.build(workload, workloads.DEFAULT_SEED, workdir):
            if cmd.kind.startswith("fit"):
                continue
            ex = client.spawn(
                [sys.executable, "-m", "nvsim.cli", *cmd.argv], cmd.cwd)
            if ex.rc != 0:
                sys.exit(f"{workload} {cmd.kind}: exit {ex.rc}\n{ex.stderr}")
            dest.mkdir(parents=True, exist_ok=True)
            for fname in workloads.OUTPUTS[cmd.kind]:
                data = (workdir / cmd.kind / fname).read_bytes()
                with gzip.GzipFile(dest / (fname + ".gz"), "wb",
                                   mtime=0) as fh:
                    fh.write(data)
                print(f"froze {workload}/{fname} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
