"""The benchmark's workloads: which `nvsim` commands each one runs, and
the inputs each command gets, generated from the workload seed.

Every command runs in a directory of its own, so its outputs (written to
the config's default `output_dir = .`) never mix with another's.
"""

import math
from dataclasses import dataclass, field

import numpy as np

import synth

DEFAULT_SEED = 0

WORKLOADS = {
    "cli_defaults": "every subcommand at its default size plus a 27x6 "
                    "noisy fit: interpreter and import start-up dominate "
                    "most commands",
    "cli_fit": "fit on a 120x6 full-line ensemble and on a 5-defect "
               "partial-line ensemble: the batched and the per-defect fit "
               "paths",
}

# Command kind -> files it writes besides manifest.txt.
OUTPUTS = {
    "levels": ("levels.csv",),
    "sweep": ("sweep.csv", "crossings.csv"),
    "lines": ("lines.csv",),
    "excitation": ("excitation.csv",),
    "rabi": ("rabi.csv",),
    "odmr": ("odmr.csv",),
    "odmr_scan": ("odmr_contrast.csv",),
    "avg": ("avg.csv",),
    "fit_full": ("fit_report.txt", "fit_strains.csv"),
    "fit_partial": ("fit_report.txt", "fit_strains.csv"),
}
KINDS = tuple(OUTPUTS)

PARTIAL_STRAINS = np.array([3.0, 7.0, 12.0, 17.0, 21.0])   # GHz
RABI_OMEGA = 2.0 * math.pi / 200.0   # the CLI's default --omega-mw


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `python -m nvsim.cli *argv`, run in `cwd`.
    `expect` holds what the output checker needs to know about the
    inputs."""

    kind: str
    argv: tuple
    cwd: str
    expect: dict = field(default_factory=dict)


def _grid(lo, hi, n):
    return {"grid": (float(lo), float(hi), int(n))}


def _defaults(mk):
    return [
        mk("levels", ["levels"]),
        mk("sweep", ["sweep"], expect=_grid(0.0, 20.0, 801)),
        mk("lines", ["lines"]),
        mk("excitation", ["excitation"], expect=_grid(-10.0, 10.0, 801)),
        mk("rabi", ["rabi"], expect=_grid(0.0, 400.0, 81)),
        mk("odmr", ["odmr"], expect=_grid(0.4, 2.6, 441)),
        mk("odmr_scan", ["odmr", "--temperature-scan"],
           expect=_grid(6.0, 300.0, 60)),
        mk("avg", ["avg"], expect=_grid(0.0, 30.0, 301)),
    ]


def _fit(mk, kind, rng, strains, noise, keep=slice(0, 6)):
    cmd = mk(kind, ["--config", "run.cfg", "fit", "ensemble.csv"],
             config=synth.FIT_START,
             expect={"defects": len(strains), "truth_strains": strains})
    synth.write_fit_csv(f"{cmd.cwd}/ensemble.csv",
                        synth.fit_ensemble(rng, strains, noise, keep))
    return cmd


def build(workload, seed, workdir, variant=0):
    """Write the workload's inputs under `workdir` (one sub-directory per
    command) and return its commands in run order. Each `variant` draws
    other fit ensembles from the same seed. How long a fit takes depends
    on its ensemble, by up to 15% between seeds, so the benchmark gives
    every round a variant of its own and its medians span several."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(
        [seed, list(WORKLOADS).index(workload), variant])

    def mk(kind, argv, config=None, expect=None):
        cwd = workdir / kind
        cwd.mkdir(parents=True, exist_ok=True)
        if config is not None:
            synth.write_config(cwd / "run.cfg", config)
        return Command(kind, tuple(argv), str(cwd), expect or {})

    if workload == "cli_defaults":
        strains = np.sort(rng.uniform(0.5, 20.0, 27))
        return _defaults(mk) + [_fit(mk, "fit_full", rng, strains, 0.01)]
    # The partial ensemble keeps each defect's middle four lines, noise-free,
    # at strains jittered around those of test_partial_line_lists. Dropping
    # lines at random, or drawing the five strains freely from [2, 22] GHz,
    # can leave the fit in a wrong minimum that still reports converged:
    # a defect to fix, not a load shape.
    partial = PARTIAL_STRAINS + rng.uniform(-0.5, 0.5, PARTIAL_STRAINS.size)
    return [_fit(mk, "fit_full", rng, np.sort(rng.uniform(0.5, 25.0, 120)),
                 0.01),
            _fit(mk, "fit_partial", rng, partial, 0.0, slice(1, 5))]
