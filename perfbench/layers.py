"""Per-layer metrics derived from the spans of a traced run.

A span is recorded by `tracer.py` around each call into a layer; its
layer is the `nvsim` module the function belongs to. Time metrics are
layer-exclusive: a stage's time is the time spent inside its spans minus
what child spans of *other* layers cover, so that `linalg.eigen_s` and
`sweep.track_s` can be added without counting an eigensolve twice.
"""

from workloads import KINDS

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("import.modules", "count", "lower"),
    ("import.scipy_modules", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("config.io_s", "s", "lower"),
    ("config.csv_rows", "count", "lower"),
    ("model.hamiltonians", "count", "lower"),
    ("model.hamiltonian_s", "s", "lower"),
    ("linalg.eigen_calls", "count", "lower"),
    ("linalg.matrices", "count", "lower"),
    ("linalg.eigen_s", "s", "lower"),
    ("linalg.us_per_matrix", "us", "lower"),
    ("sweep.track_s", "s", "lower"),
    ("sweep.points", "count", "lower"),
    ("sweep.classify_calls", "count", "lower"),
    ("sweep.ambiguous_points", "count", "lower"),
    ("sweep.crossing_s", "s", "lower"),
    ("sweep.crossing_matrices", "count", "lower"),
    ("sweep.crossings", "count", "lower"),
    ("sweep.avg_s", "s", "lower"),
    ("sweep.avg_points", "count", "lower"),
    ("photodynamics.rate_matrix_builds", "count", "lower"),
    ("photodynamics.rate_matrix_s", "s", "lower"),
    ("photodynamics.steady_solves", "count", "lower"),
    ("photodynamics.steady_s", "s", "lower"),
    ("photodynamics.steady_residual_max", "1/ns", "lower"),
    ("photodynamics.expm_calls", "count", "lower"),
    ("photodynamics.propagate_s", "s", "lower"),
    ("photodynamics.structure_hit_ratio", "ratio", "higher"),
    ("motional.branch_s", "s", "lower"),
    ("motional.lineshape_calls", "count", "lower"),
    ("motional.lineshape_points", "count", "lower"),
    ("motional.lineshape_s", "s", "lower"),
    ("fitting.fit_s", "s", "lower"),
    ("fitting.nm_iterations", "count", "lower"),
    ("fitting.matrices", "count", "lower"),
    ("fitting.assign_calls", "count", "lower"),
    ("fitting.converged", "count", "higher"),
    ("fitting.boundary_hits", "count", "lower"),
    ("fitting.residual_rms_ghz", "GHz", "lower"),
] + [(f"{layer}.errors", "count", "lower") for layer in (
    "cli", "config", "model", "linalg", "sweep", "photodynamics",
    "motional", "fitting")] + [
    ("trace.overhead_frac", "ratio", "lower"),
] + [(f"trace.uncovered.{kind}", "ratio", "lower") for kind in KINDS]

# Which end-to-end time each layer metric should move, on which workload.
LAYER_MAP = [
    ("import.*", "setup_s and every short command", "cli_defaults"),
    ("cli.self_s", "every command", "cli_defaults"),
    ("config.*", "sweep_s, avg_s, odmr_s", "cli_defaults"),
    ("model.*", "sweep_s, avg_s", "cli_defaults"),
    ("linalg.*", "sweep_s, avg_s; fit_full_s, fit_partial_s",
     "cli_defaults; cli_fit"),
    ("sweep.track_s/points/classify_calls/ambiguous_points", "sweep_s",
     "cli_defaults"),
    ("sweep.crossing_*", "sweep_s", "cli_defaults"),
    ("sweep.avg_*", "avg_s", "cli_defaults"),
    ("photodynamics.rate_matrix_*", "excitation_s, rabi_s", "cli_defaults"),
    ("photodynamics.steady_*", "excitation_s", "cli_defaults"),
    ("photodynamics.expm_calls/propagate_s", "rabi_s", "cli_defaults"),
    ("photodynamics.structure_hit_ratio", "excitation_s, rabi_s, lines_s",
     "cli_defaults"),
    ("motional.*", "odmr_s, odmr_scan_s", "cli_defaults"),
    ("fitting.fit_s/nm_iterations/matrices/assign_calls",
     "fit_full_s, fit_partial_s", "cli_fit"),
    ("fitting.converged/boundary_hits/residual_rms_ghz",
     "health counters; no change should move them", "all"),
    ("<layer>.errors", "failed_frac", "all"),
    ("trace.*", "tracing cost and span coverage", "all"),
]

# Stage -> span names whose layer-exclusive time it sums.
STAGES = {
    "config.io_s": {"config.write_csv", "config.RunManifest.write",
                    "config.sha256_file"},
    "model.hamiltonian_s": {"model.build_excited_hamiltonian"},
    "linalg.eigen_s": {"linalg.hermitian_eigen", "linalg.eigh",
                       "linalg.eigvalsh"},
    "sweep.track_s": {"sweep.sweep"},
    "sweep.crossing_s": {"sweep.detect_crossings"},
    "sweep.avg_s": {"sweep.averaged_splitting"},
    "photodynamics.rate_matrix_s": {"photodynamics.build_rate_matrix"},
    "photodynamics.steady_s": {"photodynamics.stationary_state"},
    "photodynamics.propagate_s": {"photodynamics.propagate",
                                  "photodynamics.expm"},
    "motional.branch_s": {"motional.branch_esr_frequencies"},
    "motional.lineshape_s": {"motional.exchange_lineshape"},
    "fitting.fit_s": {"fitting.fit"},
}
CALLS = {
    "model.hamiltonians": "model.build_excited_hamiltonian",
    "sweep.classify_calls": "sweep.classify_level",
    "sweep.avg_points": "sweep.averaged_splitting",
    "photodynamics.rate_matrix_builds": "photodynamics.build_rate_matrix",
    "photodynamics.steady_solves": "photodynamics.stationary_state",
    "photodynamics.expm_calls": "photodynamics.expm",
    "motional.lineshape_calls": "motional.exchange_lineshape",
    "fitting.assign_calls": "fitting.assign_lines",
}
# metric -> (span name, attribute summed over those spans)
ATTR_SUMS = {
    "config.csv_rows": ("config.write_csv", "rows"),
    "sweep.points": ("sweep.sweep", "points"),
    "sweep.ambiguous_points": ("sweep.sweep", "ambiguous"),
    "sweep.crossings": ("sweep.detect_crossings", "count"),
    "motional.lineshape_points": ("motional.exchange_lineshape", "points"),
    "fitting.nm_iterations": ("fitting.fit", "iterations"),
    "fitting.converged": ("fitting.fit", "converged"),
    "fitting.boundary_hits": ("fitting.fit", "boundary_hits"),
}
ATTR_MAX = {
    "photodynamics.steady_residual_max": ("photodynamics.stationary_state",
                                          "residual"),
    "fitting.residual_rms_ghz": ("fitting.fit", "rms"),
}


class Spans:
    """Columnar view of the span list written by tracer.py: each span is
    [name, layer, command index, parent index or -1, t0, t1, error, attrs]
    and a parent always precedes its children."""

    def __init__(self, spans):
        self.name = [s[0] for s in spans]
        self.layer = [s[1] for s in spans]
        self.cmd = [s[2] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[5] - s[4] for s in spans]
        self.err = [s[6] for s in spans]
        self.attrs = [s[7] or {} for s in spans]
        n = len(spans)
        cover = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                cover[self.parent[i]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, cover)]
        # layer-exclusive time of each span's subtree: its own self time
        # plus that of descendants reached without leaving its layer
        self.excl = list(self.self_time)
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0 and self.layer[p] == self.layer[i]:
                self.excl[p] += self.excl[i]

    def __len__(self):
        return len(self.name)

    def outermost(self, names):
        """Indices of spans named in `names` with no such ancestor."""
        inside = [False] * len(self)
        out = []
        for i, p in enumerate(self.parent):
            inside[i] = p >= 0 and (inside[p] or self.name[p] in names)
            if self.name[i] in names and not inside[i]:
                out.append(i)
        return out

    def under(self, names):
        """Per span: whether some ancestor is named in `names`."""
        inside = [False] * len(self)
        for i, p in enumerate(self.parent):
            inside[i] = p >= 0 and (inside[p] or self.name[p] in names)
        return inside


def derive(trace, untraced_walls, setup_s):
    """Every PER_LAYER metric from one traced run.

    trace: the JSON object tracer.py writes; untraced_walls: command index
    -> wall time of the same command as an untraced subprocess."""
    sp = Spans(trace["spans"])
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["import.modules"] = trace["import"]["modules"]
    m["import.scipy_modules"] = trace["import"]["scipy_modules"]

    for metric, names in STAGES.items():
        m[metric] = sum(sp.excl[i] for i in sp.outermost(names))
    for metric, name in CALLS.items():
        m[metric] = sum(1 for n in sp.name if n == name)
    for metric, (name, key) in ATTR_SUMS.items():
        m[metric] = sum(a.get(key, 0) for n, a in zip(sp.name, sp.attrs)
                        if n == name)
    for metric, (name, key) in ATTR_MAX.items():
        m[metric] = max((a.get(key, 0.0) for n, a in zip(sp.name, sp.attrs)
                         if n == name), default=0.0)

    eigen = sp.outermost(STAGES["linalg.eigen_s"])
    m["linalg.eigen_calls"] = len(eigen)
    m["linalg.matrices"] = sum(sp.attrs[i].get("matrices", 1) for i in eigen)
    if m["linalg.matrices"]:
        m["linalg.us_per_matrix"] = (m["linalg.eigen_s"]
                                     / m["linalg.matrices"] * 1e6)
    for metric, stage in (("sweep.crossing_matrices", "sweep.crossing_s"),
                          ("fitting.matrices", "fitting.fit_s")):
        inside = sp.under(STAGES[stage])
        m[metric] = sum(sp.attrs[i].get("matrices", 1) for i in eigen
                        if inside[i])

    hits = sum(c["cache_hits"] for c in trace["commands"])
    lookups = sum(c["cache_lookups"] for c in trace["commands"])
    if lookups:
        m["photodynamics.structure_hit_ratio"] = hits / lookups

    for i, layer in enumerate(sp.layer):
        if sp.err[i]:
            m[f"{layer}.errors"] = m.get(f"{layer}.errors", 0) + 1
    m["cli.errors"] += sum(1 for c in trace["commands"] if c["rc"] != 0)

    roots = [i for i, p in enumerate(sp.parent) if p < 0]
    m["cli.self_s"] = sum(sp.excl[i] for i in roots)
    traced, untraced = 0.0, 0.0
    for i in roots:
        c = sp.cmd[i]
        kind = trace["commands"][c]["kind"]
        if sp.dur[i] > 0:
            m[f"trace.uncovered.{kind}"] = sp.excl[i] / sp.dur[i]
        traced += sp.dur[i]
        untraced += untraced_walls[c] - setup_s
    if untraced > 0:
        m["trace.overhead_frac"] = traced / untraced - 1.0
    return m


def breakdown(trace):
    """Per command: in-process wall time, each layer's exclusive time, and
    the eigensolved matrices and line assignments the command caused."""
    sp = Spans(trace["spans"])
    eigen = set(sp.outermost(STAGES["linalg.eigen_s"]))
    out = {}
    for c, cmd in enumerate(trace["commands"]):
        row = out.setdefault(cmd["kind"], {"wall_s": cmd["wall"]})
        for i in (i for i, k in enumerate(sp.cmd) if k == c):
            key = f"{sp.layer[i]}_s"
            row[key] = row.get(key, 0.0) + sp.self_time[i]
            if i in eigen:
                row["matrices"] = row.get("matrices", 0) \
                    + sp.attrs[i].get("matrices", 1)
            if sp.name[i] == CALLS["fitting.assign_calls"]:
                row["assign_calls"] = row.get("assign_calls", 0) + 1
    return out
