"""Traced in-process run of a list of `nvsim` commands.

    python perfbench/tracer.py PLAN.json OUT.json

PLAN.json is a list of {"kind", "argv", "cwd"}. This process imports
nvsim, wraps the layer functions below at every module attribute through
which nvsim calls them (plus numpy's eigh/eigvalsh and the expm that
photodynamics imports), runs each argv through `nvsim.cli.run` in its own
directory, and writes the spans it kept in memory to OUT.json. The
wrapping happens only here, never in the program's own processes.
"""

import contextlib
import importlib
import json
import os
import sys
import time
import traceback

import numpy as np

# (module, attribute, probe). The layer is the module's last component,
# except numpy.linalg, which is the linalg layer. A name missing from the
# program is skipped, so the tracer keeps working when one is removed.
TARGETS = [
    ("nvsim.cli", "run", "rc"),
    ("nvsim.config", "load_config", None),
    ("nvsim.config", "write_csv", "rows"),
    ("nvsim.config", "sha256_file", None),
    ("nvsim.config", "RunManifest.write", None),
    ("nvsim.model", "build_excited_hamiltonian", None),
    ("nvsim.model", "zero_strain_levels", None),
    ("nvsim.linalg", "hermitian_eigen", "matrices"),
    ("numpy.linalg", "eigh", "matrices"),
    ("numpy.linalg", "eigvalsh", "matrices"),
    ("nvsim.sweep", "sweep", "sweep"),
    ("nvsim.sweep", "detect_crossings", "count"),
    ("nvsim.sweep", "averaged_splitting", None),
    ("nvsim.sweep", "classify_level", None),
    ("nvsim.photodynamics", "transition_lines", None),
    ("nvsim.photodynamics", "build_rate_matrix", None),
    ("nvsim.photodynamics", "stationary_state", "residual"),
    ("nvsim.photodynamics", "excitation_spectrum", None),
    ("nvsim.photodynamics", "propagate", None),
    ("nvsim.photodynamics", "polarize", None),
    ("nvsim.photodynamics", "rabi_trace", None),
    ("nvsim.photodynamics", "expm", None),
    ("nvsim.motional", "branch_esr_frequencies", None),
    ("nvsim.motional", "exchange_lineshape", "points"),
    ("nvsim.motional", "esr_contrast_vs_temperature", None),
    ("nvsim.fitting", "fit", "fit"),
    ("nvsim.fitting", "assign_lines", None),
]


def _matrices(args, out):
    shape = np.shape(args[0])
    return {"matrices": int(np.prod(shape[:-2])) if len(shape) > 2 else 1}


def _fit(args, out):
    edge = getattr(sys.modules["nvsim.fitting"], "STRAIN_MAX", 30.0)
    strains = list(out.strains.values())
    return {"iterations": int(out.iterations),
            "converged": int(bool(out.converged)),
            "rms": float(out.residual_rms),
            "boundary_hits": sum(1 for d in strains if d >= edge - 1e-6)}


def _residual(args, out):
    return {"residual": float(np.max(np.abs(np.asarray(args[0]) @ out)))}


PROBES = {
    "rc": lambda args, out: {"rc": out},
    "rows": lambda args, out: {"rows": len(args[2])},
    "matrices": _matrices,
    "sweep": lambda args, out: {"points": int(np.size(out.grid)),
                                "ambiguous": len(out.ambiguous_points)},
    "count": lambda args, out: {"count": len(out)},
    "residual": _residual,
    "points": lambda args, out: {"points": int(np.size(args[1]))},
    "fit": _fit,
}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, layer, cmd, parent, t0, t1, err, attrs]
        self.stack = []
        self.cmd = -1
        self.missing = []

    def _wrap(self, fn, name, layer, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, layer, self.cmd, stack[-1] if stack else -1,
                   0.0, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = clock()
                rec[6] = 1
                stack.pop()
                raise
            rec[5] = clock()
            stack.pop()
            if probe is not None:
                try:
                    rec[7] = probe(args, out)
                except Exception:  # a changed signature loses only the counter
                    pass
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        nv_modules = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "nvsim"
                                            or n.startswith("nvsim."))]
        for modname, attr, probe in TARGETS:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            layer = "linalg" if modname == "numpy.linalg" \
                else modname.split(".")[-1]
            wrapped = self._wrap(original, f"{layer}.{attr}", layer,
                                 PROBES.get(probe))
            setattr(owner, leaf, wrapped)
            for mod in nv_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def _caches(module_names):
    """lru_cache'd functions defined in the given nvsim modules."""
    out = []
    for name in module_names:
        mod = sys.modules.get(name)
        for value in list(vars(mod).values()) if mod else []:
            if callable(getattr(value, "cache_info", None)):
                out.append(value)
    return out


def main(plan_path, out_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    before = set(sys.modules)
    t0 = time.perf_counter()
    import nvsim.cli
    import_s = time.perf_counter() - t0
    loaded = set(sys.modules) - before
    nv_names = sorted(n for n in sys.modules if n.split(".")[0] == "nvsim")
    all_caches = _caches(nv_names)
    structure_caches = _caches(["nvsim.photodynamics"])

    tracer = Tracer()
    tracer.install()
    commands = []
    for i, cmd in enumerate(plan):
        os.chdir(cmd["cwd"])
        for cache in all_caches:   # as a fresh process would start
            cache.cache_clear()
        tracer.cmd = i
        error = None
        t0 = time.perf_counter()
        with open("stdout.txt", "w", encoding="utf-8") as out, \
                open("stderr.txt", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = nvsim.cli.run(list(cmd["argv"]))
            except Exception:
                rc = None
                error = traceback.format_exc()
                err.write(error)
        wall = time.perf_counter() - t0
        info = [c.cache_info() for c in structure_caches]
        commands.append({
            "kind": cmd["kind"], "rc": rc, "error": error, "wall": wall,
            "cache_hits": sum(x.hits for x in info),
            "cache_lookups": sum(x.hits + x.misses for x in info)})

    result = {
        "import": {"seconds": import_s, "modules": len(loaded),
                   "scipy_modules": sum(1 for n in loaded
                                        if n.split(".")[0] == "scipy")},
        "missing": tracer.missing,
        "commands": commands,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
