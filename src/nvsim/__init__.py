"""Strain-dependent fine structure, photodynamics and magnetic-resonance
signatures of the NV- triplet excited state.

The public names load lazily (PEP 562): each module is imported on the
first access to one of its names, so `import nvsim` and each CLI command
pay only for the modules they use.
"""

import gc
import importlib

# The ~22k objects the import allocates live as long as the process: no
# collection scans them, freeze() + unfreeze() ages them to generation 2.
_gc_was_on = gc.isenabled()
gc.disable()
try:
    # `sweep` names both a submodule and a function. Importing the submodule
    # binds it as this package's attribute, after which a lazy lookup would
    # never run, so the function is bound here, once, over the module.
    from .sweep import sweep
finally:
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _gc_was_on:
        gc.enable()
    del _gc_was_on

_SOURCES = {
    "config": ("Config", "RunManifest", "load_config", "parse_config",
               "write_csv"),
    "fitting": ("FitResult", "ObservedDefect", "fit"),
    "linalg": ("eigensolve",),
    "model": ("FineStructureParams", "RateParams", "StrainVector",
              "build_excited_hamiltonian", "ground_levels",
              "zero_strain_levels"),
    "motional": ("ExchangeModel", "TemperatureMap", "branch_esr_frequencies",
                 "esr_contrast_vs_temperature", "exchange_lineshape"),
    "photodynamics": ("TransitionLine", "build_rate_matrix",
                      "excitation_spectrum", "polarize", "propagate",
                      "rabi_trace", "stationary_state", "transition_lines"),
    "sweep": ("CrossingEvent", "SweepResult", "averaged_splitting",
              "detect_crossings", "nv2_condition_strain", "sweep"),
}

# public name -> (module, attribute in it)
_LAZY = {name: (mod, name) for mod, names in _SOURCES.items()
         for name in names}
_LAZY["__version__"] = ("config", "ARTIFACT_VERSION")

__all__ = [name for names in _SOURCES.values() for name in names]


def __getattr__(name):
    if name in _SOURCES:        # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    try:
        mod, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{mod}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_SOURCES))
