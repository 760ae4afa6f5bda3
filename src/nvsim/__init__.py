"""Strain-dependent fine structure, photodynamics and magnetic-resonance
signatures of the NV- triplet excited state."""

from .config import (ARTIFACT_VERSION, Config, RunManifest, load_config,
                     parse_config, write_csv)
from .fitting import FitModel, FitResult, ObservedDefect, assign_lines, fit
from .linalg import EigenSystem, hermitian_eigen
from .model import (FineStructureParams, StrainVector,
                    build_excited_hamiltonian, ground_levels,
                    zero_strain_levels)
from .motional import (ExchangeModel, TemperatureMap,
                       branch_esr_frequencies, esr_contrast_vs_temperature,
                       exchange_lineshape)
from .photodynamics import (RateParams, TransitionLine, build_rate_matrix,
                            excitation_spectrum, polarize, propagate,
                            rabi_trace, stationary_state, transition_lines)
from .sweep import (CrossingEvent, LevelCharacter, SweepResult,
                    averaged_splitting, detect_crossings,
                    nv2_condition_strain, sweep)

__version__ = ARTIFACT_VERSION

__all__ = [
    "Config", "RunManifest", "load_config", "parse_config", "write_csv",
    "FitModel", "FitResult", "ObservedDefect", "assign_lines", "fit",
    "EigenSystem", "hermitian_eigen",
    "FineStructureParams", "StrainVector", "build_excited_hamiltonian",
    "ground_levels", "zero_strain_levels",
    "ExchangeModel", "TemperatureMap", "branch_esr_frequencies",
    "esr_contrast_vs_temperature", "exchange_lineshape",
    "RateParams", "TransitionLine", "build_rate_matrix",
    "excitation_spectrum", "polarize", "propagate", "rabi_trace",
    "stationary_state", "transition_lines",
    "CrossingEvent", "LevelCharacter", "SweepResult",
    "averaged_splitting", "detect_crossings", "nv2_condition_strain",
    "sweep",
]
