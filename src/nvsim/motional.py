"""Two-site exchange model of the room-temperature orbital averaging.

The excited-state ESR line of each orbital branch sits at its own
frequency; stochastic hopping between the branches at `hop_rate`
(spin-conserving) narrows the doublet into a single line at the mean
frequency. Temperature enters through an Arrhenius map for the hop rate.
"""

from collections import namedtuple

import numpy as np

from .linalg import eigensolve
from .model import (DEFAULT_ACTIVATION_MEV, DEFAULT_ATTEMPT_RATE,
                    Validated, checked_strains, level_weights)
from .sweep import strain_family, strain_hamiltonians

KB_MEV_PER_K = 0.08617333  # Boltzmann constant, meV/K


class BranchError(ValueError):
    """No within-branch ESR frequency at this strain: a domain error."""


class ExchangeModel(Validated, namedtuple("ExchangeModel", [
        "freq_a",             # GHz, branch-a ESR frequency
        "freq_b",             # GHz, branch-b ESR frequency
        "linewidth_0",        # GHz, intrinsic FWHM
        "hop_rate"],          # GHz, symmetric a<->b exchange
        defaults=[0.1, 0.0])):
    __slots__ = ()

    def _check(self):
        if not all(np.isfinite(v) for v in self):
            raise ValueError("exchange-model parameters must be finite")
        if self.freq_a <= 0 or self.freq_b <= 0:
            raise ValueError("ESR frequencies must be positive")
        if self.linewidth_0 <= 0:
            raise ValueError("linewidth_0 must be positive")
        if self.hop_rate < 0:
            raise ValueError("hop_rate must be nonnegative")

    @property
    def mean_frequency(self):
        # symmetric hopping holds the branches at equal weights
        return 0.5 * self.freq_a + 0.5 * self.freq_b


class TemperatureMap(Validated, namedtuple("TemperatureMap", [
        "r0",                 # GHz
        "ea"],                # meV
        defaults=[DEFAULT_ATTEMPT_RATE, DEFAULT_ACTIVATION_MEV])):
    """Arrhenius hop rate r0 * exp(-ea / kB T)."""

    __slots__ = ()

    def _check(self):
        if not (np.isfinite(self.r0) and np.isfinite(self.ea)):
            raise ValueError("r0 and ea must be finite")
        if self.r0 <= 0 or self.ea < 0:
            raise ValueError("need r0 > 0 and ea >= 0")

    def hop_rate(self, temperature):
        """Hop rate (GHz) at a temperature (K), or at each of an array."""
        temperature = np.asarray(temperature, dtype=float)
        if not np.all((temperature > 0) & (temperature < np.inf)):  # NaN too
            raise ValueError("temperature must be positive and finite")
        if self.ea == 0:    # r0, also where kB T underflows to 0
            return np.full_like(temperature, self.r0)
        # near 0 K the exponent overflows to -inf, and exp(-inf) = 0 is
        # the limit
        with np.errstate(over="ignore", divide="ignore"):
            return self.r0 * np.exp(-self.ea / (KB_MEV_PER_K * temperature))


def branch_esr_frequencies(params, strain_perp):
    """Within-branch ESR frequency (mean ms=+-1 energy minus ms=0
    energy) and internal ms=+-1 splitting for the upper (a = Ex) and
    lower (b = Ey) orbital branches.

    Requires strain large enough that every level is cleanly assigned to
    a branch (orbital weight > 0.9), and within `checked_strains`."""
    checked_strains(strain_perp)
    values, vectors = eigensolve(
        strain_hamiltonians(strain_family(params), strain_perp))
    p_x, _, _, p_sz = level_weights(vectors)
    if np.any((p_x > 0.1) & (p_x < 0.9)):
        raise BranchError(
            f"orbital branches unresolved at delta_perp={strain_perp} GHz: "
            "too little strain to separate Ex from Ey")
    out = []
    for name, in_branch in (("Ex", p_x > 0.9), ("Ey", p_x < 0.1)):
        sz = values[in_branch & (p_sz > 0.5)]
        ms1 = values[in_branch & (p_sz <= 0.5)]
        if sz.size != 1 or ms1.size != 2:
            raise BranchError(
                f"spin characters unresolved at delta_perp={strain_perp} "
                f"GHz: a level anti-crossing in the {name} branch")
        out.append((float(np.mean(ms1) - sz[0]),
                    float(abs(ms1[1] - ms1[0]))))
    return out[0][0], out[1][0], out[0][1], out[1][1]


def exchange_lineshape(model, grid):
    """Absorption intensity of the symmetric two-site exchange problem
    on an ascending frequency grid (GHz): (1/pi) Re{w^T [i 2pi(nu I -
    Omega) + K + Gamma0]^-1 w} at equal weights w = (1, 1)/sqrt(2), with
    K the exchange generator at hop rate k and Gamma0 the damping gamma0
    = pi linewidth_0. In closed form, with s = 2pi(nu - mean frequency),
    d = pi(freq_a - freq_b) and A = gamma0 (gamma0 + 2k) + d^2, it is
    (gamma0 s^2 + (gamma0 + 2k) A) / (pi |D|^2), |D|^2 = (A - s^2)^2 +
    (2 (gamma0 + k) s)^2: sums of non-negative terms. Integrated area is
    hop-rate independent."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("frequency grid must be finite")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("frequency grid must be ascending")
    gamma0 = np.pi * model.linewidth_0
    k = model.hop_rate
    s = 2.0 * np.pi * (grid - model.mean_frequency)
    # an overflow, or |D|^2 = 0, is reported just below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = gamma0 * (gamma0 + 2.0 * k) \
            + (np.pi * (model.freq_a - model.freq_b)) ** 2
        s2 = s * s
        d2 = (a - s2) ** 2 + (2.0 * (gamma0 + k) * s) ** 2
        out = (gamma0 * s2 + (gamma0 + 2.0 * k) * a) / (np.pi * d2)
    bad = ~(np.isfinite(out) & np.isfinite(d2))
    if bad.any():
        raise ArithmeticError("exchange resolvent singular or overflowed "
                              f"at {grid[np.argmax(bad)]} GHz")
    return out


def esr_contrast_vs_temperature(tmap, params, strain_perp, temperatures,
                                linewidth_0=0.1):
    """ESR contrast versus temperature: intensity at the mean frequency
    over that of the fully collapsed line, 1 / (pi^2 linewidth_0). With
    the symbols of `exchange_lineshape` it is g / (g + d^2), g = gamma0
    (gamma0 + 2k), for every temperature at once."""
    fa, fb, _, _ = branch_esr_frequencies(params, strain_perp)
    model = ExchangeModel(freq_a=fa, freq_b=fb, linewidth_0=linewidth_0)
    temperatures = np.asarray(temperatures, dtype=float)
    gamma0 = np.pi * model.linewidth_0
    with np.errstate(over="ignore", invalid="ignore"):
        g = gamma0 * (gamma0 + 2.0 * tmap.hop_rate(temperatures))
        contrast = g / (g + (np.pi * (fa - fb)) ** 2)
    if not np.all(np.isfinite(contrast)):
        raise ArithmeticError("exchange resolvent singular or overflowed "
                              f"at {model.mean_frequency} GHz")
    return list(zip(temperatures.tolist(), contrast.tolist()))
