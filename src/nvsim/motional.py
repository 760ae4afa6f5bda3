"""Two-site exchange model of the room-temperature orbital averaging.

The excited-state ESR line of each orbital branch sits at its own
frequency; stochastic hopping between the branches at `hop_rate`
(spin-conserving) narrows the doublet into a single line at the mean
frequency. Temperature enters through an Arrhenius map for the hop rate.
"""

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_ACTIVATION_MEV, DEFAULT_ATTEMPT_RATE
from .sweep import branch_spin_weights, strain_family, strain_hamiltonians

KB_MEV_PER_K = 0.08617333  # Boltzmann constant, meV/K


class BranchError(ValueError):
    """No within-branch ESR frequency at this strain: a domain error."""


@dataclass(frozen=True)
class ExchangeModel:
    freq_a: float                 # GHz, branch-a ESR frequency
    freq_b: float                 # GHz, branch-b ESR frequency
    linewidth_0: float = 0.1      # GHz, intrinsic FWHM
    hop_rate: float = 0.0         # GHz, symmetric a<->b exchange
    weight_a: float = 0.5

    def __post_init__(self):
        vals = (self.freq_a, self.freq_b, self.linewidth_0, self.hop_rate,
                self.weight_a)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("exchange-model parameters must be finite")
        if self.freq_a <= 0 or self.freq_b <= 0:
            raise ValueError("ESR frequencies must be positive")
        if self.linewidth_0 <= 0:
            raise ValueError("linewidth_0 must be positive")
        if self.hop_rate < 0:
            raise ValueError("hop_rate must be nonnegative")
        if not 0.0 <= self.weight_a <= 1.0:
            raise ValueError("weight_a must lie in [0, 1]")

    @property
    def mean_frequency(self):
        return self.weight_a * self.freq_a \
            + (1.0 - self.weight_a) * self.freq_b


@dataclass(frozen=True)
class TemperatureMap:
    """Arrhenius hop rate r0 * exp(-ea / kB T)."""

    r0: float = DEFAULT_ATTEMPT_RATE       # GHz
    ea: float = DEFAULT_ACTIVATION_MEV     # meV

    def __post_init__(self):
        if not (np.isfinite(self.r0) and np.isfinite(self.ea)):
            raise ValueError("r0 and ea must be finite")
        if self.r0 <= 0 or self.ea < 0:
            raise ValueError("need r0 > 0 and ea >= 0")

    def hop_rate(self, temperature):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return self.r0 * np.exp(-self.ea / (KB_MEV_PER_K * temperature))


def branch_esr_frequencies(params, strain_perp):
    """Within-branch ESR frequency (mean ms=+-1 energy minus ms=0
    energy) and internal ms=+-1 splitting for the upper (a = Ex) and
    lower (b = Ey) orbital branches.

    Requires strain large enough that every level is cleanly assigned to
    a branch (orbital weight > 0.9)."""
    if not np.isfinite(strain_perp):
        raise ValueError("strain components must be finite")
    values, vectors = np.linalg.eigh(
        strain_hamiltonians(strain_family(params), strain_perp))
    p_x, p_sz = branch_spin_weights(vectors)
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
    on an ascending frequency grid (GHz).

    Resolvent form: I(nu) = (1/pi) Re{ w^T [i 2pi(nu I - Omega) + K +
    Gamma0]^-1 w }, with K the exchange generator and Gamma0 the
    intrinsic damping. Integrated area is hop-rate independent."""
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("frequency grid must be finite")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("frequency grid must be ascending")
    gamma0 = np.pi * model.linewidth_0  # damping giving FWHM linewidth_0
    k = model.hop_rate
    wa = model.weight_a
    w = np.array([np.sqrt(wa), np.sqrt(1.0 - wa)])
    # the matrix inverted, on the whole grid at once: both diagonal
    # entries have the real part k + gamma0 and the imaginary parts im,
    # both off-diagonal ones are -k
    re = k + gamma0
    im = 2.0 * np.pi * (grid[:, None] - [model.freq_a, model.freq_b])
    # the determinant's complex products written out in real arithmetic,
    # one rounding per operation; an overflow is reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        det = (re * re - im[:, 0] * im[:, 1] - k * k) \
            + 1j * (re * im[:, 1] + im[:, 0] * re)
    bad = (det == 0) | ~np.isfinite(det)
    if bad.any():
        raise ArithmeticError("exchange resolvent singular or overflowed "
                              f"at {grid[np.argmax(bad)]} GHz")
    inv = np.empty((grid.size, 2, 2), dtype=complex)
    inv[:, 0, 0] = re + 1j * im[:, 1]
    inv[:, 1, 1] = re + 1j * im[:, 0]
    inv[:, 0, 1] = inv[:, 1, 0] = k
    inv /= det[:, None, None]
    # w^T inv w as one dot product per point
    return ((w @ inv)[:, None, :] @ w)[:, 0].real / np.pi


def _fast_limit_height(model):
    """Peak height of the fully collapsed line (hop_rate -> infinity)."""
    return 1.0 / (np.pi ** 2 * model.linewidth_0)


def esr_contrast_vs_temperature(tmap, params, strain_perp, temperatures,
                                linewidth_0=0.1):
    """ESR contrast versus temperature at equal branch weights: intensity
    at the averaged frequency, normalized so the fast-exchange limit is 1."""
    fa, fb, _, _ = branch_esr_frequencies(params, strain_perp)
    rows = []
    for t in temperatures:
        m = ExchangeModel(freq_a=fa, freq_b=fb, linewidth_0=linewidth_0,
                          hop_rate=float(tmap.hop_rate(t)))
        height = exchange_lineshape(m, np.array([m.mean_frequency]))[0]
        rows.append((float(t), float(height / _fast_limit_height(m))))
    return rows
