"""Fine-structure model of the NV- triplet excited state.

Basis conventions
-----------------
Orbital doublet (Ex, Ey); zero-field spin basis (Sx, Sy, Sz) in which the
spin operators take the Cartesian angular-momentum form (S_k)_{ij} =
-i eps_{kij}. Product basis order, fixed everywhere in this package:

    0: Ex*Sx  1: Ex*Sy  2: Ex*Sz  3: Ey*Sx  4: Ey*Sy  5: Ey*Sz

Energies, the transverse strain included, are in GHz throughout.

The Hamiltonian is linear in each parameter and in the strain, and each
term is stated once: PARAMETER_TERMS (parameter -> operator), STRAIN_X,
STRAIN_Y and SX2_MINUS_SY2. Derivatives of H are read off these.

A level's weights are read off its eigenvector by one table,
LEVEL_WEIGHTS (weight -> basis indices): its upper (Ex) branch weight and
its Sx, Sy, Sz populations, the spins in the tie order of dominant_spins.
greedy_match pairs two sets of unit vectors one to one by overlap: the
sweep tracker's steps, and zero_strain_levels' eigenvectors (one solve
for any lambda_perp) with their symmetry labels.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eigensolve

# Largest magnitude of any strain or fine-structure parameter accepted
# from input, GHz (1 TPa of strain); `checked_strains` is its one check.
# Float64 eigenvalues of the 6x6 Hamiltonian carry an error of about eps
# times its largest term, ~1e-10 GHz at this limit against a ~1 GHz fine
# structure; far beyond it, cancellation swamps the splittings (the
# averaged splitting is 0.1 GHz off at a 1e14 GHz strain, and A2 - A1
# reads 1.7e184 GHz at lambda_z = 1e200).
MAX_STRAIN_GHZ = 1.0e6

# Arrhenius defaults of the motional hop rate (`motional.TemperatureMap`),
# calibrated (not measured) so that, at the default 20 GHz strain working
# point, the ESR contrast is ~0.5 at 150 K, >=0.8 near room temperature
# and ~0 in the cryogenic limit. They live here so that the config
# defaults do not load the motional module.
DEFAULT_ATTEMPT_RATE = 3.2e3   # GHz (phonon-scale attempt frequency)
DEFAULT_ACTIVATION_MEV = 60.0


def checked_strains(values):
    """values as a float array, each checked to be finite and within
    MAX_STRAIN_GHZ: every strain and fine-structure energy input."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.abs(values) <= MAX_STRAIN_GHZ):     # NaN too
        raise ValueError("strains and energies must be finite and within "
                         f"+-{MAX_STRAIN_GHZ:g} GHz")
    return values


@dataclass(frozen=True)
class RateParams:
    """Decay, shelving and drive rates (1/ns) of the rate model in
    `photodynamics`, defined here so that the config defaults do not load
    that module. The magnitudes are artifact defaults, not measured
    values; only the orderings k_isc_z << k_isc_xy and beta_z -> gSz are
    physically mandated."""

    gamma_rad: float = 1.0 / 12.0
    k_isc_xy: float = 0.05
    k_isc_z: float = 0.004
    gamma_singlet: float = 1.0 / 300.0
    beta_z: float = 0.9
    pump_green: float = 0.02
    pump_res_max: float = 0.02
    linewidth: float = 0.02       # optical FWHM, GHz
    mw_mix_rate: float = 0.01

    def __post_init__(self):
        rates = (self.gamma_rad, self.k_isc_xy, self.k_isc_z,
                 self.gamma_singlet, self.pump_green, self.pump_res_max,
                 self.linewidth, self.mw_mix_rate)
        if not all(np.isfinite(v) for v in rates + (self.beta_z,)):
            raise ValueError("rate parameters must be finite")
        if self.linewidth <= 0:
            raise ValueError("linewidth must be positive")
        if any(r < 0 for r in rates):
            raise ValueError("rates must be nonnegative")
        if not 0.0 <= self.beta_z <= 1.0:
            raise ValueError("beta_z must lie in [0, 1]")
        if self.k_isc_z > self.k_isc_xy:
            raise ValueError("k_isc_z must not exceed k_isc_xy")


@dataclass(frozen=True)
class FineStructureParams:
    """Zero-strain energies of the excited-state fine structure (GHz).

    Defaults are the fitted low-strain values: axial spin-orbit 5.3,
    axial spin-spin 1.42, A1/A2 half-splitting 1.55, transverse
    spin-orbit 0.2, ground-state splitting 2.88.
    """

    lambda_z: float = 5.3
    lambda_perp: float = 0.2
    d_es: float = 1.42
    delta_cap: float = 1.55
    d_gs: float = 2.88
    e_es_coeff: float = 0.0  # Ees = e_es_coeff * delta_perp
    zpl_offset: float = 0.0  # rigid shift vs 1.945 eV, axial strain included

    def __post_init__(self):
        checked_strains((self.lambda_z, self.lambda_perp, self.d_es,
                         self.delta_cap, self.d_gs, self.e_es_coeff,
                         self.zpl_offset))
        if self.d_gs <= 0:
            raise ValueError("d_gs must be positive")
        if self.lambda_perp < 0:
            raise ValueError("lambda_perp must be >= 0")


@dataclass(frozen=True)
class StrainVector:
    """Transverse strain components in GHz. Sweeps, the fit and every
    CLI command put the strain along x. Off that axis the levels also
    depend on its direction: by up to 0.03 GHz at the defaults, and by
    1.9 GHz at 20 GHz with lambda_perp = 0 and e_es_coeff = 0.1."""

    delta_x: float = 0.0
    delta_y: float = 0.0

    def __post_init__(self):
        checked_strains((self.delta_x, self.delta_y))

    @property
    def delta_perp(self):
        return float(np.hypot(self.delta_x, self.delta_y))


# Spin-1 operators in the zero-field basis (Sx, Sy, Sz)
_SX = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
_SY = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
_SZ = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])


# The diagonal of the real gauge D (see `gauged`)
GAUGE = np.array([1, 1j, 1, 1j, 1, 1j])


def gauged(m):
    """D^dagger m D of each 6x6 operator in m (..., 6, 6), D = diag(GAUGE),
    contiguous: real where its imaginary part is exactly zero (each term
    of H, and H at strain along x: multiplying by +-i is exact), complex
    otherwise. Nothing read off eigenvectors depends on D: populations,
    overlaps between gauged eigenvectors and Hellmann-Feynman slopes do
    not, and each symmetry state lies on the even or on the odd basis
    indices only, where D is one phase."""
    m = GAUGE.conj()[:, None] * m * GAUGE
    return np.ascontiguousarray(m if m.imag.any() else m.real)


def _ket(index):
    v = np.zeros(6, dtype=complex)
    v[index] = 1.0
    return v


# |A1> = (Ex*Sx + Ey*Sy)/sqrt2, |A2> = (Ey*Sx - Ex*Sy)/sqrt2
A1_STATE = (_ket(0) + _ket(4)) / np.sqrt(2.0)
A2_STATE = (_ket(3) - _ket(1)) / np.sqrt(2.0)


# The orbital strain couplings (_VX, _VY) and fixed 6x6 operators in the
# product basis above: those couplings tensored with the spin identity,
# and the e_es term's spin operator tensored with the orbital identity.
_VX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_VY = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
STRAIN_X = np.kron(_VX, np.eye(3, dtype=complex))
STRAIN_Y = np.kron(_VY, np.eye(3, dtype=complex))
SX2_MINUS_SY2 = np.kron(np.eye(2), np.diag([-1.0, 1.0, 0.0])).astype(complex)

# Transverse spin-orbit operator: two couplings between the ms=0 and
# ms=+-1 sectors, so that each of the two lower-branch level crossings
# acquires a finite anticrossing gap. Only the second piece,
# Vx (x) {Sx,Sz} - Vy (x) {Sy,Sz}, is C3v-invariant; it opens the 7.31 GHz
# gap. The first, Vx (x) Sx + Vy (x) Sy, is odd under sigma_v (y -> -y)
# and not invariant under C3: it splits the zero-strain E'x/E'y pair by
# 1.3e-4 GHz and E1/E2 by 6e-9 GHz at the defaults, and it alone opens
# the 15.50 GHz gap (strain along x keeps sigma_v, under which the two
# levels there have opposite parity), one of the two that c04 requires.
# The overall scale is a model convention (only the 0.2 GHz magnitude is
# physically constrained); 0.15 keeps the anticrossing gaps well above
# numerical resolution while the orbit-averaged spin splitting stays
# within a few percent of d_es across the whole strain range.
TRANSVERSE_SO_SCALE = 0.15


# The term table: each parameter H is linear in, with no constant term,
# and the operator it multiplies, in summation order. The axial spin-orbit
# operator is -lz_orb (x) sz_spin, not a product of 6x6 matrices.
PARAMETER_TERMS = {
    "lambda_z": -np.kron(np.array([[0, -1j], [1j, 0]]), _SZ),
    "d_es": (np.kron(np.eye(2, dtype=complex), _SZ @ _SZ)
             - (2.0 / 3.0) * np.eye(6)),
    "delta_cap": (np.outer(A2_STATE, A2_STATE.conj())
                  - np.outer(A1_STATE, A1_STATE.conj())),
    "lambda_perp": TRANSVERSE_SO_SCALE * (
        (np.kron(_VX, _SX) + np.kron(_VY, _SY))
        + (np.kron(_VX, _SX @ _SZ + _SZ @ _SX)
           - np.kron(_VY, _SY @ _SZ + _SZ @ _SY))),
}


# The weight table: each weight of a level and the basis indices whose
# |v_i|^2 it sums, in summation order; ties go to the earlier spin.
LEVEL_WEIGHTS = {"p_branch_x": (0, 1, 2), "p_sx": (0, 3), "p_sy": (1, 4),
                 "p_sz": (2, 5)}


def level_weights(vectors):
    """LEVEL_WEIGHTS (4, ..., k) of the eigenvector columns (..., 6, k)."""
    w = np.abs(vectors) ** 2
    return np.stack([sum(w[..., i, :] for i in idx)
                     for idx in LEVEL_WEIGHTS.values()])


def dominant_spins(weights):
    """Row of the largest spin weight in weights (4, ...), first on a tie."""
    return 1 + weights[1:].argmax(axis=0)


def greedy_match(ov):
    """Greedy matching on every step of a stack ov (m, n, n) of overlap^2
    between two sets of unit vectors, the rows' and the columns'.
    In each of n rounds a step takes its largest remaining entry (the
    first in row-major order on a tie) and strikes its row and column.
    Returns cols, quality (m, n): the column and overlap^2 per row."""
    m, n, _ = ov.shape
    ov = ov.copy()
    flat = ov.reshape(m, n * n)
    steps = np.arange(m)
    cols = np.empty((m, n), dtype=int)
    quality = np.empty((m, n))
    for _ in range(n):
        ij = flat.argmax(axis=1)
        i, j = np.divmod(ij, n)
        cols[steps, i] = j
        quality[steps, i] = flat[steps, ij]
        # overlap^2 >= 0, so -1 is never taken again
        ov[steps, i, :] = -1.0
        ov[steps, :, j] = -1.0
    return cols, quality


def build_excited_hamiltonian(params, strain):
    """6x6 excited-state Hamiltonian (GHz) at the given transverse strain.

    Sign convention: the axial spin-orbit term is oriented so that the
    (A1, A2) pair sits at the top of the zero-strain diagram and the E
    doublet at the bottom.
    """
    h = params.zpl_offset * np.eye(6, dtype=complex)
    for name, op in PARAMETER_TERMS.items():
        h += getattr(params, name) * op
    h += strain.delta_x * STRAIN_X + strain.delta_y * STRAIN_Y
    h += params.e_es_coeff * strain.delta_perp * SX2_MINUS_SY2
    return h


def ground_levels(params):
    """Ground-state triplet energies (gSz, gSx, gSy), traceless, with
    doublet - singlet gap equal to d_gs."""
    return (-2.0 * params.d_gs / 3.0, params.d_gs / 3.0, params.d_gs / 3.0)


def zero_strain_levels(params):
    """Six (energy, symmetry label) pairs at zero strain, in ascending
    energy: the eigenvectors of the zero-strain Hamiltonian, labelled one
    to one by greedy_match on their overlap^2 with symmetry_states()."""
    values, vectors = eigensolve(
        build_excited_hamiltonian(params, StrainVector()))
    labels, refs = zip(*symmetry_states().items())
    ov = np.abs(np.conj(refs) @ vectors).T ** 2     # (level, label)
    best = greedy_match(ov[None])[0][0]
    return [(e, labels[k]) for e, k in zip(values.tolist(), best.tolist())]


def symmetry_states():
    """Zero-strain symmetry eigenstates as unit vectors in the product
    basis: the E doublet, the ms=0 pair and the A1/A2 pair."""
    s = 1.0 / np.sqrt(2.0)
    return {
        "E1": s * (_ket(0) - _ket(4)),
        "E2": s * (_ket(1) + _ket(3)),
        "E'x": _ket(2),
        "E'y": _ket(5),
        "A1": A1_STATE,
        "A2": A2_STATE,
    }
