"""Optical transitions and classical rate-equation dynamics.

Ten-level scheme: three ground spin sublevels (gSz, gSx, gSy), the six
strain-dependent excited eigenstates (ascending energy) and one
metastable singlet. Populations are classical (no optical coherences);
the only coherent element is the microwave rotation inside the Rabi
pulse sequence. Rates in 1/ns, energies/detunings in GHz.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import hermitian_eigen
from .model import RateParams  # noqa: F401, re-exported here
from .model import build_excited_hamiltonian, ground_levels

N_LEVELS = 10
IDX_GSZ, IDX_GSX, IDX_GSY = 0, 1, 2
IDX_EXC = slice(3, 9)
IDX_META = 9

WEAK_LINE_FLOOR = 1e-4


@dataclass(frozen=True)
class TransitionLine:
    ground_sublevel: str          # gSz | gSx | gSy
    excited_index: int            # 1..6, ascending energy
    detuning: float               # GHz, relative to the optical reference
    strength: float               # in [0, 1]; sums to 1 per ground sublevel
    spin_conserving: bool
    weak: bool = False


class RateModelError(ArithmeticError):
    """A rate-model computation failed. For a stack of generators,
    `index` is the first failing member and the message names it;
    `reason` is the message without it."""

    def __init__(self, reason, index=None):
        self.reason, self.index = reason, index
        super().__init__(reason if index is None
                         else f"generator {index}: {reason}")


@lru_cache(maxsize=64)
def _excited_structure(params, strain):
    """Excited eigenvalues (6,) and (Sz, Sx, Sy) populations (6, 3)."""
    es = hermitian_eigen(build_excited_hamiltonian(params, strain))
    w = np.abs(es.vectors) ** 2
    spin_pop = (w[[2, 0, 1]] + w[[5, 3, 4]]).T
    spin_pop.flags.writeable = False
    return es.values, spin_pop


def transition_lines(params, strain):
    """All 18 ground-to-excited lines. Line strength is the spin
    population of the excited eigenstate matching the ground sublevel
    (the optical dipole is spin-blind), halved so that the strengths per
    ground sublevel sum to one over the two orbital branches."""
    values, spin_pop = _excited_structure(params, strain)
    # the dominant spin's column; a tie goes to Sx, then Sy, then Sz
    dominant = [(1, 2, 0)[i] for i in spin_pop[:, [1, 2, 0]].argmax(axis=1)]
    lines = []
    for gi, (gname, ge) in enumerate(zip(("gSz", "gSx", "gSy"),
                                         ground_levels(params))):
        for k in range(6):
            strength = spin_pop[k, gi].item() / 2.0
            lines.append(TransitionLine(
                ground_sublevel=gname,
                excited_index=k + 1,
                detuning=float(values[k] - ge),
                strength=strength,
                spin_conserving=dominant[k] == gi,
                weak=strength < WEAK_LINE_FLOOR,
            ))
    return lines


def lorentzian_peak(detuning, fwhm):
    """Unit-peak symmetric line profile."""
    half = 0.5 * fwhm
    return half * half / (detuning * detuning + half * half)


# A rate that overflows leaves a non-finite generator, which
# stationary_state and propagate reject; numpy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def build_rate_matrix(params, strain, rp, laser_detuning=0.0,
                      mw_on=False, green_on=False):
    """Population-rate generator G with dP/dt = G P: (10, 10) for a
    scalar laser_detuning, (n, 10, 10) for n detunings.

    Columns sum to zero. The resonant laser drives every optical line at
    pump_res_max * strength * profile(laser offset); optical pumping is
    bidirectional (absorption and stimulated emission at equal rates).
    Each entry of a stack gets the same sequence of operations as the
    single matrix at its detuning, so the two agree bit for bit.
    """
    values, spin_pop = _excited_structure(params, strain)  # (6,), (6, 3)
    g_energies = np.array(ground_levels(params))  # gSz, gSx, gSy
    laser_detuning = np.asarray(laser_detuning, dtype=float)
    g = np.zeros(laser_detuning.shape + (N_LEVELS, N_LEVELS))

    def move(src, dst, rate):
        g[..., dst, src] += rate
        g[..., src, src] -= rate

    for k in range(6):
        e = 3 + k
        for gi in range(3):
            share = spin_pop[k, gi]
            # spontaneous decay, spin projection conserved
            move(e, gi, rp.gamma_rad * share)
            # resonant drive on the (gi -> e) line
            offset = laser_detuning - (values[k] - g_energies[gi])
            prof = lorentzian_peak(offset, rp.linewidth)
            if not np.all(np.isfinite(prof)):
                bad = laser_detuning.flat[np.argmin(np.isfinite(prof))]
                raise RateModelError(
                    f"line profile not finite at detuning {bad}")
            pump = rp.pump_res_max * (share / 2.0) * prof
            move(gi, e, pump)
            move(e, gi, pump)
            # spin-conserving off-resonant (green) pumping
            if green_on:
                move(gi, e, rp.pump_green * share)
        # spin-selective shelving into the metastable singlet
        isc = (rp.k_isc_xy * (spin_pop[k, 1] + spin_pop[k, 2])
               + rp.k_isc_z * spin_pop[k, 0])
        move(e, IDX_META, isc)

    # metastable decay, preferentially into gSz
    move(IDX_META, IDX_GSZ, rp.gamma_singlet * rp.beta_z)
    move(IDX_META, IDX_GSX, rp.gamma_singlet * (1.0 - rp.beta_z) / 2.0)
    move(IDX_META, IDX_GSY, rp.gamma_singlet * (1.0 - rp.beta_z) / 2.0)

    if mw_on:
        for gi in (IDX_GSX, IDX_GSY):
            move(IDX_GSZ, gi, rp.mw_mix_rate)
            move(gi, IDX_GSZ, rp.mw_mix_rate)
    return g


# Degree-13 Pade coefficients and the 1-norm up to which that approximant
# is accurate to double precision (Higham 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """Matrix exponential by scaling and squaring (Higham 2005): the
    degree-13 Pade approximant of exp(a / 2**s), squared s times, with s
    the least that brings the 1-norm below _THETA13. A non-finite matrix
    gives NaN, which the callers' conservation checks reject."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    if not np.isfinite(norm):
        return np.full_like(a, np.nan)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def uniform_ground():
    pop = np.zeros(N_LEVELS)
    pop[:3] = 1.0 / 3.0
    return pop


def propagate(pop, generator, duration):
    """Advance populations by exp(G * t); exact for a fixed generator."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    pop = np.asarray(pop, dtype=float)
    if duration == 0:
        return pop.copy()
    out = expm(generator * duration) @ pop
    err = abs(out.sum() - pop.sum())
    if not err <= 1e-9:   # also catches NaN
        raise RateModelError(
            f"propagation violated probability conservation by {err:.3e}")
    return out


def _member(flat, shape):
    """The index of flat member `flat` of a stack of the given shape:
    an int for a 1-D stack, None for a single matrix."""
    if not shape:
        return None
    index = tuple(int(i) for i in np.unravel_index(flat, shape))
    return index[0] if len(index) == 1 else index


def stationary_state(generator):
    """Unique normalized null vector of each generator of a (..., 10, 10)
    stack, as (..., 10): the least-squares solution of the generator
    bordered by a row of ones, one LAPACK solve per member. A failure
    names the first failing member of a stack."""
    generator = np.asarray(generator, dtype=float)
    shape = generator.shape[:-2]
    gens = generator.reshape((-1, N_LEVELS, N_LEVELS))
    finite = np.isfinite(gens).all(axis=(1, 2))
    if not finite.all():
        # LAPACK can hang on a non-finite matrix; never hand it one
        raise RateModelError("generator not finite",
                             _member(np.argmin(finite), shape))
    a = np.empty((gens.shape[0], N_LEVELS + 1, N_LEVELS))
    a[:, :N_LEVELS] = gens
    a[:, N_LEVELS] = 1.0
    b = np.zeros(N_LEVELS + 1)
    b[-1] = 1.0
    sol = np.empty((gens.shape[0], N_LEVELS))
    rank = np.empty(gens.shape[0], dtype=int)
    for i in range(gens.shape[0]):
        sol[i], _, rank[i], _ = np.linalg.lstsq(a[i], b, rcond=None)
    residual = np.abs(np.einsum("nij,nj->ni", gens, sol)).max(axis=1)
    deficient, unsolved = rank < N_LEVELS, residual > 1e-8
    failed = deficient | unsolved | (sol.min(axis=1) < -1e-8)
    if failed.any():
        i = np.argmax(failed)
        if deficient[i]:
            why = (f"not unique (bordered generator rank-deficient, rank "
                   f"{rank[i]} < {N_LEVELS}: the generator is reducible, "
                   "or its rates span too wide a range)")
        elif unsolved[i]:
            why = f"not found (residual {residual[i]:.3e})"
        else:
            level = np.argmin(sol[i])
            why = (f"not found (level {level} has negative population "
                   f"{sol[i, level]:.3e})")
        raise RateModelError("stationary state " + why, _member(i, shape))
    pos = np.clip(sol, 0.0, None)
    return (pos / pos.sum(axis=1, keepdims=True)).reshape(
        shape + (N_LEVELS,))


def excitation_spectrum(params, strain, rp, detunings, mw_on=True):
    """Steady-state photoluminescence rate versus laser detuning, from one
    stacked generator build and one stacked stationary solve."""
    detunings = np.asarray(detunings, dtype=float)
    if not np.all(np.isfinite(detunings)) or np.any(np.diff(detunings) <= 0):
        raise ValueError("detuning grid must be finite and ascending")
    gmats = build_rate_matrix(params, strain, rp, laser_detuning=detunings,
                              mw_on=mw_on, green_on=False)
    try:
        ss = stationary_state(gmats)
    except RateModelError as err:
        raise RateModelError(f"at detuning {detunings[err.index]} GHz: "
                             f"{err.reason}") from err
    pl = rp.gamma_rad * ss[:, IDX_EXC].sum(axis=1)
    return np.column_stack([detunings, pl])


def _mw_rotation(pop, angles):
    """Coherent population rotation between gSz and gSx (the driven
    member of the ground doublet) by each of angles; cos^2 transfer,
    populations only. One population row per angle, (n, N_LEVELS)."""
    out = np.tile(pop, (angles.size, 1))
    c2 = np.cos(angles / 2.0) ** 2
    s2 = 1.0 - c2
    out[:, IDX_GSZ] = c2 * pop[IDX_GSZ] + s2 * pop[IDX_GSX]
    out[:, IDX_GSX] = s2 * pop[IDX_GSZ] + c2 * pop[IDX_GSX]
    return out


GREEN_INIT_NS = 3000.0
SETTLE_NS = 2000.0
READOUT_NS = 1000.0


def polarize(params, strain, rp):
    """Green initialization pulse (GREEN_INIT_NS) followed by a dark
    interval (SETTLE_NS) letting the excited and metastable populations
    relax back to the ground manifold."""
    g_on = build_rate_matrix(params, strain, rp, green_on=True)
    pop = propagate(uniform_ground(), g_on, GREEN_INIT_NS)
    g_off = build_rate_matrix(params, strain, rp)
    return propagate(pop, g_off, SETTLE_NS)


def rabi_trace(params, strain, rp, omega_mw, readout_line, mw_durations):
    """Initialize (green pulse plus dark settle), rotate (MW for tau),
    read out (resonant laser on `readout_line`, integrating PL).
    Returns (tau, counts) rows."""
    if not (np.isfinite(omega_mw) and omega_mw > 0):
        raise ValueError("omega_mw must be positive and finite")
    mw_durations = np.asarray(mw_durations, dtype=float)
    if not np.all(np.isfinite(mw_durations)):
        raise ValueError("MW durations must be finite")
    if np.any(mw_durations < 0):
        raise ValueError("MW durations must be >= 0")
    if readout_line.strength <= 0:
        raise ValueError("readout line has zero strength")

    init = polarize(params, strain, rp)

    g_read = build_rate_matrix(params, strain, rp,
                               laser_detuning=readout_line.detuning)
    # augmented generator: last row integrates gamma_rad * P_excited
    aug = np.zeros((N_LEVELS + 1, N_LEVELS + 1))
    aug[:N_LEVELS, :N_LEVELS] = g_read
    aug[N_LEVELS, IDX_EXC] = rp.gamma_rad
    read_prop = expm(aug * READOUT_NS)

    # the integrator starts at 0, so only its row of the propagator acts
    pops = _mw_rotation(init, omega_mw * mw_durations)
    counts = pops @ read_prop[N_LEVELS, :N_LEVELS]
    return list(zip(mw_durations.tolist(), counts.tolist()))
