"""Strain sweeps: adiabatic level tracking, crossing detection and the
orbit-averaged spin splitting.

Every strain-dependent spectrum goes through one batched core: the
Hamiltonian is affine in the strain (`strain_family`), so a whole grid is
diagonalised by one stacked, checked `linalg.eigensolve` call and its
level characters are read off in one pass. Crossing refinement and the
repump strain share one batched bisection. The strain slopes and
`parameter_operators` are read off `model`'s term table, not rebuilt
from Hamiltonians.

The family is stored in `model.gauged`'s real gauge D^dagger H D, where
every strain Hamiltonian is real symmetric, so LAPACK runs its faster
real solvers; nothing read off the eigenvectors depends on D.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .linalg import eigensolve
from .model import (LEVEL_WEIGHTS, PARAMETER_TERMS, STRAIN_X,
                    SX2_MINUS_SY2, FineStructureParams, StrainVector,
                    build_excited_hamiltonian, checked_strains,
                    dominant_spins, gauged, greedy_match, level_weights,
                    symmetry_states)

SYMMETRY_OVERLAP_MIN = 0.9
HALF_WIDTHS = 3.0       # a crossing's spins are read this many half-widths out
GAP_FLOOR = 1e-6        # GHz, least gap of an avoided crossing

# The parameters the Hamiltonian is linear in, with no constant term
LINEAR_PARAMS = tuple(PARAMETER_TERMS)


class SweepError(ArithmeticError):
    pass


@dataclass(frozen=True)
class LevelCharacter:
    """Orbital-branch and spin-population weights of one eigenstate."""

    p_branch_x: float
    p_sx: float
    p_sy: float
    p_sz: float
    symmetry_tag: Optional[str] = None

    @property
    def dominant_spin(self):
        weights = np.array([getattr(self, n) for n in LEVEL_WEIGHTS])
        return list(LEVEL_WEIGHTS)[dominant_spins(weights)].removeprefix("p_")


@dataclass(frozen=True)
class CrossingEvent:
    strain_at_min_gap: float
    track_a: int
    track_b: int
    min_gap: float
    avoided: bool


@dataclass
class SweepResult:
    grid: np.ndarray                  # ascending delta_perp values (GHz)
    energies: np.ndarray              # (npoints, 6), track-ordered
    vectors: np.ndarray               # (npoints, 6, 6), track-ordered columns
    params: FineStructureParams
    ambiguous_points: list            # grid indices where tracking overlap^2 < 0.5

    @cached_property
    def characters(self):
        """Per point, the list of the 6 tracks' LevelCharacter; built
        on first access."""
        return _characters(self.vectors)


@lru_cache(maxsize=16)
def strain_family(params):
    """(h0, hd, hd_neg): the Hamiltonian at transverse strain (delta, 0)
    is h0 + delta * hd for delta >= 0 and h0 + delta * hd_neg below, with
    the slopes STRAIN_X +- e_es_coeff * SX2_MINUS_SY2 read off the model's
    terms: the e_es term follows |delta|. Sweeps run along x; off that
    axis the levels also depend on the strain's direction. All three
    are real, in the gauge of `model.gauged`. Cached read-only: the fit
    asks for the same params once per strain refinement step."""
    e_es = params.e_es_coeff * SX2_MINUS_SY2
    return tuple(gauged(np.stack([
        build_excited_hamiltonian(params, StrainVector(0.0, 0.0)),
        STRAIN_X + e_es, STRAIN_X - e_es])))


@lru_cache(maxsize=4)
def parameter_operators(names):
    """dH/d(name) for each of the tuple names, stacked (p, 6, 6) and in
    the gauge of `strain_family`: the operator each of LINEAR_PARAMS
    multiplies in the model's term table, the same at every parameter
    value and strain."""
    if not set(names) <= set(LINEAR_PARAMS):
        raise ValueError(f"the Hamiltonian is linear only in "
                         f"{', '.join(LINEAR_PARAMS)}")
    return gauged(np.stack([PARAMETER_TERMS[name] for name in names]))


def strain_hamiltonians(family, deltas):
    """Hamiltonians (..., 6, 6) at the strains (delta, 0) of deltas."""
    h0, hd, hd_neg = family
    d = np.asarray(deltas, dtype=float)[..., None, None]
    return h0 + d * np.where(d < 0, hd_neg, hd)


def strain_slopes(family, deltas, operators=None, curvatures=False):
    """Eigenvalues (..., 6) at the strains (delta, 0) of deltas and their
    Hellmann-Feynman derivatives dE_k/d(delta) = v_k . Hd . v_k, with Hd
    the family's slope on the strain's side of zero; given operators
    (p, 6, 6) in its gauge, such as `parameter_operators`, also
    v_k . O_j . v_k (..., p, 6); with curvatures, last, the second
    derivatives 2 sum_{j != k} (v_j . Hd . v_k)^2 / (E_k - E_j) (..., 6),
    an exactly degenerate pair adding 0. All from the same eigensolve."""
    h0, hd, hd_neg = family
    d = np.asarray(deltas, dtype=float)[..., None, None]
    slope = np.where(d < 0, hd_neg, hd)
    values, vectors = eigensolve(h0 + d * slope)
    moved = slope @ vectors
    out = [values, np.sum(vectors * moved, axis=-2)]
    if operators is not None:
        v = vectors[..., None, :, :]
        out.append(np.sum(v * (operators @ v), axis=-2))
    if curvatures:
        coupling = np.swapaxes(vectors, -1, -2) @ moved
        gaps = values[..., :, None] - values[..., None, :]
        out.append(2.0 * np.divide(coupling ** 2, gaps, where=gaps != 0,
                                   out=np.zeros_like(gaps)).sum(axis=-1))
    return tuple(out)


def _characters(vectors):
    """LevelCharacter of every eigenvector column of vectors (n, 6, k),
    as n lists of k. A symmetry tag is attached when the overlap with a
    zero-strain symmetry state reaches SYMMETRY_OVERLAP_MIN."""
    refs = symmetry_states()
    tags = list(refs) + [None]
    pops = np.moveaxis(level_weights(vectors), 0, -1)
    ref_rows = np.array(list(refs.values()), dtype=complex).reshape(-1, 6)
    hit = np.abs(ref_rows.conj() @ vectors) ** 2 >= SYMMETRY_OVERLAP_MIN
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), len(refs))
    return [[LevelCharacter(*p, tags[t]) for p, t in zip(prow, trow)]
            for prow, trow in zip(pops.tolist(), first.tolist())]


def classify_level(vec):
    """Branch and spin populations of a unit-norm 6-vector; a symmetry
    tag is attached when the overlap with a zero-strain symmetry state
    exceeds 0.9."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (6,):
        raise ValueError("expected a 6-component eigenvector")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"eigenvector norm {norm:.6f} is not 1")
    return _characters(v.reshape(1, 6, 1))[0][0]


def sweep(params, grid):
    """Diagonalize along an ascending strain grid and stitch the six
    levels into continuous tracks by greedy overlap matching of every
    step at once (`model.greedy_match`); a step whose smallest matched
    overlap^2 is below 0.5 is ambiguous. Track t lies in column perms[i][t]
    = cols[i - 1][perms[i - 1][t]] at point i, composed by a prefix scan
    of log2(points) rounds."""
    grid = checked_strains(grid)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be ascending with at least 2 points")

    values, vectors = eigensolve(
        strain_hamiltonians(strain_family(params), grid))
    # overlap^2 of each point's eigenvectors with the previous point's
    cols, quality = greedy_match(
        (vectors[:-1].transpose(0, 2, 1) @ vectors[1:]) ** 2)
    ambiguous = (np.flatnonzero(quality.min(axis=1) < 0.5) + 1).tolist()
    perms = np.concatenate([np.arange(6)[None], cols])
    shift = 1
    while shift < grid.size:
        # perms[i] becomes perms[i][perms[i - shift]]
        perms[shift:] = np.take_along_axis(perms[shift:], perms[:-shift],
                                           axis=1)
        shift *= 2
    energies = np.take_along_axis(values, perms, axis=1)
    tracked = np.take_along_axis(vectors, perms[:, None, :], axis=2)
    return SweepResult(grid=grid, energies=energies, vectors=tracked,
                       params=params, ambiguous_points=ambiguous)


def _bisect(f, lo, hi, tol, f_lo):
    """Roots of the batched f (an array of points to an array of values)
    on the brackets [lo, hi], across each of which f changes sign: the
    midpoints once every bracket is at most tol wide or cannot split.
    f_lo is f(lo), which every caller has already read."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        split = (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not split.any():
            return mid
        f_mid = f(mid)
        left = split & (f_lo * f_mid <= 0)
        right = split & ~left
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(right, mid, lo), np.where(right, f_mid, f_lo)


def detect_crossings(sr, gap_threshold):
    """Locate (avoided) crossings: local minima of pairwise track gaps
    below `gap_threshold`, each bisected to a zero of the Hellmann-Feynman
    gap derivative <hi|Hd|hi> - <lo|Hd|lo> of the sorted ranks lo, hi the
    two tracks hold at the minimum. Of the bracket between its grid
    neighbours, the half over which that derivative turns from negative
    to positive is bisected, as it holds a minimum of the gap; where
    neither half does, the whole bracket.

    The verdict reads the crossing's own width, not the grid. At the
    refined strain x, g = E_hi - E_lo and c = E''_hi - E''_lo, both from
    one `strain_slopes` solve with curvatures; a two-level anticrossing has
    c = s^2 / g there, s its slope difference, so its half-width is
    w = sqrt(g / c). It is `avoided` when g > GAP_FLOOR, c > 0 and ranks
    lo and hi exchange dominant spin (`dominant_spins`) between x - K w
    and x + K w, K = HALF_WIDTHS.
    - The reads are not clipped to the sweep: the family holds on both
      sides of zero (strain along -x below it), so an event's verdict is
      a property of the model at x, whatever the sweep's range. Clipped,
      a sweep from 0 read wide events at zero strain itself, where the
      E doublets are degenerate and rounding picks their spins.
    - K = 3 leaves each level within (1 / 2K)^2, about 3%, of its
      diabatic parent while keeping the read near x: K = 5 changes the
      verdict on 7 of 30 seeded draws, each time of an event whose
      half-width is comparable to its distance from zero strain or from
      another event, where no two-level picture holds.
    - GAP_FLOOR = 1e-6 GHz: ranks exchange character at a true crossing
      too, where g is bisection noise (3e-12 to 8e-11 GHz on the seeded
      lambda_perp = 0 draws of the tests); 1 kHz is far below any
      resolved splitting, so the 2.2e-7 GHz minimum at 0.0084 GHz (the
      defaults on 12801 points) is not avoided.
    - c <= 0: x is no gap minimum but a gap maximum (where neither half
      of the bracket holds a minimum, its whole bisection can end at
      one) or the kink at zero strain, where the e_es term follows
      |delta|: not avoided."""
    if not gap_threshold > 0:   # NaN too
        raise ValueError("gap_threshold must be positive")
    family = strain_family(sr.params)
    pair_a, pair_b = np.triu_indices(6, 1)
    gap = np.abs(sr.energies[:, pair_a] - sr.energies[:, pair_b])
    mid = gap[1:-1]
    minima = (mid <= gap[:-2]) & (mid < gap[2:]) & (mid < gap_threshold)
    pair, i = np.nonzero(minima.T)      # pair-major, as events are listed
    i += 1
    a, b = pair_a[pair], pair_b[pair]
    cand = np.arange(i.size)
    rank = np.argsort(np.argsort(sr.energies[i], kind="stable"))
    lo, hi = np.sort([rank[cand, a], rank[cand, b]], axis=0)

    def slope_gap(x):
        hf = strain_slopes(family, x)[1]
        return hf[..., cand, hi] - hf[..., cand, lo]

    # the bracket's ends and midpoint, (3, events)
    x3 = sr.grid[i + np.array([[-1], [0], [1]])]
    s = slope_gap(x3)
    left = (s[0] < 0) & (s[1] >= 0)
    right = ~left & (s[1] <= 0) & (s[2] > 0)
    x = _bisect(slope_gap, np.where(right, x3[1], x3[0]),
                np.where(left, x3[1], x3[2]), 1e-9,
                np.where(right, s[1], s[0]))
    values, _, curv = strain_slopes(family, x, curvatures=True)
    min_gap = values[cand, hi] - values[cand, lo]
    c = curv[cand, hi] - curv[cand, lo]
    gapped = (min_gap > GAP_FLOOR) & (c > 0)
    w = HALF_WIDTHS * np.sqrt(np.divide(min_gap, c, where=gapped,
                                        out=np.zeros_like(c)))
    # the dominant spins of ranks lo and hi below (0) and above (1) x
    _, vectors = eigensolve(strain_hamiltonians(family, [x - w, x + w]))
    spins = dominant_spins(level_weights(vectors))
    (lo0, lo1), (hi0, hi1) = spins[:, cand, lo], spins[:, cand, hi]
    exchanged = gapped & (lo0 == hi1) & (hi0 == lo1) & (lo0 != hi0)
    events = (CrossingEvent(strain_at_min_gap=float(x[k]), track_a=ak,
                            track_b=bk, min_gap=float(min_gap[k]),
                            avoided=bool(exchanged[k]))
              for k, (ak, bk) in enumerate(zip(a.tolist(), b.tolist())))
    return sorted(events, key=lambda e: e.strain_at_min_gap)


def averaged_splitting(params, dperp):
    """Mean of the four ms=+-1-character eigenvalues minus the mean of
    the two ms=0-character ones (the orbit-averaged ESR splitting). A
    scalar strain gives a float; a grid of strains gives an array, from
    one stacked eigensolve."""
    deltas = checked_strains(dperp).reshape(-1)
    values, vectors = eigensolve(
        strain_hamiltonians(strain_family(params), deltas))
    ms0 = level_weights(vectors)[-1] > 0.5     # the ms=0 (Sz) weight
    mixed = np.flatnonzero(ms0.sum(axis=1) != 2)
    if mixed.size:
        # near an avoided crossing characters mix; fall back on the
        # sorted-position partition of the decoupled lambda_perp = 0
        # reference at the same strains
        ref = strain_family(replace(params, lambda_perp=0.0))
        _, ref_vectors = eigensolve(
            strain_hamiltonians(ref, deltas[mixed]))
        top2 = np.argsort(level_weights(ref_vectors)[-1], axis=1)[:, -2:]
        ms0[mixed] = False
        ms0[mixed[:, None], top2] = True
    n = deltas.size
    split = (values[~ms0].reshape(n, 4).mean(axis=1)
             - values[ms0].reshape(n, 2).mean(axis=1))
    return float(split[0]) if np.ndim(dperp) == 0 \
        else split.reshape(np.shape(dperp))


def _upper_branch_sz_gaps(family, deltas):
    """Gap between the upper-branch ms=0 level and the nearer upper-branch
    ms=+-1 level at every strain; NaN where the upper branch is not
    resolved into three levels with one ms=0 among them."""
    values, vectors = eigensolve(strain_hamiltonians(family, deltas))
    p_x, _, _, p_sz = level_weights(vectors)
    upper = p_x > 0.5
    sz = upper & (p_sz > 0.5)
    resolved = (upper.sum(axis=1) == 3) & (sz.sum(axis=1) == 1)
    e_sz = np.take_along_axis(values, sz.argmax(axis=1)[:, None], axis=1)
    gaps = np.where(upper & ~sz, np.abs(values - e_sz), np.inf).min(axis=1)
    return np.where(resolved, gaps, np.nan)


def nv2_condition_strain(params, window=(0.0, 100.0), tol=1e-6):
    """Smallest strain at which the upper-branch ms=0 level is separated
    from the nearer ms=+-1 level by exactly the ground-state splitting
    (the resonant-repumping condition)."""
    target = params.d_gs
    family = strain_family(params)

    def resolved(d, fs):
        bad = np.flatnonzero(np.isnan(fs))
        if bad.size:
            raise SweepError("upper branch not resolved at "
                             f"delta_perp={d[bad[0]]}")
        return fs

    # branches unresolved at tiny strain
    lo, hi = checked_strains((max(window[0], 0.3), window[1]))
    xs = np.linspace(lo, hi, 400)
    fs = _upper_branch_sz_gaps(family, xs) - target
    change = np.flatnonzero((fs[:-1] == 0.0) | (fs[:-1] * fs[1:] < 0))
    # the scan ends at the first sign change, and fails at an unresolved
    # point on the way there
    end = change[0] + 1 if change.size else xs.size - 1
    resolved(xs[:end + 1], fs[:end + 1])
    if not change.size:
        raise SweepError(f"no strain in {window} satisfies the "
                         f"d_gs={target} GHz condition")
    return _bisect(lambda d: resolved(d, _upper_branch_sz_gaps(family, d)
                                      - target),
                   xs[end - 1:end], xs[end:end + 1], tol, fs[end - 1:end])[0]
