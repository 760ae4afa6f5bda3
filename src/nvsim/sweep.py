"""Strain sweeps: adiabatic level tracking, crossing detection and the
orbit-averaged spin splitting.

Every strain grid goes through one batched core: the Hamiltonian is affine
in the strain (`strain_family`), so a whole grid is diagonalised by one
stacked LAPACK call and its level characters are read off in one pass.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (FineStructureParams, StrainVector,
                    build_excited_hamiltonian, symmetry_states)

SYMMETRY_OVERLAP_MIN = 0.9
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class SweepError(Exception):
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
        return max(("sx", "sy", "sz"),
                   key=lambda s: getattr(self, "p_" + s))


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
    characters: list                  # per point: list of 6 LevelCharacter
    params: FineStructureParams
    ambiguous_points: list            # grid indices where tracking overlap^2 < 0.5


def strain_family(params):
    """(h0, hd, hd_neg): the Hamiltonian at transverse strain (delta, 0)
    is h0 + delta * hd for delta >= 0 and h0 + delta * hd_neg below. The
    slopes differ only through the e_es term, which follows |delta|; the
    spectrum depends on the strain vector only through its norm, so
    sweeps run along x."""
    h0 = build_excited_hamiltonian(params, StrainVector(0.0, 0.0))
    hd = build_excited_hamiltonian(params, StrainVector(1.0, 0.0)) - h0
    hd_neg = h0 - build_excited_hamiltonian(params, StrainVector(-1.0, 0.0))
    return h0, hd, hd_neg


def strain_hamiltonians(family, deltas):
    """Hamiltonians (..., 6, 6) at the strains (delta, 0) of deltas."""
    h0, hd, hd_neg = family
    d = np.asarray(deltas, dtype=float)[..., None, None]
    return h0 + d * np.where(d < 0, hd_neg, hd)


def _finite_strains(deltas):
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.ndim != 1 or not np.all(np.isfinite(deltas)):
        raise ValueError("strains must be a 1-D grid of finite numbers")
    return deltas


def _characters(vectors, tag_refs=None):
    """LevelCharacter of every eigenvector column of vectors (n, 6, k),
    as n lists of k. A symmetry tag is attached when the overlap with a
    zero-strain symmetry state reaches SYMMETRY_OVERLAP_MIN."""
    refs = symmetry_states() if tag_refs is None else tag_refs
    tags = list(refs) + [None]
    w = np.abs(vectors) ** 2
    pops = np.stack([w[:, 0] + w[:, 1] + w[:, 2], w[:, 0] + w[:, 3],
                     w[:, 1] + w[:, 4], w[:, 2] + w[:, 5]], axis=-1)
    ref_rows = np.array(list(refs.values()), dtype=complex).reshape(-1, 6)
    hit = np.abs(ref_rows.conj() @ vectors) ** 2 >= SYMMETRY_OVERLAP_MIN
    # a last row of hits stands for "no tag"
    none = np.ones((hit.shape[0], 1, hit.shape[2]), dtype=bool)
    first = np.concatenate([hit, none], axis=1).argmax(axis=1)
    return [[LevelCharacter(*p, tags[t]) for p, t in zip(prow, trow)]
            for prow, trow in zip(pops.tolist(), first.tolist())]


def classify_level(vec, tag_refs=None):
    """Branch and spin populations of a unit-norm 6-vector; a symmetry
    tag is attached when the overlap with a zero-strain symmetry state
    exceeds 0.9."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (6,):
        raise ValueError("expected a 6-component eigenvector")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"eigenvector norm {norm:.6f} is not 1")
    return _characters(v.reshape(1, 6, 1), tag_refs)[0][0]


def _greedy_match(ov):
    """Assign current eigenvectors to tracks by descending overlap^2,
    given ov[track, column].

    Returns (permutation, best overlap^2 per track): perm[track] = column
    index continuing that track.
    """
    n = ov.shape[0]
    perm, taken, quality = [-1] * n, [False] * n, [0.0] * n
    flat = ov.ravel().tolist()
    for ij in np.argsort(ov, axis=None)[::-1].tolist():
        i, j = divmod(ij, n)
        if perm[i] < 0 and not taken[j]:
            perm[i] = j
            taken[j] = True
            quality[i] = flat[ij]
    return perm, quality


def sweep(params, grid):
    """Diagonalize along an ascending strain grid and stitch the six
    levels into continuous tracks by maximum eigenvector overlap."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)) \
            or np.any(np.diff(grid) <= 0):
        raise SweepError("grid must be finite and ascending with at least "
                         "2 points")

    values, vectors = np.linalg.eigh(
        strain_hamiltonians(strain_family(params), grid))
    # overlap^2 of each point's eigenvectors with the previous point's
    steps = np.abs(vectors[:-1].conj().transpose(0, 2, 1)
                   @ vectors[1:]) ** 2
    perms = np.empty((grid.size, 6), dtype=int)
    perms[0] = np.arange(6)
    ambiguous = []
    for idx in range(1, grid.size):
        perms[idx], quality = _greedy_match(steps[idx - 1][perms[idx - 1]])
        if min(quality) < 0.5:
            ambiguous.append(idx)
    energies = np.take_along_axis(values, perms, axis=1)
    tracked = np.take_along_axis(vectors, perms[:, None, :], axis=2)
    return SweepResult(grid=grid, energies=energies,
                       characters=_characters(tracked), params=params,
                       ambiguous_points=ambiguous)


def _golden_min(f, a, b, tol=1e-9):
    """Golden-section minimum of f on [a, b]."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def detect_crossings(sr, gap_threshold):
    """Locate (avoided) crossings: local minima of pairwise track gaps
    below `gap_threshold`, refined by golden-section search on the true
    sorted-eigenvalue gap. `avoided` requires an exchange of dominant
    spin character between the two tracks across the minimum."""
    if gap_threshold <= 0:
        raise ValueError("gap_threshold must be positive")
    n = sr.grid.size
    family = strain_family(sr.params)
    events = []
    for a in range(6):
        for b in range(a + 1, 6):
            gap = np.abs(sr.energies[:, a] - sr.energies[:, b])
            mid = gap[1:-1]
            minima = (mid <= gap[:-2]) & (mid < gap[2:]) \
                & (mid < gap_threshold)
            for i in (np.flatnonzero(minima) + 1).tolist():
                # rank of the lower of the two levels in the sorted spectrum
                lower = min(sr.energies[i, a], sr.energies[i, b])
                rank = min(int(np.argmin(np.abs(np.sort(sr.energies[i])
                                                - lower))), 4)

                def sorted_gap(x):
                    ev = np.linalg.eigvalsh(
                        strain_hamiltonians(family, [x]))[0]
                    return ev[rank + 1] - ev[rank]

                x, g = _golden_min(sorted_gap, sr.grid[max(i - 1, 0)],
                                   sr.grid[min(i + 1, n - 1)])
                before = sr.characters[max(i - 3, 0)]
                after = sr.characters[min(i + 3, n - 1)]
                exchanged = (
                    before[a].dominant_spin == after[b].dominant_spin
                    and before[b].dominant_spin == after[a].dominant_spin
                    and before[a].dominant_spin != before[b].dominant_spin)
                events.append(CrossingEvent(
                    strain_at_min_gap=float(x), track_a=a, track_b=b,
                    min_gap=float(g), avoided=exchanged))
    events.sort(key=lambda e: e.strain_at_min_gap)
    return events


def _sz_weights(vectors):
    """ms=0 (Sz) population of every eigenvector column (n, 6)."""
    return np.abs(vectors[:, 2]) ** 2 + np.abs(vectors[:, 5]) ** 2


def averaged_splitting(params, dperp):
    """Mean of the four ms=+-1-character eigenvalues minus the mean of
    the two ms=0-character ones (the orbit-averaged ESR splitting). A
    scalar strain gives a float; a grid of strains gives an array, from
    one stacked eigensolve."""
    deltas = _finite_strains(dperp)
    values, vectors = np.linalg.eigh(
        strain_hamiltonians(strain_family(params), deltas))
    ms0 = _sz_weights(vectors) > 0.5
    mixed = np.flatnonzero(ms0.sum(axis=1) != 2)
    if mixed.size:
        # near an avoided crossing characters mix; fall back on the
        # sorted-position partition of the decoupled lambda_perp = 0
        # reference at the same strains
        ref = strain_family(replace(params, lambda_perp=0.0))
        _, ref_vectors = np.linalg.eigh(
            strain_hamiltonians(ref, deltas[mixed]))
        top2 = np.argsort(_sz_weights(ref_vectors), axis=1)[:, -2:]
        ms0[mixed] = False
        ms0[mixed[:, None], top2] = True
    n = deltas.size
    split = (values[~ms0].reshape(n, 4).mean(axis=1)
             - values[ms0].reshape(n, 2).mean(axis=1))
    return float(split[0]) if np.ndim(dperp) == 0 else split


def _upper_branch_sz_gaps(family, deltas):
    """Gap between the upper-branch ms=0 level and the nearer upper-branch
    ms=+-1 level at every strain; NaN where the upper branch is not
    resolved into three levels with one ms=0 among them."""
    values, vectors = np.linalg.eigh(strain_hamiltonians(family, deltas))
    w = np.abs(vectors) ** 2
    upper = w[:, 0] + w[:, 1] + w[:, 2] > 0.5
    sz = upper & (_sz_weights(vectors) > 0.5)
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

    def unresolved(d):
        return SweepError(f"upper branch not resolved at delta_perp={d}")

    lo = max(window[0], 0.3)  # branches unresolved at tiny strain
    xs = _finite_strains(np.linspace(lo, window[1], 400))
    fs = _upper_branch_sz_gaps(family, xs) - target
    change = np.flatnonzero((fs[:-1] == 0.0) | (fs[:-1] * fs[1:] < 0))
    # the scan ends at the first sign change, and fails at an unresolved
    # point on the way there
    end = change[0] + 1 if change.size else xs.size - 1
    bad = np.flatnonzero(np.isnan(fs[:end + 1]))
    if bad.size:
        raise unresolved(xs[bad[0]])
    if not change.size:
        raise SweepError(f"no strain in {window} satisfies the "
                         f"d_gs={target} GHz condition")
    a, b, fa = xs[end - 1], xs[end], fs[end - 1]
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = _upper_branch_sz_gaps(family, np.array([m]))[0] - target
        if np.isnan(fm):
            raise unresolved(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
