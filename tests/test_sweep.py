"""Tests for strain sweeps, crossing detection and averaged splitting."""

import importlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsim.model import LEVEL_WEIGHTS, PARAMETER_TERMS, STRAIN_X, \
    SX2_MINUS_SY2, FineStructureParams, StrainVector, \
    build_excited_hamiltonian, dominant_spins, greedy_match, \
    level_weights, symmetry_states, zero_strain_levels
from nvsim.linalg import eigensolve, eigensolve_counts
from nvsim.sweep import (GAP_FLOOR, LINEAR_PARAMS, SweepError,
                         averaged_splitting, detect_crossings,
                         nv2_condition_strain, parameter_operators,
                         strain_family, strain_hamiltonians, strain_slopes,
                         sweep)

SEEDED = settings(derandomize=True, database=None, max_examples=100,
                  deadline=None)

DEFAULTS = FineStructureParams()
DECOUPLED = DEFAULTS._replace(lambda_perp=0.0)
# tracks 1 and 2 reach a gap minimum at 1.35 GHz on a 0.05 GHz grid while
# holding the sorted ranks 0 and 2: a third level lies between them
NON_ADJACENT = FineStructureParams(
    lambda_z=2.9377782841203905, lambda_perp=0.1686099135192661,
    d_es=1.8763648523917893, delta_cap=0.22743182308801177)


def eigensolve_calls(f, *args):
    """f(*args) and the `eigensolve` calls it made."""
    before = eigensolve_counts["calls"]
    out = f(*args)
    return out, eigensolve_counts["calls"] - before


def coarse_sweep(params, lo=0.01, hi=30.0, n=601):
    return sweep(params, np.linspace(lo, hi, n))


def rank_gap(params, x, lo, hi):
    """Gap between the sorted levels of ranks lo and hi at strain x."""
    ev = np.linalg.eigvalsh(build_excited_hamiltonian(
        params, StrainVector(x, 0.0)))
    return ev[hi] - ev[lo]


def candidate_ranks(sr, event, threshold):
    """Sorted ranks (lo, hi) that the event's two tracks hold at each grid
    minimum of their gap whose bracket contains the event's strain."""
    a, b = event.track_a, event.track_b
    gap = np.abs(sr.energies[:, a] - sr.energies[:, b])
    out = []
    for i in range(1, gap.size - 1):
        if (gap[i] <= gap[i - 1] and gap[i] < gap[i + 1]
                and gap[i] < threshold
                and sr.grid[i - 1] <= event.strain_at_min_gap
                <= sr.grid[i + 1]):
            rank = np.argsort(np.argsort(sr.energies[i], kind="stable"))
            out.append(tuple(sorted((rank[a], rank[b]))))
    return out


class TestClassify:
    def test_populations_sum_to_one(self):
        _, vectors = eigensolve(build_excited_hamiltonian(
            DEFAULTS, StrainVector(4.0, 0.0)))
        p_x, p_sx, p_sy, p_sz = level_weights(vectors)
        for k in range(6):
            assert p_sx[k] + p_sy[k] + p_sz[k] == pytest.approx(1.0)
            assert 0.0 <= p_x[k] <= 1.0

    def test_zero_strain_symmetry_tags(self):
        tags = {label for _, label in zero_strain_levels(DECOUPLED)}
        assert tags == {"E1", "E2", "E'x", "E'y", "A1", "A2"}


class TestRealGauge:
    """The strain family is stored as D^dagger H D, D = diag(1, i, 1, i,
    1, i), which is real symmetric."""

    @staticmethod
    def random_params(rng):
        return FineStructureParams(
            lambda_z=rng.uniform(1.0, 15.0), lambda_perp=rng.uniform(0.0, 1.0),
            d_es=rng.uniform(0.1, 5.0), delta_cap=rng.uniform(0.1, 5.0),
            e_es_coeff=rng.uniform(-0.5, 0.5),
            zpl_offset=rng.uniform(-3.0, 3.0))

    def test_family_is_real(self):
        rng = np.random.default_rng(60)
        for params in [DEFAULTS] + [self.random_params(rng)
                                    for _ in range(5)]:
            for m in strain_family(params):
                assert m.dtype == np.float64 and m.flags.c_contiguous
                assert np.array_equal(m, m.T)

    def test_spectrum_equals_the_complex_hamiltonians(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            params = self.random_params(rng)
            deltas = rng.uniform(-30.0, 30.0, 8)
            gauged = np.linalg.eigvalsh(
                strain_hamiltonians(strain_family(params), deltas))
            direct = [np.linalg.eigvalsh(build_excited_hamiltonian(
                params, StrainVector(d, 0.0))) for d in deltas]
            assert np.max(np.abs(gauged - direct)) <= 1e-12

    def test_classify_level_in_either_basis(self):
        # zero_strain_levels labels eigenvectors of
        # build_excited_hamiltonian, the strain core diagonalises the
        # gauged family: each label's energy is that of its symmetry
        # state in either basis, and the same levels get the same weights
        gauge = np.array([1, 1j, 1, 1j, 1, 1j])
        h = build_excited_hamiltonian(DECOUPLED, StrainVector())
        h0 = strain_family(DECOUPLED)[0]
        labelled = {label: e for e, label in zero_strain_levels(DECOUPLED)}
        for name, state in symmetry_states().items():
            energy = np.vdot(state, h @ state).real
            assert np.max(np.abs(h @ state - energy * state)) <= 1e-12
            assert labelled[name] == pytest.approx(energy, abs=1e-12)
            gauged_state = gauge.conj() * state
            assert np.max(np.abs(h0 @ gauged_state
                                 - labelled[name] * gauged_state)) <= 1e-12
        rng = np.random.default_rng(62)
        for _ in range(20):
            params = self.random_params(rng)
            delta = rng.uniform(-10.0, 10.0)
            vectors = np.linalg.eigh(build_excited_hamiltonian(
                params, StrainVector(delta, 0.0)))[1]
            a = level_weights(vectors)
            b = level_weights(gauge.conj()[:, None] * vectors)
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_parameter_operators_rebuild_the_family(self):
        # the zero-strain family member is the sum of the linear terms,
        # plus the identity shift of zpl_offset
        rng = np.random.default_rng(63)
        ops = parameter_operators(LINEAR_PARAMS)
        assert ops.dtype == np.float64 and ops.shape == (4, 6, 6)
        for _ in range(10):
            params = self.random_params(rng)
            linear = np.tensordot(
                [getattr(params, n) for n in LINEAR_PARAMS], ops, axes=1)
            shift = params.zpl_offset * np.eye(6)
            assert np.max(np.abs(strain_family(params)[0] - linear - shift)) \
                <= 1e-12
        with pytest.raises(ValueError, match="linear only"):
            parameter_operators(("e_es_coeff",))

    def test_family_reads_the_model_operators(self, monkeypatch):
        # the strain slopes are the gauged STRAIN_X +- e_es_coeff *
        # SX2_MINUS_SY2 and the parameter derivatives the gauged term
        # table, exactly; the family builds one Hamiltonian
        gauge = np.array([1, 1j, 1, 1j, 1, 1j])

        def gauged(m):
            return (gauge.conj()[:, None] * m * gauge).real

        assert LINEAR_PARAMS == tuple(PARAMETER_TERMS)
        assert np.array_equal(parameter_operators(LINEAR_PARAMS),
                              [gauged(op) for op in PARAMETER_TERMS.values()])
        builds = []
        monkeypatch.setattr(importlib.import_module("nvsim.sweep"),
                            "build_excited_hamiltonian",
                            lambda *a: builds.append(a)
                            or build_excited_hamiltonian(*a))
        rng = np.random.default_rng(64)
        for params in [DEFAULTS] + [self.random_params(rng)
                                    for _ in range(20)]:
            _, hd, hd_neg = strain_family(params)
            e_es = params.e_es_coeff * SX2_MINUS_SY2
            assert np.array_equal(hd, gauged(STRAIN_X + e_es))
            assert np.array_equal(hd_neg, gauged(STRAIN_X - e_es))
        assert len(builds) == 21


class TestSweep:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep(DEFAULTS, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2e6])
    def test_rejects_non_finite_grid(self, bad):
        # 2e6: beyond the strain limit, model.MAX_STRAIN_GHZ
        with pytest.raises(ValueError, match="finite"):
            sweep(DEFAULTS, np.array([0.0, 1.0, bad]))

    def test_batched_energies_match_direct_diagonalisation(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 10.0),
                lambda_perp=rng.uniform(0.01, 1.0),
                d_es=rng.uniform(0.1, 3.0),
                delta_cap=rng.uniform(0.1, 3.0),
                e_es_coeff=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.2))
            grid = np.unique(rng.uniform(-40.0, 40.0,
                                         rng.integers(2, 31)))
            sr = sweep(params, grid)
            direct = np.array([np.linalg.eigvalsh(build_excited_hamiltonian(
                params, StrainVector(d, 0.0))) for d in grid])
            assert np.max(np.abs(np.sort(sr.energies, axis=1) - direct)) \
                <= 1e-10

    def test_tracks_are_continuous(self):
        sr = coarse_sweep(DEFAULTS)
        steps = np.abs(np.diff(sr.energies, axis=0))
        # energy slope is bounded by the strain operator norm (1 GHz/GHz)
        assert np.max(steps) < 2.0 * (sr.grid[1] - sr.grid[0])

    def test_tracking_unambiguous_on_fine_grid(self):
        sr = sweep(DEFAULTS, np.linspace(0.01, 20.0, 801))
        assert sr.ambiguous_points == []


def scalar_greedy_match(ov):
    """Assign current eigenvectors to tracks by descending overlap^2,
    given ov[track, column], one step at a time.

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


def greedy_tracks(params, grid):
    """sweep()'s tracking with scalar greedy matching at every step, in
    track order: tracked energies, tracked vectors and ambiguous points."""
    values, vectors = np.linalg.eigh(
        strain_hamiltonians(strain_family(params), grid))
    steps = (vectors[:-1].transpose(0, 2, 1) @ vectors[1:]) ** 2
    perms = [np.arange(6)]
    ambiguous = []
    for idx in range(1, grid.size):
        perm, quality = scalar_greedy_match(steps[idx - 1][perms[-1]])
        perms.append(np.array(perm))
        if min(quality) < 0.5:
            ambiguous.append(idx)
    perms = np.array(perms)
    return (np.take_along_axis(values, perms, axis=1),
            np.take_along_axis(vectors, perms[:, None, :], axis=2),
            ambiguous)


def random_tracking_model(rng):
    """A model and a coarse grid through or from zero strain: lambda_perp
    = 0 or Delta = 0 (where exact-zero overlaps tie) or e_es_coeff > 0 in
    turn, on a uniform or a non-uniform grid."""
    kind = rng.integers(4)
    params = FineStructureParams(
        lambda_z=rng.uniform(1.0, 10.0),
        lambda_perp=0.0 if kind == 1 else rng.uniform(0.0, 1.0),
        d_es=rng.uniform(0.3, 3.0),
        delta_cap=0.0 if kind == 2 else rng.uniform(0.1, 3.0),
        e_es_coeff=rng.uniform(0.0, 0.2) if kind == 3 else 0.0)
    lo = rng.choice([0.0, rng.uniform(-20.0, 0.0)])
    hi = rng.uniform(2.0, 30.0)
    n = int(rng.integers(3, 16))
    grid = (np.linspace(lo, hi, n) if rng.random() < 0.5
            else np.unique(np.r_[lo, rng.uniform(lo, hi, n - 1)]))
    return params, grid


class TestTracking:
    """sweep() matches every step at once; the tracks are those of scalar
    greedy matching at every step."""

    @pytest.mark.parametrize("grid, ambiguous", [
        (np.linspace(0.0, 20.0, 801), []),       # the CLI's default grid
        (np.linspace(0.01, 30.0, 1201), []),     # through both crossings
        (np.linspace(0.0, 13.0, 10), [6]),       # coarse
        (np.linspace(0.0, 20.5, 30), [11]),      # coarse
    ])
    def test_equals_greedy_matching(self, grid, ambiguous):
        sr = sweep(DEFAULTS, grid)
        energies, vectors, points = greedy_tracks(DEFAULTS, grid)
        assert np.array_equal(sr.energies, energies)
        assert np.array_equal(sr.vectors, vectors)
        assert sr.ambiguous_points == points == ambiguous

    def test_equals_greedy_matching_on_random_models(self):
        rng = np.random.default_rng(3)
        models = [random_tracking_model(rng) for _ in range(600)]
        models.append((DEFAULTS._replace(delta_cap=0.0),
                       np.linspace(-20.0, 20.0, 2001)))
        ambiguous = 0
        for params, grid in models:
            sr = sweep(params, grid)
            energies, vectors, points = greedy_tracks(params, grid)
            assert np.array_equal(sr.energies, energies)
            assert np.array_equal(sr.vectors, vectors)
            assert sr.ambiguous_points == points
            ambiguous += len(points)
        # greedy's hard steps ran
        assert ambiguous >= 50

    def test_matcher_breaks_ties_in_row_major_order(self):
        ov = np.zeros((4, 6, 6))
        # step 0: all tied, so the diagonal, in row order
        # step 1: rows 0 and 1 tie on column 1, and row 2 on columns 3
        # and 4; entry (0, 1) comes first, then (2, 3)
        ov[1, 0, 1] = ov[1, 1, 1] = 0.6
        ov[1, 2, 3] = ov[1, 2, 4] = 0.6
        ov[1, 1, 0] = 0.3
        # step 2: a unit entry, then a 2 x 2 block of tied halves, then
        # zeros taken in row-major order
        ov[2, 5, 0] = 1.0
        ov[2, 0:2, 4:6] = 0.5
        # step 3: row 3 ties on columns 0 and 3, but entry (1, 0) comes
        # first and takes column 0
        ov[3] = np.eye(6)[[1, 0, 2, 3, 5, 4]]
        ov[3, 3, 0] = 1.0
        before = ov.copy()
        cols, quality = greedy_match(ov)
        assert np.array_equal(ov, before)
        assert cols.tolist() == [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 4, 5],
            [4, 5, 1, 2, 3, 0],
            [1, 0, 2, 3, 5, 4]]
        assert quality.tolist() == [
            [0.0] * 6,
            [0.6, 0.3, 0.6, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0, 1.0],
            [1.0] * 6]
        # each step is matched on its own
        for s in range(4):
            one = greedy_match(ov[s:s + 1])
            assert np.array_equal(one[0][0], cols[s])
            assert np.array_equal(one[1][0], quality[s])


class TestCharacters:
    def test_level_weights_are_the_character_fields(self):
        # the table's sums, written out from the basis order Ex*Sx, Ex*Sy,
        # Ex*Sz, Ey*Sx, Ey*Sy, Ey*Sz, against level_weights on a stack
        # and per column, bit for bit; the dominant spin is the first
        # largest of the spin sums
        rng = np.random.default_rng(31)
        for trial in range(20):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 15.0),
                lambda_perp=0.0 if trial % 4 == 0 else rng.uniform(0.0, 1.0),
                d_es=rng.uniform(0.1, 5.0), delta_cap=rng.uniform(0.1, 5.0),
                e_es_coeff=rng.uniform(-0.5, 0.5))
            strain = StrainVector(*rng.choice([0.0, rng.uniform(-30, 30)], 2))
            _, vectors = eigensolve(build_excited_hamiltonian(
                params, strain))
            w = np.abs(vectors) ** 2
            oracle = [w[0] + w[1] + w[2], w[0] + w[3], w[1] + w[4],
                      w[2] + w[5]]
            weights = level_weights(np.stack([vectors, vectors[:, ::-1]]))
            assert weights.shape == (len(LEVEL_WEIGHTS), 2, 6)
            assert np.array_equal(weights[:, 0], oracle)
            assert np.array_equal(weights[:, 1], weights[:, 0, ::-1])
            for k in range(6):
                column = level_weights(vectors[:, k:k + 1])[:, 0]
                assert column.tolist() == [o[k] for o in oracle]
                spins = [o[k] for o in oracle[1:]]
                assert dominant_spins(column) == 1 + spins.index(max(spins))

    def test_dominant_spin_ties_go_to_sx_then_sy(self):
        # columns: Sx = Sy, Sy = Sz, all three equal, Sz alone largest
        weights = np.array([[0.0, 0.0, 0.0, 0.5],
                            [0.4, 0.2, 0.3, 0.1],
                            [0.4, 0.4, 0.3, 0.1],
                            [0.2, 0.4, 0.3, 0.8]])
        assert dominant_spins(weights).tolist() == [1, 2, 1, 3]
        names = [list(LEVEL_WEIGHTS)[row] for row in dominant_spins(weights)]
        assert names == ["p_sx", "p_sy", "p_sx", "p_sz"]

    def test_crossing_detection_builds_no_characters(self, monkeypatch):
        # the verdict reads level weights at the two strains of each
        # event, in one stack, and never those of the sweep's vectors
        sr = coarse_sweep(DEFAULTS, n=1201)
        shapes = []
        monkeypatch.setattr(importlib.import_module("nvsim.sweep"),
                            "level_weights",
                            lambda v: shapes.append(v.shape)
                            or level_weights(v))
        events = detect_crossings(sr, 0.5)
        assert shapes == [(2, len(events), 6, 6)]
        assert sum(e.avoided for e in events) == 2


class TestCrossings:
    def test_two_avoided_crossings_with_coupling(self):
        sr = coarse_sweep(DEFAULTS, n=1201)
        events = [e for e in detect_crossings(sr, 0.5) if e.avoided]
        assert len(events) == 2
        strains = sorted(e.strain_at_min_gap for e in events)
        assert strains[0] == pytest.approx(7.31, abs=0.05)
        assert strains[1] == pytest.approx(15.50, abs=0.05)
        assert all(e.min_gap > 0.01 for e in events)

    def test_avoided_crossings_do_not_depend_on_grid_density(self):
        # at 3201 points over 0-20 GHz, three grid steps lie inside both
        # anticrossings; their verdict reads their own widths instead
        for n in (801, 3201):
            sr = sweep(DEFAULTS, np.linspace(0.0, 20.0, n))
            strains = [e.strain_at_min_gap
                       for e in detect_crossings(sr, 0.5) if e.avoided]
            assert strains == pytest.approx([7.3136, 15.5015], abs=1e-3)

    def test_gap_below_the_floor_is_not_avoided(self, monkeypatch):
        # at 12801 points a minimum next to the zero-strain E pair appears
        # at 0.0084 GHz; its ranks exchange dominant spin, but its gap,
        # 2.2e-7 GHz, lies below GAP_FLOOR, and that decides it
        sr = sweep(DEFAULTS, np.linspace(0.0, 20.0, 12801))
        events = detect_crossings(sr, 0.5)
        first = events[0]
        assert first.strain_at_min_gap == pytest.approx(0.0084, abs=1e-4)
        assert first.min_gap == pytest.approx(2.2e-7, rel=0.05)
        assert [e.avoided for e in events] == [False, True, True]
        monkeypatch.setattr(importlib.import_module("nvsim.sweep"),
                            "GAP_FLOOR", 1e-9)
        assert detect_crossings(sr, 0.5)[0].avoided

    def test_coarse_grid_lands_on_the_gap_minimum(self):
        # the tracks' (0, 1) grid minimum at 0.2 GHz brackets [0.1, 0.3]
        # GHz, which also holds a maximum of their gap near 0.14 GHz; the
        # half over which the gap's slope turns from negative to positive
        # is bisected, so 11 points find the anticrossing of 101 points
        params = FineStructureParams(lambda_z=4.587, lambda_perp=0.917,
                                     d_es=2.003, delta_cap=0.615,
                                     e_es_coeff=-0.064)
        events = [[e for e in detect_crossings(
                       sweep(params, np.linspace(0.0, 1.0, n)), 0.5)
                   if (e.track_a, e.track_b) == (0, 1)] for n in (11, 101)]
        [coarse], [fine] = events
        assert coarse.strain_at_min_gap == pytest.approx(
            fine.strain_at_min_gap, abs=1e-6)
        assert coarse.min_gap == pytest.approx(fine.min_gap, rel=1e-6)
        assert coarse.avoided and fine.avoided
        assert fine.strain_at_min_gap == pytest.approx(0.2574, abs=1e-4)

    def test_gap_maximum_is_not_avoided(self):
        # the ranks' (0, 1) gap has minima at zero strain (a kink) and at
        # 0.108 GHz and a maximum between them; on a 0.1 GHz grid the
        # minimum at 0 brackets [-0.1, 0.1] GHz, over neither half of which
        # the gap's slope turns from negative to positive, so the whole
        # bracket is bisected and ends at the maximum: c < 0 with a gap
        # above GAP_FLOOR, not avoided
        params = FineStructureParams(lambda_z=6.842, lambda_perp=0.6702,
                                     d_es=2.360, delta_cap=0.2685,
                                     e_es_coeff=-0.05336)
        [event] = [e for e in detect_crossings(
                       sweep(params, np.linspace(-1.0, 1.0, 21)), 0.5)
                   if (e.track_a, e.track_b) == (0, 1)]
        x = event.strain_at_min_gap
        curv = strain_slopes(strain_family(params), [x],
                             curvatures=True)[2][0]
        assert x == pytest.approx(0.0548, abs=1e-3)
        assert curv[1] - curv[0] < 0
        assert event.min_gap > 1e-5
        assert not event.avoided

    def test_avoided_is_an_exchange_of_dominant_spins(self):
        # oracle: every grid minimum of a track pair's gap below the
        # threshold, listed per pair and along the grid, is one event whose
        # strain x lies in the minimum's bracket; the width rule written
        # out from the sorted ranks (lo, hi) the tracks hold at the minimum,
        # g their gap at x, c from the curvatures of `strain_slopes`, and
        # the dominant spins of both ranks at x -+ 3 sqrt(g / c)
        # from the complex Hamiltonian; no exchange is read where
        # g <= 1e-6 GHz or c <= 0. The grid reaches below zero strain,
        # where the seed draws minima whose ranks hold one dominant spin
        # on both sides, which is no exchange.
        rng = np.random.default_rng(42)
        seen = set()
        for trial in range(30):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 10.0),
                lambda_perp=0.0 if trial % 3 == 0 else rng.uniform(0.0, 1.0),
                d_es=rng.uniform(0.3, 3.0), delta_cap=rng.uniform(0.1, 3.0),
                e_es_coeff=rng.uniform(-0.2, 0.2))
            sr = coarse_sweep(params, lo=-1.0, n=311)
            family = strain_family(params)
            minima = []
            for a, b in combinations(range(6), 2):
                gap = np.abs(sr.energies[:, a] - sr.energies[:, b])
                minima += [(a, b, i) for i in range(1, sr.grid.size - 1)
                           if gap[i] <= gap[i - 1] and gap[i] < gap[i + 1]
                           and gap[i] < 0.5]
            events = sorted(detect_crossings(sr, 0.5), key=lambda e: (
                e.track_a, e.track_b, e.strain_at_min_gap))
            assert [(e.track_a, e.track_b) for e in events] == [
                (a, b) for a, b, _ in minima]
            for e, (a, b, i) in zip(events, minima):
                x, g = e.strain_at_min_gap, e.min_gap
                assert sr.grid[i - 1] <= x <= sr.grid[i + 1]
                rank = np.argsort(np.argsort(sr.energies[i], kind="stable"))
                lo, hi = sorted((rank[a], rank[b]))
                assert g == pytest.approx(rank_gap(params, x, lo, hi),
                                          abs=1e-10)
                curv = strain_slopes(family, [x], curvatures=True)[2][0]
                c = curv[hi] - curv[lo]
                if g <= 1e-6 or c <= 0:
                    expected, why = False, "closed" if g <= 1e-6 else "c"
                else:
                    spins = []
                    for side in (-1.0, 1.0):
                        _, vectors = eigensolve(build_excited_hamiltonian(
                            params, StrainVector(
                                x + side * 3.0 * np.sqrt(g / c), 0.0)))
                        spins.append(dominant_spins(
                            level_weights(vectors))[[lo, hi]].tolist())
                    (lo0, hi0), (lo1, hi1) = spins
                    expected = lo0 == hi1 and hi0 == lo1 and lo0 != hi0
                    why = "one spin" if lo0 == hi0 == lo1 == hi1 else "read"
                assert type(e.avoided) is bool
                assert e.avoided == expected, (trial, e)
                seen.add((why, expected))
        assert seen == {("closed", False), ("c", False), ("read", False),
                        ("read", True), ("one spin", False)}

    def test_verdicts_agree_across_grid_densities(self):
        # an event found from every grid gets one verdict from all of them
        rng = np.random.default_rng(8)
        agreed = set()
        for _ in range(15):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 10.0),
                lambda_perp=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
                d_es=rng.uniform(0.3, 3.0), delta_cap=rng.uniform(0.1, 3.0),
                e_es_coeff=rng.uniform(-0.2, 0.2))
            found = [detect_crossings(sweep(params, np.linspace(
                0.0, 30.0, n)), 0.5) for n in (401, 1201, 4801, 19201)]
            for e in found[0]:
                same = [[f for f in events if abs(
                    f.strain_at_min_gap - e.strain_at_min_gap) < 1e-6]
                    for events in found[1:]]
                if all(same):
                    verdicts = {e.avoided} | {f.avoided for fs in same
                                              for f in fs}
                    assert len(verdicts) == 1, (params, e)
                    agreed |= verdicts
        assert agreed == {True, False}

    def test_no_candidate_minima(self):
        sr = coarse_sweep(DEFAULTS)
        assert detect_crossings(sr, 0.5)
        assert detect_crossings(sr, 1e-9) == []

    def test_crossings_close_when_decoupled(self):
        sr = coarse_sweep(DECOUPLED, n=1201)
        events = detect_crossings(sr, 0.5)
        assert len(events) >= 2
        assert all(e.min_gap < 1e-6 for e in events)
        assert not any(e.avoided for e in events)

    def test_non_adjacent_ranks_refine_their_own_gap(self):
        grid = np.linspace(0.0, 30.0, 601)
        sr = sweep(NON_ADJACENT, grid)
        [event] = [e for e in detect_crossings(sr, 0.5)
                   if (e.track_a, e.track_b) == (1, 2)]
        assert candidate_ranks(sr, event, 0.5) == [(0, 2)]
        x = event.strain_at_min_gap
        assert 1.3 <= x <= 1.4
        # the gap of the two tracks' own levels, not that of ranks 0 and 1
        # (0.0093 at the bracket edge 1.3 GHz)
        assert event.min_gap == pytest.approx(
            rank_gap(NON_ADJACENT, x, 0, 2), abs=1e-10)
        assert event.min_gap <= min(rank_gap(NON_ADJACENT, 1.3, 0, 2),
                                    rank_gap(NON_ADJACENT, 1.4, 0, 2))
        assert event.min_gap > 0.05

    def test_min_gap_is_the_gap_of_the_refined_ranks(self):
        rng = np.random.default_rng(21)
        grid = np.linspace(-20.0, 30.0, 501)
        events = 0
        for _ in range(30):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 10.0),
                lambda_perp=rng.choice([0.0, rng.uniform(0.01, 1.0)]),
                d_es=rng.uniform(0.1, 3.0),
                delta_cap=rng.uniform(0.1, 3.0),
                e_es_coeff=rng.uniform(-0.2, 0.2))
            sr = sweep(params, grid)
            for e in detect_crossings(sr, 0.5):
                ranks = candidate_ranks(sr, e, 0.5)
                assert ranks, "strain outside every candidate bracket"
                err = min(abs(e.min_gap - rank_gap(
                    params, e.strain_at_min_gap, lo, hi))
                    for lo, hi in ranks)
                assert err <= 1e-10
                events += 1
        assert events >= 100

    def test_each_refined_crossing_is_solved_once(self):
        # min_gap comes from the solve that gives the curvatures: bit for
        # bit the rank gap of strain_slopes at the event's strain. The
        # bracket read, the bisection steps, that solve and the spin read
        # are 28 stacked calls on the default sweep
        sr = sweep(DEFAULTS, np.linspace(0.0, 20.0, 801))
        events, calls = eigensolve_calls(detect_crossings, sr, 0.5)
        assert calls == 28
        assert len(events) == 2
        family = strain_family(DEFAULTS)
        for e in events:
            [(lo, hi)] = candidate_ranks(sr, e, 0.5)
            values = strain_slopes(family, [e.strain_at_min_gap],
                                   curvatures=True)[0][0]
            assert e.min_gap == values[hi] - values[lo]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND, detect_crossings rows at no gap minimum: a "
        "track changes rank between grid points, so the ranks read at "
        "the grid minimum have no gap minimum in its bracket and the "
        "bisection ends on a grid point"))
    def test_rows_above_the_floor_are_gap_minima(self):
        # draw 44 of the FOUND line's 300 draws, rounded: tracks 0-1 at
        # -1.1 GHz and tracks 2-3 at 1.2 GHz end exactly on grid points,
        # and 1e-4 GHz to one side their ranks' gap is still falling
        params = FineStructureParams(
            lambda_z=3.0669, lambda_perp=0.131822, d_es=2.12968,
            delta_cap=0.453314, e_es_coeff=0.00253197)
        sr = sweep(params, np.linspace(-20.0, 30.0, 501))
        off_minimum = []
        for e in detect_crossings(sr, 0.5):
            if e.min_gap <= GAP_FLOOR:
                continue
            x = e.strain_at_min_gap
            if not any(e.min_gap <= min(rank_gap(params, x - 1e-4, lo, hi),
                                        rank_gap(params, x + 1e-4, lo, hi))
                       for lo, hi in candidate_ranks(sr, e, 0.5)):
                off_minimum.append(e)
        assert off_minimum == []

    def test_upper_branch_has_no_crossing(self):
        sr = coarse_sweep(DEFAULTS, n=1201)
        p_x = level_weights(sr.vectors[-1])[0]
        upper = [k for k in range(6) if p_x[k] > 0.5]
        assert len(upper) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                gap = np.abs(sr.energies[:, upper[i]]
                             - sr.energies[:, upper[j]])
                assert np.min(gap) > 0.5


class TestAveragedSplitting:
    def test_exact_trace_identity_when_decoupled(self):
        for d in (0.0, 1.0, 7.31, 20.0, 50.0):
            assert averaged_splitting(DECOUPLED, d) == \
                pytest.approx(1.42, abs=1e-9)

    @staticmethod
    def per_point_splitting(params, d):
        """One Hamiltonian per strain: the ms=0 pair is the two levels of
        largest ms=0 weight. Also whether the point is mixed, that is,
        does not have exactly two levels of ms=0 weight above 1/2."""
        values, vectors = np.linalg.eigh(build_excited_hamiltonian(
            params, StrainVector(d, 0.0)))
        psz = np.abs(vectors[2]) ** 2 + np.abs(vectors[5]) ** 2
        ms0 = np.argsort(psz)[-2:]
        ms1 = np.setdiff1d(np.arange(6), ms0)
        return (values[ms1].mean() - values[ms0].mean(),
                np.count_nonzero(psz > 0.5) != 2)

    @pytest.mark.parametrize("params", [DEFAULTS, DECOUPLED,
                                        DEFAULTS._replace(e_es_coeff=0.05)])
    def test_grid_form_equals_per_point_reference(self, params):
        # plus points at which the default couplings mix the ms=0 characters
        grid = np.union1d(np.linspace(-20.0, 30.0, 501),
                          [-15.536, -7.319, 7.312, 15.52])
        batched, calls = eigensolve_calls(averaged_splitting, params, grid)
        ref = [self.per_point_splitting(params, d) for d in grid]
        assert batched.shape == grid.shape
        assert calls == 1
        assert np.max(np.abs(batched - [r[0] for r in ref])) <= 1e-10
        if params is DEFAULTS:
            assert sum(r[1] for r in ref) >= 4   # mixed points are covered

    @SEEDED
    @given(lambda_z=st.floats(0.5, 15.0), d_es=st.floats(0.1, 5.0),
           delta_cap=st.floats(0.0, 5.0), e_es_coeff=st.floats(-0.5, 0.5),
           zpl_offset=st.floats(-3.0, 3.0),
           strains=st.lists(st.floats(-50.0, 50.0), min_size=1,
                            max_size=20))
    def test_decoupled_splitting_is_d_es(self, lambda_z, d_es, delta_cap,
                                         e_es_coeff, zpl_offset, strains):
        # tr H = 6 zpl_offset and the ms=0 pair's diagonal sums to
        # 2 zpl_offset - 4/3 D_es; at lambda_perp = 0 that pair is an
        # eigenspace, so the split is D_es at any strain
        params = FineStructureParams(
            lambda_z=lambda_z, lambda_perp=0.0, d_es=d_es,
            delta_cap=delta_cap, e_es_coeff=e_es_coeff, zpl_offset=zpl_offset)
        split = averaged_splitting(params, strains)
        assert np.max(np.abs(split - d_es)) <= 1e-9

    def test_scalar_strain_gives_float(self):
        assert isinstance(averaged_splitting(DEFAULTS, 3.0), float)
        assert averaged_splitting(DEFAULTS, 3.0) == \
            averaged_splitting(DEFAULTS, [3.0])[0]

    def test_rejects_non_finite_strain(self):
        with pytest.raises(ValueError, match="finite"):
            averaged_splitting(DEFAULTS, [0.0, np.nan])

    def test_grid_keeps_its_shape(self):
        flat = averaged_splitting(DEFAULTS, [3.0, 9.0, 20.0, 25.0])
        assert np.array_equal(
            averaged_splitting(DEFAULTS, [[3.0, 9.0], [20.0, 25.0]]),
            flat.reshape(2, 2))

    def test_stays_near_d_es_with_coupling(self):
        devs = [abs(averaged_splitting(DEFAULTS, d) - 1.42)
                for d in np.linspace(0.0, 30.0, 121)]
        assert max(devs) < 0.05


class TestRepumpCondition:
    def test_condition_strain(self):
        d = nv2_condition_strain(DEFAULTS)
        assert d == pytest.approx(3.464, abs=0.01)

    def test_zero_tolerance_stops_at_float_resolution(self):
        d = nv2_condition_strain(DEFAULTS, tol=0.0)
        assert d == pytest.approx(nv2_condition_strain(DEFAULTS), abs=1e-6)

    def test_no_solution_raises(self):
        with pytest.raises(SweepError):
            nv2_condition_strain(DEFAULTS, window=(50.0, 60.0))

    def test_each_strain_is_solved_once(self):
        # the 400-point scan is one call and hands the bisection its value
        # at the bracket's lower end; the bisection's 18 steps are the rest
        d, calls = eigensolve_calls(nv2_condition_strain, DEFAULTS)
        assert calls == 19
        assert d == 3.464153652621391
