"""Tests for line assignment and parameter fitting."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvsim import fitting
from nvsim.fitting import (_INJECTIONS, BOUNDS, COARSE_STEP, NEWTON_STEPS,
                           PERP_FLOOR, STRAIN_GRID, STRAIN_MAX, FitError,
                           ObservedDefect, _cost, _groups, _linearize,
                           _match, _newton_strains, _solve_strains, _take,
                           fit, predicted_lines, synthesize_dataset)
from nvsim.linalg import eigensolve_counts
from nvsim.model import (FineStructureParams, StrainVector,
                         build_excited_hamiltonian)
from nvsim.sweep import parameter_operators, strain_family, strain_slopes

TRUTH = FineStructureParams()
# c11's starting point, 0.1-0.3 GHz off the truth
START = TRUTH._replace(lambda_z=5.0, d_es=1.3, delta_cap=1.4)


def brute_force_cost(pred, meas):
    """Exhaustive minimum over all order-preserving injections."""
    pred = np.sort(pred)
    meas = np.sort(meas)
    best = np.inf
    for combo in combinations(range(len(pred)), len(meas)):
        best = min(best, sum(abs(pred[j] - m)
                             for j, m in zip(combo, meas)))
    return best


def assign_lines(predicted, measured):
    """Optimal order-preserving injection of the measured lines into the
    predicted lines, minimizing total |pred - meas|; dynamic programming
    over the two sorted sequences. Returns list of (meas_idx, pred_idx)
    in sorted order. `TestMatch` checks `_match`'s closed-form injections
    against it."""
    pred = np.sort(np.asarray(predicted, dtype=float))
    meas = np.sort(np.asarray(measured, dtype=float))
    m, n = meas.size, pred.size
    if m > n:
        raise FitError(f"more measured lines ({m}) than predicted ({n})")
    if m == n:
        # equal lengths force the identity on the sorted lists
        return [(i, i) for i in range(n)]
    cost = np.full((m + 1, n + 1), np.inf)
    cost[0, :] = 0.0
    choice = np.zeros((m + 1, n + 1), dtype=bool)
    for i in range(1, m + 1):
        for j in range(i, n + 1):
            skip = cost[i, j - 1]
            take = cost[i - 1, j - 1] + abs(pred[j - 1] - meas[i - 1])
            if take <= skip:
                cost[i, j] = take
                choice[i, j] = True
            else:
                cost[i, j] = skip
    pairs = []
    i, j = m, n
    while i > 0:
        if choice[i, j]:
            pairs.append((i - 1, j - 1))
            i -= 1
        j -= 1
    pairs.reverse()
    return pairs


class TestAssignLines:
    def test_identity_on_equal_lists(self):
        pred = [1.0, 2.0, 3.5]
        assert assign_lines(pred, pred) == [(0, 0), (1, 1), (2, 2)]

    def test_constant_shift_keeps_order(self):
        pred = np.array([0.0, 1.0, 2.0, 4.0])
        pairs = assign_lines(pred, pred + 0.3)
        assert pairs == [(i, i) for i in range(4)]
        cost = sum(abs(pred[j] + 0.3 - pred[j]) for _, j in pairs)
        assert cost == pytest.approx(4 * 0.3)

    def test_matches_brute_force_on_subsets(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pred = np.sort(rng.uniform(-10.0, 10.0, 6))
            keep = np.sort(rng.choice(6, size=4, replace=False))
            meas = pred[keep] + rng.normal(0.0, 0.3, 4)
            pairs = assign_lines(pred, meas)
            meas_sorted = np.sort(meas)
            cost = sum(abs(np.sort(pred)[j] - meas_sorted[i])
                       for i, j in pairs)
            assert cost == pytest.approx(brute_force_cost(pred, meas),
                                         abs=1e-12)

    def test_rejects_too_many_measured(self):
        with pytest.raises(FitError):
            assign_lines([1.0, 2.0], [0.0, 1.0, 2.0])


def reference_match(pred, meas):
    """The fit's matching rule spelled out with `assign_lines`: centre,
    assign, take the offset as the mean difference of the pairs, then
    assign again at that offset."""
    pred, meas = np.sort(pred), np.sort(meas)
    pairs = assign_lines(pred, meas - (np.mean(meas) - np.mean(pred)))
    offset = np.mean([meas[i] - pred[j] for i, j in pairs])
    return assign_lines(pred + offset, meas), offset


class TestMatch:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_same_pairs_and_offset_as_assign_lines(self, m):
        rng = np.random.default_rng(100 + m)
        n = 80
        pred = np.sort(rng.uniform(-10.0, 10.0, (n, 6)), axis=1)
        # exactly degenerate pairs, as the E doublets are at zero strain,
        # make injections tie; ties must go the same way
        pred[1::4, 2] = pred[1::4, 1]
        pred[3::4, 4] = pred[3::4, 3]
        keep = np.sort(np.argsort(rng.random((n, 6)), axis=1)[:, :m], axis=1)
        meas = np.take_along_axis(pred, keep, axis=1) \
            + rng.normal(0.0, 0.5, (n, m)) + rng.uniform(-5.0, 5.0, (n, 1))
        meas[::2] = rng.uniform(-12.0, 12.0, (n // 2 + n % 2, m))
        meas = np.sort(meas, axis=1)
        diff, k, k_first = _match(pred, meas)
        first = _take(pred[:, _INJECTIONS[m]], k_first)
        offset, inj = (meas - first).mean(axis=1), _INJECTIONS[m][k]
        for r in range(n):
            pairs, off = reference_match(pred[r], meas[r])
            assert list(enumerate(inj[r].tolist())) == pairs
            assert offset[r] == pytest.approx(off, abs=1e-12)
            assert diff[r] == pytest.approx(
                [pred[r, j] + off - meas[r, i] for i, j in pairs], abs=1e-12)

    def test_broadcasts_over_strain_grid(self):
        rng = np.random.default_rng(5)
        pred = np.sort(rng.uniform(-10.0, 10.0, (7, 6)), axis=1)
        meas = np.sort(rng.uniform(-10.0, 10.0, (3, 4)), axis=1)
        diff, k, k_first = _match(pred, meas[:, None, :])
        assert diff.shape == (3, 7, 4) and k.shape == k_first.shape == (3, 7)
        for a in range(3):
            for b in range(7):
                d, kk, kf = _match(pred[b], meas[a])
                assert diff[a, b] == pytest.approx(d, abs=1e-12)
                assert k[a, b] == kk and k_first[a, b] == kf

    @pytest.mark.xfail(strict=True, reason="the rule centres on the mean of "
                       "all six predicted lines, so a defect missing an "
                       "outer line is matched to the wrong lines")
    def test_recovers_lines_missing_an_outer_one(self):
        pred = predicted_lines(strain_family(TRUTH), 10.0)
        diff, _, _ = _match(pred, pred[:5] + 1.7)
        assert np.max(np.abs(diff)) < 1e-9


class TestGaussNewtonStrains:
    """One refiner for every line count: Newton steps on the matched
    lines' Hellmann-Feynman slopes and exact curvatures."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(delta=st.floats(-30.0, 30.0),
           lambda_perp=st.floats(0.0, 1.0),
           e_es=st.floats(-0.5, 0.5).filter(lambda e: abs(e) >= 1e-3))
    def test_slopes_match_central_differences(self, delta, lambda_perp,
                                              e_es):
        h = 1e-5
        assume(abs(delta) > 10 * h)    # the e_es term kinks at zero strain
        params = TRUTH._replace(lambda_perp=lambda_perp, e_es_coeff=e_es)
        family = strain_family(params)
        values, slopes = strain_slopes(family, delta)
        assume(np.min(np.diff(values)) > 0.01)     # non-degenerate
        central = (predicted_lines(family, delta + h)
                   - predicted_lines(family, delta - h)) / (2 * h)
        assert np.all(np.abs(slopes - central) <= 1e-6 * np.abs(slopes))

    # the draws of test_slopes_match_central_differences
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(delta=st.floats(-30.0, 30.0),
           lambda_perp=st.floats(0.0, 1.0),
           e_es=st.floats(-0.5, 0.5).filter(lambda e: abs(e) >= 1e-3))
    def test_curvatures_match_central_differences_of_the_slopes(
            self, delta, lambda_perp, e_es):
        h = 1e-5
        assume(abs(delta) > 10 * h)    # the e_es term kinks at zero strain
        family = strain_family(TRUTH._replace(lambda_perp=lambda_perp,
                                              e_es_coeff=e_es))
        values, slopes, curv = strain_slopes(family, delta, curvatures=True)
        assume(np.min(np.diff(values)) > 0.01)     # non-degenerate
        assert np.array_equal(slopes, strain_slopes(family, delta)[1])
        central = (strain_slopes(family, delta + h)[1]
                   - strain_slopes(family, delta - h)[1]) / (2 * h)
        # some levels are straight lines (E'' = 0 exactly)
        assert np.all(np.abs(curv - central) <= 1e-6 * np.abs(curv) + 1e-8)

    def test_curvature_of_an_exact_degeneracy_is_finite(self):
        # at zero strain and lambda_perp = 0 the E pairs are degenerate
        family = strain_family(TRUTH._replace(lambda_perp=0.0))
        values, _, curv = strain_slopes(family, [0.0, 1.0], curvatures=True)
        assert np.any(np.diff(values[0]) == 0.0)
        assert curv.shape == (2, 6) and np.all(np.isfinite(curv))

    @pytest.mark.parametrize("shift", [0.0, 0.4, -0.4])
    def test_no_worse_than_a_dense_bracket_scan(self, shift):
        # 0.3 GHz has a bracket touching zero strain, 29.8 GHz one at the
        # grid's end
        strains = [0.3, 1.1, 4.0, 7.31, 12.0, 15.5, 21.0, 26.0, 29.8]
        data = synthesize_dataset(TRUTH, strains, noise=0.01, seed=12)
        family = strain_family(shifted(shift))
        grid = np.arange(0.0, STRAIN_MAX + COARSE_STEP, COARSE_STEP)
        (_, meas), = _groups(data)
        grid_costs = _cost(predicted_lines(family, grid), meas[:, None, :])
        x_gn, cost_gn = _newton_strains(family, grid, grid_costs, meas)
        # 5001 points across each defect's grid bracket
        k = np.clip(np.argmin(grid_costs, axis=1), 1, grid.size - 2)
        scan = grid[k - 1, None] + np.linspace(0.0, 2 * COARSE_STEP, 5001)
        scan_min = _cost(predicted_lines(family, scan),
                         meas[:, None, :]).min(axis=1)
        assert np.all(cost_gn <= scan_min * (1 + 1e-9) + 1e-16)
        assert np.all(cost_gn <= grid_costs.min(axis=1))
        # the reported cost is the cost at the reported strain
        assert cost_gn == pytest.approx(
            _cost(predicted_lines(family, x_gn), meas),
            rel=1e-9, abs=1e-16)


    @pytest.mark.parametrize("drop", [(0, 5), (5,)])
    def test_partial_lists_keep_a_grid_end_minimum(self, drop):
        # a partial-line defect beyond the grid: its bracket is clipped
        # to [29.5, 30], and every point inside costs more than 30 GHz
        full = synthesize_dataset(TRUTH, [40.0], seed=9)
        data = [d._replace(lines=tuple(x for i, x in enumerate(d.lines)
                                       if i not in drop)) for d in full]
        (_, meas), = _groups(data)
        grid = np.arange(0.0, STRAIN_MAX + COARSE_STEP, COARSE_STEP)
        family = strain_family(TRUTH)
        grid_costs = _cost(predicted_lines(family, grid), meas[:, None, :])
        assert np.argmin(grid_costs) == grid.size - 1
        x, cost = _newton_strains(family, grid, grid_costs, meas)
        assert x[0] == STRAIN_MAX
        assert cost[0] <= grid_costs.min()


def shifted(shift):
    """The truth with lambda_z, d_es and delta_cap moved by shift GHz."""
    return TRUTH._replace(lambda_z=TRUTH.lambda_z + shift,
                          d_es=TRUTH.d_es + shift,
                          delta_cap=TRUTH.delta_cap + shift)


def stop_ensemble(kind):
    """A noisy full-line ensemble, one at the two anticrossings (7.314 and
    15.501 GHz), or a noise-free one of middle four lines (the kind
    `nvsim fit` reads in the benchmark's partial workload; "kinked" is
    one whose cost kinks at a strain minimum, where the L1 matching rule
    switches injection)."""
    strains = [1.2, 3.0, 7.3, 12.0, 17.5, 23.0]
    if kind == "kinked":
        strains = np.sort(np.random.default_rng(6).uniform(0.5, 25.0, 6))
        full = synthesize_dataset(TRUTH, strains, seed=6)
        return [d._replace(lines=d.lines[1:5]) for d in full]
    if kind == "full":
        return synthesize_dataset(TRUTH, strains, noise=0.01, seed=31)
    if kind == "crossing":
        strains = np.add.outer([7.314, 15.501], [-0.01, 0.0, 0.01]).ravel()
        return synthesize_dataset(TRUTH, strains, noise=0.01, seed=33)
    full = synthesize_dataset(TRUTH, strains, seed=32)
    return [d._replace(lines=d.lines[1:5]) for d in full]


def count_eigensolves(monkeypatch):
    """The list it returns gets, per `_solve_strains` call, the number of
    stacked eigensolves that call ran, read off `eigensolve_counts`."""
    per_solve = []
    solve = fitting._solve_strains

    def recorded(*args):
        before = eigensolve_counts["calls"]
        out = solve(*args)
        per_solve.append(eigensolve_counts["calls"] - before)
        return out

    monkeypatch.setattr(fitting, "_solve_strains", recorded)
    return per_solve


class TestStoppedSearches:
    """The one strain refiner stops once a step falls to STRAIN_TOL, and
    may start a full line list from a given strain in the grid bracket."""

    @pytest.mark.parametrize("shift, kind", [
        *((shift, kind) for shift in (0.0, 0.4, -0.4)
          for kind in ("full", "partial", "crossing")),
        pytest.param(-0.4, "kinked", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the strain of defect 3 ends at 12.9375 GHz, off a "
                   "minimum, where the L1 matching rule kinks the cost"))])
    def test_ends_at_a_minimum_below_the_grid(self, shift, kind):
        family = strain_family(shifted(shift))
        groups = _groups(stop_ensemble(kind))
        strains, costs, _ = _solve_strains(family, groups)
        (_, meas), = groups
        grid_costs = _cost(predicted_lines(family, STRAIN_GRID),
                           meas[:, None, :])
        assert np.all(costs <= grid_costs.min(axis=1))
        # 21 points 1e-7 GHz apart, the refined strain in the middle
        scan = strains[:, None] + np.arange(-10, 11) * 1e-7
        scan_costs = _cost(predicted_lines(family, scan), meas[:, None, :])
        assert np.all(scan_costs.min(axis=1)
                      >= scan_costs[:, 10] * (1 - 1e-12))

    @pytest.mark.parametrize("kind", ["full", "partial"])
    def test_zero_tolerance_runs_to_the_caps(self, kind, monkeypatch):
        data = stop_ensemble(kind)
        per_solve = count_eigensolves(monkeypatch)
        stopped = fit(data, START)
        n_stopped = list(per_solve)
        per_solve.clear()
        monkeypatch.setattr(fitting, "STRAIN_TOL", 0.0)
        capped = fit(data, START)
        # the grid scan, the bracket's rescan (partial lists only), then
        # every step up to the cap and the point the last step reaches
        cap = 1 + (kind == "partial") + NEWTON_STEPS + 1
        assert per_solve == [cap] * len(per_solve)
        assert max(n_stopped) <= cap and sum(n_stopped) < sum(per_solve)
        assert stopped.converged and capped.converged
        for name in ("lambda_z", "d_es", "delta_cap"):
            assert getattr(stopped.params, name) == pytest.approx(
                getattr(capped.params, name), abs=1e-9)

    def test_printed_strains_are_the_fixed_point(self, monkeypatch):
        # fit_strains.csv prints 9 significant digits: a refiner that
        # stops short of its fixed point leaves noise in the last ones
        rng = np.random.default_rng(0)
        data = synthesize_dataset(TRUTH, np.sort(rng.uniform(0.5, 25.0, 120)),
                                  noise=0.01, seed=0)
        stopped = fit(data, START)
        monkeypatch.setattr(fitting, "STRAIN_TOL", 0.0)
        monkeypatch.setattr(fitting, "NEWTON_STEPS", 30)
        fixed = fit(data, START)
        assert stopped.converged and fixed.converged
        assert [f"{x:#.9g}" for x in stopped.strains.values()] == \
            [f"{x:#.9g}" for x in fixed.strains.values()]

    def test_takes_gauss_newton_curvature_where_newton_is_not_positive(
            self):
        # lines with lambda_perp = 1 GHz read at lambda_perp = 1 MHz: near
        # the 7.314 GHz anticrossing r.E'' outweighs J.J, and Newton steps
        # from there climb to a maximum
        meas = predicted_lines(
            strain_family(TRUTH._replace(lambda_perp=1.0)), [7.314])
        family = strain_family(TRUTH._replace(lambda_perp=1e-3))
        start = np.array([7.309])
        values, slopes, curv = strain_slopes(family, start, curvatures=True)
        r = _match(values, meas)[0]
        jac = slopes - slopes.mean()
        assert (jac * jac).sum() + (r * curv).sum() < 0
        grid_costs = _cost(predicted_lines(family, STRAIN_GRID),
                           meas[:, None, :])
        _, cost = _newton_strains(family, STRAIN_GRID, grid_costs, meas,
                                  start)
        scan = np.linspace(7.0, 7.5, 5001)      # the grid bracket
        assert cost[0] <= _cost(predicted_lines(family, scan),
                                meas).min() * (1 + 1e-9)

    @pytest.mark.parametrize("offset", [1e-3, -0.1, 0.3])
    def test_gauss_newton_starts_inside_the_bracket(self, offset,
                                                    monkeypatch):
        family = strain_family(shifted(0.4))
        (_, meas), = _groups(stop_ensemble("full"))
        grid_costs = _cost(predicted_lines(family, STRAIN_GRID),
                           meas[:, None, :])
        x_grid, cost_grid = _newton_strains(family, STRAIN_GRID,
                                            grid_costs, meas)
        start = x_grid + offset
        first = []
        slopes = fitting.strain_slopes
        monkeypatch.setattr(fitting, "strain_slopes",
                            lambda family, x, **kwargs: (
                                first.append(np.copy(x)),
                                slopes(family, x, **kwargs))[1])
        x, cost = _newton_strains(family, STRAIN_GRID, grid_costs, meas,
                                  start)
        # the bracket is the grid points either side of the grid minimum
        k = np.argmin(grid_costs, axis=1)
        inside = np.abs(start - STRAIN_GRID[k]) <= COARSE_STEP
        assert np.array_equal(first[0], np.where(inside, start,
                                                 STRAIN_GRID[k]))
        assert np.all(cost <= grid_costs.min(axis=1))
        assert x == pytest.approx(x_grid, abs=1e-7)


class TestObservedDefect:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedDefect(id="x", lines=(1.0,))
        with pytest.raises(ValueError):
            ObservedDefect(id="x", lines=(1.0, np.inf))


class TestFit:
    INIT = START

    def test_under_determined_raises(self):
        data = [ObservedDefect(id="a", lines=(0.0, 1.0))]
        with pytest.raises(ValueError, match="under-determined"):
            fit(data)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError, match="no defects supplied"):
            fit([])

    def test_noiseless_recovery_small(self):
        data = synthesize_dataset(TRUTH, [1.5, 4.0, 9.0, 14.0, 18.0],
                                  seed=5)
        res = fit(data, self.INIT)
        assert res.converged
        assert res.params.lambda_z == pytest.approx(5.3, abs=1e-4)
        assert res.params.d_es == pytest.approx(1.42, abs=1e-4)
        assert res.params.delta_cap == pytest.approx(1.55, abs=1e-4)
        assert res.residual_rms < 1e-6

    def test_fit_gauge_invariance(self):
        data = synthesize_dataset(TRUTH, [2.0, 6.0, 11.0, 16.0], seed=6)
        res_a = fit(data, self.INIT)
        shifted = [data[0]._replace(
            lines=tuple(x + 3.0 for x in data[0].lines))] \
            + list(data[1:])
        res_b = fit(shifted, self.INIT)
        assert res_b.residual_rms == pytest.approx(res_a.residual_rms,
                                                   abs=1e-6)
        assert res_b.offsets[data[0].id] - res_a.offsets[data[0].id] == \
            pytest.approx(3.0, abs=1e-5)

    def test_full_line_offsets_in_closed_form(self):
        # tr H = 6 zpl_offset at every strain, so a six-line defect's
        # offset is its mean line less zpl_offset, to the last bit; the
        # partial defects' offsets come from their matched lines
        start = self.INIT._replace(zpl_offset=0.45)
        truth = TRUTH._replace(zpl_offset=0.45)
        full = synthesize_dataset(truth, [2.0, 6.0, 11.0, 16.0, 21.0],
                                  noise=0.01, seed=6)
        data = full[:3] + [d._replace(lines=d.lines[1:5]) for d in full[3:]]
        res = fit(data, start)
        for d in data[:3]:
            assert res.offsets[d.id] == \
                np.sort(d.lines).sum() / 6 - 0.45
        for d in full[3:]:
            assert res.offsets[d.id] == pytest.approx(
                np.mean(d.lines) - 0.45, abs=0.05)

    def test_partial_line_lists(self):
        # every defect reports only its middle four lines
        full = synthesize_dataset(TRUTH, [3.0, 7.0, 12.0, 17.0, 21.0],
                                  seed=7)
        data = [d._replace(lines=d.lines[1:5]) for d in full]
        res = fit(data, self.INIT)
        assert res.params.lambda_z == pytest.approx(5.3, abs=1e-3)
        assert res.params.d_es == pytest.approx(1.42, abs=1e-3)
        assert res.residual_rms < 1e-5

    def test_mixed_line_counts(self):
        # one ensemble with 6-, 5- and 4-line defects; the 5-line ones miss
        # an inner line, the 4-line ones both outer lines
        full = synthesize_dataset(TRUTH, [3.0, 7.0, 12.0, 17.0, 21.0],
                                  seed=11)
        drops = [(), (2,), (3,), (0, 5), (0, 5)]
        data = [d._replace(lines=tuple(x for i, x in enumerate(d.lines)
                                       if i not in drop))
                for d, drop in zip(full, drops)]
        res = fit(data, self.INIT)
        assert res.converged
        assert res.params.lambda_z == pytest.approx(5.3, abs=1e-3)
        assert res.params.d_es == pytest.approx(1.42, abs=1e-3)
        assert res.params.delta_cap == pytest.approx(1.55, abs=1e-3)
        assert res.residual_rms < 1e-5
        assert [len(res.assignments[d.id]) for d in data] == [6, 5, 5, 4, 4]
        assert res.assignments[data[1].id] == [(0, 0), (1, 1), (2, 3),
                                               (3, 4), (4, 5)]

    def test_strain_beyond_grid_not_converged(self):
        data = synthesize_dataset(TRUTH, [3.0, 8.0, 14.0, 40.0, 45.0],
                                  seed=9)
        res = fit(data, self.INIT)
        assert not res.converged
        assert max(res.strains.values()) == pytest.approx(STRAIN_MAX,
                                                          abs=0.01)
        assert res.edge_ids == ("nv04", "nv05")

    def test_edge_alone_keeps_the_fit_from_converging(self):
        # nv05 at 31 GHz, past STRAIN_MAX: the fit neither stalls nor ends
        # on a bound, so the edge is its one reason not to converge
        data = synthesize_dataset(TRUTH, [3.0, 8.0, 14.0, 20.0, 31.0],
                                  seed=0)
        res = fit(data, self.INIT)
        assert res.edge_ids == ("nv05",)
        assert not res.stalled and res.bound_names == ()
        assert res.iterations == 2
        assert not res.converged

    def test_reason_names_what_kept_the_fit_from_converging(self):
        data = synthesize_dataset(TRUTH, [3.0, 8.0, 14.0, 20.0, 31.0],
                                  seed=0)
        res = fit(data, self.INIT)
        assert res.reason == "defects at the strain-grid edge: nv05"
        assert not res.converged
        assert fit(data[:4], self.INIT).reason == ""

    def test_converged_fit_has_no_edge_ids(self):
        data = synthesize_dataset(TRUTH, [2.0, 6.0, 11.0, 16.0], seed=6)
        assert fit(data, self.INIT).edge_ids == ()

    @pytest.mark.parametrize("keep, on_bound", [
        (slice(3, 6), ("lambda_z",)), (slice(0, 3), ("d_es", "delta_cap"))])
    def test_fit_ending_on_a_bound_not_converged(self, keep, on_bound):
        # one-sided partial line lists: the fit runs into a wrong minimum
        # with these globals exactly on an end of their BOUNDS
        full = synthesize_dataset(TRUTH, [3.0, 7.0, 12.0, 17.0, 21.0],
                                  seed=0)
        res = fit([d._replace(lines=d.lines[keep]) for d in full],
                  self.INIT)
        assert not res.converged and not res.stalled
        assert res.edge_ids == ()
        assert res.bound_names == on_bound
        for name in on_bound:
            assert getattr(res.params, name) in BOUNDS[name]
        # a global on its bound is held there, so the fit stops on the
        # bound instead of crawling along it
        assert res.iterations <= 20

    def test_too_many_lines_raises(self):
        data = synthesize_dataset(TRUTH, [2.0, 8.0, 15.0], seed=3)
        with pytest.raises(ValueError, match="7 lines, need 2 to 6"):
            data[0]._replace(lines=data[0].lines + (30.0,))

    def test_predicted_lines_sorted(self):
        vals = predicted_lines(strain_family(TRUTH), 4.0)
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    def test_predicted_lines_batch_any_shape(self, shape):
        params = TRUTH._replace(e_es_coeff=0.05)
        strains = np.random.default_rng(8).uniform(-25.0, 25.0, shape)
        lines = predicted_lines(strain_family(params), strains)
        assert lines.shape == shape + (6,)
        direct = [np.linalg.eigvalsh(build_excited_hamiltonian(
            params, StrainVector(d, 0.0))) for d in np.ravel(strains)]
        assert np.max(np.abs(lines.reshape(-1, 6) - direct)) <= 1e-10


class TestVariableProjection:
    """The Levenberg-Marquardt loop on the reduced Jacobian of the cost
    minimized over every defect's strain and offset."""

    @pytest.mark.parametrize("seed", [*range(16, 24), 53])
    def test_partial_ensembles_converge_to_the_truth(self, seed):
        # the middle four lines, noise-free: a Jacobian that keeps the
        # strain direction, or takes the offset's derivative from the
        # matched row, stalls about 0.1 GHz short of the truth on 4-5 of
        # seeds 16-23 and reports converged; on seed 53 a strain search
        # that rescans its grid bracket at 7 points instead of RESCAN ends
        # converged at lambda_z 5.1997
        rng = np.random.default_rng(seed)
        strains = np.array([3.0, 7.0, 12.0, 17.0, 21.0]) \
            + rng.uniform(-0.5, 0.5, 5)
        full = synthesize_dataset(TRUTH, strains, seed=seed)
        res = fit([d._replace(lines=d.lines[1:5]) for d in full], START)
        assert res.converged
        for name in ("lambda_z", "d_es", "delta_cap"):
            assert getattr(res.params, name) == pytest.approx(
                getattr(TRUTH, name), abs=1e-6)

    def test_gradient_is_half_the_cost_derivative(self):
        # J^T r against central differences of the cost, strains
        # re-minimized at every point, off the optimum in all four globals
        strains = [0.4, 1.2, 2.5, 4.0, 6.3, 9.1, 12.0, 15.5, 19.0, 24.0]
        groups = _groups(synthesize_dataset(TRUTH, strains, noise=0.01,
                                            seed=4))
        names = ["lambda_z", "d_es", "delta_cap", "lambda_perp"]
        theta = np.array([5.36, 1.38, 1.58, 0.23])

        def cost(theta):
            params = TRUTH._replace(**dict(zip(names, theta)))
            return _solve_strains(strain_family(params), groups)[1].sum()

        params = TRUTH._replace(**dict(zip(names, theta)))
        strains = _solve_strains(strain_family(params), groups)[0]
        r, jac = _linearize(params, strain_family(params),
                            parameter_operators(names), strains, groups)[:2]
        h = 1e-5
        for j, step in enumerate(h * np.eye(len(names))):
            central = (cost(theta + step) - cost(theta - step)) / (2 * h)
            assert (jac.T @ r)[j] == pytest.approx(central / 2, rel=1e-5)

    def test_reported_errors_match_the_scatter(self):
        # c11's ensemble with 40 noise draws: the spread of the fitted
        # globals against the mean 1 sigma error each fit reports
        strains = np.sort(np.random.default_rng(1).uniform(0.5, 20.0, 27))
        fits = [fit(synthesize_dataset(TRUTH, strains, noise=0.01,
                                       seed=100 + rep), START)
                for rep in range(40)]
        for name in ("lambda_z", "d_es", "delta_cap"):
            spread = np.std([getattr(f.params, name) for f in fits], ddof=1)
            reported = np.mean([f.errors[name] for f in fits])
            assert 0.7 <= spread / reported <= 1.4

    def test_errors_only_with_degrees_of_freedom(self):
        data = synthesize_dataset(TRUTH, [2.0, 6.0, 11.0, 16.0], seed=6)
        assert set(fit(data, START).errors) == {
            "lambda_z", "d_es", "delta_cap"}
        assert set(fit(data, START, free_lambda_perp=True).errors) == {
            "lambda_z", "d_es", "delta_cap", "lambda_perp"}
        # one defect missing an inner line: 5 lines for 5 free parameters
        lines = data[1].lines
        single = [data[1]._replace(lines=lines[:2] + lines[3:])]
        assert fit(single, START).errors == {}

    def test_huge_lines_fit_without_a_warning(self, recwarn):
        # c11's ensemble scaled by 1e150: the cost, about 1e300 GHz^2,
        # is still finite, so the fit runs, and LAPACK sees no overflow
        strains = np.sort(np.random.default_rng(1).uniform(0.5, 20.0, 27))
        data = [ObservedDefect(d.id, tuple(1e150 * np.array(d.lines)))
                for d in synthesize_dataset(TRUTH, strains, seed=2)]
        assert isinstance(fit(data, START), fitting.FitResult)
        assert not recwarn.list

    def test_non_finite_starting_cost_raises(self):
        data = [ObservedDefect(id=f"nv{i}", lines=tuple(
            1e300 * (1 + 1e-15 * np.arange(6)))) for i in range(2)]
        with pytest.raises(FitError, match="not finite.*line positions out "
                                           "of range"):
            fit(data)

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_lambda_perp_leaves_zero(self, noise):
        # the spectrum is even in lambda_perp, so every slope in it
        # vanishes at 0: a fit started there must still step off it
        strains = np.sort(np.random.default_rng(1).uniform(0.5, 20.0, 27))
        data = synthesize_dataset(TRUTH, strains, noise=noise, seed=3)
        res = fit(data, START._replace(lambda_perp=0.0),
                  free_lambda_perp=True)
        assert res.converged
        assert set(res.errors) == {"lambda_z", "d_es", "delta_cap",
                                   "lambda_perp"}
        tol = 3 * res.errors["lambda_perp"] if noise else 1e-6
        assert res.params.lambda_perp == pytest.approx(TRUTH.lambda_perp,
                                                       abs=tol)

    def test_lambda_perp_truth_zero(self):
        strains = np.sort(np.random.default_rng(1).uniform(0.5, 20.0, 27))
        data = synthesize_dataset(TRUTH._replace(lambda_perp=0.0), strains,
                                  seed=3)
        res = fit(data, START, free_lambda_perp=True)
        assert res.converged
        assert res.params.lambda_perp == pytest.approx(0.0, abs=1e-3)
        # lambda_perp at its floor is not on a bound: 0 is physical
        assert res.params.lambda_perp == PERP_FLOOR
        assert res.bound_names == ()
        assert res.params.lambda_z == pytest.approx(TRUTH.lambda_z, abs=1e-6)

    @pytest.mark.parametrize("keep", [slice(0, 6), slice(1, 5)])
    def test_each_accepted_point_linearized_once(self, monkeypatch, keep):
        linearize, points = fitting._linearize, []

        def recorded(params, *args):
            points.append(repr((params, args[2].tolist())))
            return linearize(params, *args)

        monkeypatch.setattr(fitting, "_linearize", recorded)
        # noise-free, so the loop ends on the step test, after which the
        # final point used to be linearized a second time
        full = synthesize_dataset(TRUTH, [3.0, 7.0, 12.0, 17.0, 21.0],
                                  seed=7)
        res = fit([d._replace(lines=d.lines[keep]) for d in full], START)
        assert res.converged and res.iterations >= 2
        # the start, then one point per accepted step
        assert len(set(points)) == len(points) == res.iterations

    def test_one_strain_family_per_parameter_point(self, monkeypatch):
        # the family each evaluated point builds serves its strain solve
        # and, once accepted, its linearization: 4 builds a point before
        # they were handed down
        full = synthesize_dataset(TRUTH, [3.0, 7.0, 12.0, 17.0, 21.0],
                                  seed=7)
        calls = {"strain_family": 0, "_solve_strains": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(fitting, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(fitting, name, counted)
        assert fit([d._replace(lines=d.lines[1:5]) for d in full],
                   START).converged
        assert calls == {"strain_family": 5, "_solve_strains": 5}

    def test_no_lower_cost_is_not_convergence(self, monkeypatch):
        # a cost that never falls below the start's: each damped step is
        # rejected until the damping limit
        solve = fitting._solve_strains
        start = []

        def flat(params, groups, guess=None):
            strains, costs, at_edge = solve(params, groups, guess)
            start.append(costs)
            return strains, start[0], at_edge

        monkeypatch.setattr(fitting, "_solve_strains", flat)
        data = synthesize_dataset(TRUTH, [2.0, 6.0, 11.0, 16.0], seed=6)
        res = fit(data, START)
        assert not res.converged and res.stalled
        assert res.iterations == 1 and len(start) > 10
