"""Tests for transition lines and the 10-level rate model."""

from dataclasses import replace

import numpy as np
import pytest

from nvsim import photodynamics
from nvsim.linalg import eigensolve
from nvsim.model import LEVEL_WEIGHTS, FineStructureParams, RateParams, \
    StrainVector, build_excited_hamiltonian, dominant_spins, gauged, \
    level_weights
from nvsim.photodynamics import (IDX_EXC, IDX_GSZ, N_LEVELS,
                                 RateModelError, build_rate_matrix,
                                 excitation_spectrum, expm, lorentzian_peak,
                                 polarize, propagate, rabi_trace,
                                 stationary_state, transition_lines,
                                 uniform_ground)

PARAMS = FineStructureParams()
RATES = RateParams()
STRAIN = StrainVector(3.0, 0.0)


def strong_lines(strain=STRAIN):
    return [ln for ln in transition_lines(PARAMS, strain) if not ln.weak]


class TestTransitionLines:
    def test_eighteen_lines(self):
        assert len(transition_lines(PARAMS, STRAIN)) == 18

    def test_strengths_sum_to_one_per_sublevel(self):
        lines = transition_lines(PARAMS, STRAIN)
        for g in ("gSz", "gSx", "gSy"):
            total = sum(ln.strength for ln in lines
                        if ln.ground_sublevel == g)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_six_strong_sz_and_conserving_flags(self):
        lines = transition_lines(PARAMS, STRAIN)
        conserving = [ln for ln in lines if ln.spin_conserving]
        assert len(conserving) == 6
        assert all(ln.strength > 0.25 for ln in conserving)

    def test_spin_populations_are_the_level_characters(self):
        # the rate model's level weights are the level_weights of the
        # same eigenvectors, those of the gauged Hamiltonian, bit for
        # bit, and a line conserves spin where its ground sublevel is the
        # level's dominant spin
        rng = np.random.default_rng(71)
        spin_of = {"gSz": "p_sz", "gSx": "p_sx", "gSy": "p_sy"}
        for _ in range(40):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 15.0),
                lambda_perp=rng.uniform(0.0, 1.0),
                d_es=rng.uniform(0.1, 5.0), delta_cap=rng.uniform(0.1, 5.0),
                e_es_coeff=rng.uniform(-0.5, 0.5))
            strain = StrainVector(*rng.uniform(-30.0, 30.0, 2))
            _, weights = photodynamics._excited_structure(params, strain)
            chars = level_weights(eigensolve(gauged(
                build_excited_hamiltonian(params, strain)))[1])
            assert np.array_equal(weights, chars)
            rows = dominant_spins(chars)
            for ln in transition_lines(params, strain):
                dominant = list(LEVEL_WEIGHTS)[rows[ln.excited_index - 1]]
                assert ln.spin_conserving == (
                    dominant == spin_of[ln.ground_sublevel])

    @pytest.mark.parametrize("on_axis", [True, False])
    def test_structure_is_that_of_the_ungauged_hamiltonian(self, on_axis):
        # the gauge changes no eigenvalue and no level weight: both agree
        # with np.linalg.eigh of the physical Hamiltonian, on the x axis
        # (a real solve) and off it (a complex one)
        rng = np.random.default_rng(72)
        for _ in range(40):
            params = FineStructureParams(
                lambda_z=rng.uniform(1.0, 15.0),
                lambda_perp=rng.uniform(0.0, 1.0),
                d_es=rng.uniform(0.1, 5.0), delta_cap=rng.uniform(0.1, 5.0),
                e_es_coeff=rng.uniform(-0.5, 0.5))
            dx, dy = rng.uniform(-30.0, 30.0, 2)
            strain = StrainVector(dx, 0.0 if on_axis else dy)
            values, weights = photodynamics._excited_structure(params,
                                                               strain)
            h = build_excited_hamiltonian(params, strain)
            assert np.isrealobj(gauged(h)) == on_axis
            oracle_values, oracle_vectors = np.linalg.eigh(h)
            assert np.abs(values - oracle_values).max() <= 1e-12
            assert np.abs(weights
                          - level_weights(oracle_vectors)).max() <= 1e-12

    def test_rejects_strain_beyond_limit(self):
        # returned lines of strength 0.0 after an overflow RuntimeWarning
        with pytest.raises(ValueError, match="1e\\+06 GHz"):
            transition_lines(PARAMS, StrainVector(1e300, 0.0))

    def test_flags_are_python_bools(self):
        # a numpy bool has another repr, which the lines table would show
        for strain in (StrainVector(), STRAIN):
            for ln in transition_lines(PARAMS, strain):
                assert type(ln.spin_conserving) is bool
                assert type(ln.weak) is bool

    def test_exact_sx_sy_tie_goes_to_sx(self):
        # at lambda_perp = 0 and zero strain the E-pair and A1/A2 levels
        # hold Sx and Sy equally to the last bit
        params = FineStructureParams(lambda_perp=0.0)
        _, weights = photodynamics._excited_structure(params, StrainVector())
        p_sx, p_sy = weights[1:3]
        tied = np.flatnonzero((p_sx == p_sy) & (p_sx > 0.4))
        assert tied.tolist() == [0, 1, 4, 5]
        lines = transition_lines(params, StrainVector())
        for gname, conserving in (("gSx", True), ("gSy", False)):
            assert all(ln.spin_conserving == conserving for ln in lines
                       if ln.ground_sublevel == gname
                       and ln.excited_index - 1 in tied)


class TestRateMatrix:
    def test_columns_sum_to_zero(self):
        for kwargs in ({}, {"mw_on": True}, {"green_on": True},
                       {"laser_detuning": 4.0}):
            g = build_rate_matrix(PARAMS, STRAIN, RATES, **kwargs)
            assert np.max(np.abs(g.sum(axis=0))) < 1e-12

    def test_rejects_inverted_isc_ordering(self):
        with pytest.raises(ValueError):
            RateParams(k_isc_z=0.06, k_isc_xy=0.05)

    @pytest.mark.parametrize("name", ["gamma_rad", "beta_z", "linewidth",
                                      "mw_mix_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            RateParams(**{name: value})

    def test_rejects_zero_linewidth(self):
        # excitation wrote an all-zero spectrum with exit 0
        with pytest.raises(ValueError, match="linewidth must be positive"):
            RateParams(linewidth=0.0)

    def test_lorentzian_peak_unit_height(self):
        assert lorentzian_peak(0.0, 0.1) == 1.0
        assert lorentzian_peak(0.05, 0.1) == pytest.approx(0.5)

    def test_propagation_conserves_probability(self):
        g = build_rate_matrix(PARAMS, STRAIN, RATES, green_on=True,
                              mw_on=True)
        pop = propagate(uniform_ground(), g, 5000.0)
        assert pop.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.min(pop) >= -1e-12

    def test_propagation_rejects_nan_generator(self):
        g = build_rate_matrix(PARAMS, STRAIN, RATES, green_on=True)
        g[4, 3] = np.nan
        with pytest.raises(RateModelError, match="conservation"):
            propagate(uniform_ground(), g, 1.0)

    def test_propagation_rejects_a_leaking_generator(self):
        # columns summing to -0.01: exp(-1) of the population is lost
        with pytest.raises(RateModelError, match="probability conservation "
                           r"by 6\.321e-01"):
            propagate(uniform_ground(), -0.01 * np.eye(N_LEVELS), 100.0)

    def test_stationary_state_rejects_a_matrix_without_null_vector(self):
        # a full-rank matrix that is no generator: the bordered system has
        # a least-squares solution, but it does not solve G p = 0
        g = np.random.default_rng(0).uniform(0.0, 1.0, (N_LEVELS, N_LEVELS))
        with pytest.raises(RateModelError,
                           match=r"not found \(residual 1\.640e-01\)"):
            stationary_state(g)

    def test_stationary_state_is_stationary(self):
        g = build_rate_matrix(PARAMS, STRAIN, RATES, laser_detuning=4.0,
                              mw_on=True)
        ss = stationary_state(g)
        assert np.max(np.abs(g @ ss)) < 1e-10
        assert ss.sum() == pytest.approx(1.0)

    def test_stationary_state_rejects_reducible_generator(self):
        # two closed classes, levels 0-4 and 5-9: a 2-D null space
        rng = np.random.default_rng(3)
        rates = np.zeros((N_LEVELS, N_LEVELS))
        for block in (slice(0, 5), slice(5, N_LEVELS)):
            rates[block, block] = rng.uniform(0.01, 0.1, (5, 5))
        np.fill_diagonal(rates, 0.0)
        g = rates - np.diag(rates.sum(axis=0))
        with pytest.raises(RateModelError, match="not unique"):
            stationary_state(g)

    def test_negative_population_is_named(self):
        # a metastable singlet that hardly decays traps the population,
        # and the ground levels are pumped only far off resonance: the
        # chain is nearly reducible, and the least-squares null vector
        # comes out with a ground population below -1e-8 at a residual
        # near 1e-15
        rates = replace(RATES, gamma_singlet=1e-301, k_isc_xy=5.0)
        g = build_rate_matrix(PARAMS, StrainVector(27.0, 0.0), rates,
                              laser_detuning=1.0)
        with pytest.raises(RateModelError, match=r"not found \(level \d "
                           r"has negative population -\d\.\d{3}e-\d\d\)"
                           ) as err:
            stationary_state(g)
        assert "residual" not in str(err.value)

    def test_stationary_state_rejects_non_finite_generator(self):
        # LAPACK hangs on a bordered generator holding an inf
        g = build_rate_matrix(PARAMS, STRAIN, RATES, mw_on=True)
        g[0, 0] = -np.inf
        with pytest.raises(RateModelError, match="not finite"):
            stationary_state(g)
        stack = np.stack([g, g])
        stack[0, 0, 0] = -1.0       # only member 1 is non-finite
        with pytest.raises(RateModelError, match="generator 1: .*finite"):
            stationary_state(stack)


def gth_stationary(generator, digits=60):
    """The stationary state of dP/dt = G P by Grassmann-Taksar-Heyman
    elimination in mpmath at `digits` significant digits: it only adds,
    multiplies and divides nonnegative rates, so no digit is lost to
    cancellation however widely the rates spread."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        # q[i][j] is the rate from level i to level j
        q = [[mpmath.mpf(x) for x in row] for row in generator.T.tolist()]
        for k in range(N_LEVELS - 1, 0, -1):
            out = mpmath.fsum(q[k][:k])
            for i in range(k):
                q[i][k] /= out
            for i in range(k):
                for j in range(k):
                    if i != j:
                        q[i][j] += q[i][k] * q[k][j]
        pi = [mpmath.mpf(1)]
        for k in range(1, N_LEVELS):
            pi.append(mpmath.fsum(pi[i] * q[i][k] for i in range(k)))
        total = mpmath.fsum(pi)
        return np.array([float(x / total) for x in pi])


class TestStationaryOracle:
    WEAK_DRIVE = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND, stationary_state: at a weak drive lstsq's null "
        "vector passes every check but gives a PL 0.54% low, which `nvsim "
        "excitation --mw-off` prints with exit 0"))

    @pytest.mark.parametrize("rates", [
        pytest.param(RATES, id="defaults"),
        pytest.param(replace(RATES, pump_res_max=2e-8), id="weak_drive",
                     marks=WEAK_DRIVE)])
    def test_pl_matches_an_exact_solve(self, rates):
        # `nvsim excitation --mw-off` at -8.5 GHz
        g = build_rate_matrix(PARAMS, STRAIN, rates, laser_detuning=-8.5)
        pl = stationary_state(g)[IDX_EXC].sum()
        assert pl == pytest.approx(gth_stationary(g)[IDX_EXC].sum(),
                                   rel=1e-6, abs=0.0)

    def test_absolute_residual_rejects_a_wrong_null_vector(self):
        # at gamma_rad = 1e9 lstsq's excited population is 34% off; only
        # the absolute residual test rejects it, which a residual taken
        # relative to the generator's scale would not
        g = build_rate_matrix(PARAMS, STRAIN, replace(RATES, gamma_rad=1e9),
                              laser_detuning=-10.0, mw_on=True)
        with pytest.raises(RateModelError, match=r"residual 8\.73\de-08"):
            stationary_state(g)
        bordered = np.vstack([g, np.ones(N_LEVELS)])
        sol = np.linalg.lstsq(bordered, np.eye(N_LEVELS + 1)[-1],
                              rcond=None)[0]
        exact = gth_stationary(g)[IDX_EXC].sum()
        assert sol[IDX_EXC].sum() / exact - 1 == pytest.approx(0.344,
                                                               abs=1e-3)


def rate_generators(rng, count):
    """Random generators: nonnegative off-diagonal rates, about half of
    them zero, with columns summing to zero."""
    for _ in range(count):
        rates = rng.uniform(0.0, 1.0, (N_LEVELS, N_LEVELS)) \
            * (rng.uniform(size=(N_LEVELS, N_LEVELS)) < 0.5)
        np.fill_diagonal(rates, 0.0)
        yield rates - np.diag(rates.sum(axis=0))


class TestStacked:
    """A stack of detunings or generators gives, bit for bit, what the
    single-matrix calls give member by member."""

    @pytest.mark.parametrize("kwargs", [{}, {"green_on": True},
                                        {"mw_on": True},
                                        {"green_on": True, "mw_on": True}])
    def test_build_equals_per_detuning(self, kwargs):
        nus = np.linspace(-6.0, 6.0, 37)
        stack = build_rate_matrix(PARAMS, STRAIN, RATES, laser_detuning=nus,
                                  **kwargs)
        assert stack.shape == (nus.size, N_LEVELS, N_LEVELS)
        for nu, g in zip(nus, stack):
            assert np.array_equal(g, build_rate_matrix(
                PARAMS, STRAIN, RATES, laser_detuning=nu, **kwargs))

    def test_stationary_state_equals_per_matrix(self):
        gens = np.array(list(rate_generators(np.random.default_rng(5), 12)))
        stack = stationary_state(gens)
        assert stack.shape == (12, N_LEVELS)
        for g, ss in zip(gens, stack):
            assert np.array_equal(ss, stationary_state(g))
        deep = stationary_state(gens.reshape(3, 4, N_LEVELS, N_LEVELS))
        assert np.array_equal(deep, stack.reshape(3, 4, N_LEVELS))

    def test_reducible_member_is_named(self):
        gens = np.array(list(rate_generators(np.random.default_rng(5), 6)))
        # cut member 4 into two closed classes, levels 0-4 and 5-9
        rates = gens[4] - np.diag(np.diag(gens[4]))
        rates[:5, 5:] = rates[5:, :5] = 0.0
        gens[4] = rates - np.diag(rates.sum(axis=0))
        with pytest.raises(RateModelError,
                           match="generator 4: stationary state not unique"):
            stationary_state(gens)

    @pytest.mark.parametrize("strain, mw_on", [(STRAIN, True),
                                               (STRAIN, False),
                                               (StrainVector(12.0, 0.0),
                                                True)])
    def test_spectrum_equals_scalar_loop(self, strain, mw_on):
        grid = np.linspace(-10.0, 10.0, 161)
        loop = []
        for nu in grid:
            g = build_rate_matrix(PARAMS, strain, RATES, laser_detuning=nu,
                                  mw_on=mw_on)
            loop.append(RATES.gamma_rad * stationary_state(g)[IDX_EXC].sum())
        spec = excitation_spectrum(PARAMS, strain, RATES, grid, mw_on=mw_on)
        assert np.array_equal(spec[:, 0], grid)
        assert np.array_equal(spec[:, 1], loop)

    def test_spectrum_error_names_the_detuning(self, monkeypatch):
        grid = np.linspace(-10.0, 10.0, 5)
        with pytest.raises(RateModelError, match=r"^at detuning -10.0 GHz: "
                                                 r"generator not finite$"):
            excitation_spectrum(PARAMS, STRAIN,
                                replace(RATES, mw_mix_rate=1e308), grid)

        def third_zero(*args, **kwargs):
            g = build_rate_matrix(*args, **kwargs)
            g[2] = 0.0
            return g

        monkeypatch.setattr(photodynamics, "build_rate_matrix", third_zero)
        with pytest.raises(RateModelError, match=r"^at detuning 0.0 GHz: "
                                                 r"stationary state not uniq"):
            excitation_spectrum(PARAMS, STRAIN, RATES, grid)

    def test_build_names_a_non_finite_profile(self):
        line = strong_lines()[0]
        grid = np.array([line.detuning - 1.0, line.detuning,
                         line.detuning + 1.0])
        with pytest.raises(RateModelError,
                           match=f"not finite at detuning {line.detuning}"):
            # the squared half-width underflows to 0
            build_rate_matrix(PARAMS, STRAIN, replace(RATES, linewidth=1e-200),
                              laser_detuning=grid)


class TestExpm:
    def test_matches_scipy_on_rate_generators(self):
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(7)
        for scale in (1e-3, 1.0, 10.0, 1e3, 1e6):
            for g in rate_generators(rng, 8):
                a = g * (scale / np.linalg.norm(g, 1))   # t * ||G||_1
                e = expm(a)
                assert np.max(np.abs(e - scipy_expm(a))) < 1e-10
                assert np.max(np.abs(e.sum(axis=0) - 1.0)) < 1e-10

    def test_matches_scipy_on_model_propagators(self):
        from scipy.linalg import expm as scipy_expm

        for kwargs, ns in (({"green_on": True}, 3000.0), ({}, 2000.0),
                           ({"laser_detuning": 4.0, "mw_on": True}, 1000.0)):
            a = build_rate_matrix(PARAMS, STRAIN, RATES, **kwargs) * ns
            assert np.max(np.abs(expm(a) - scipy_expm(a))) < 1e-12

    def test_zero_and_non_finite(self):
        assert np.max(np.abs(expm(np.zeros((3, 3))) - np.eye(3))) < 1e-15
        assert np.all(np.isnan(expm(np.array([[np.inf, 0.0],
                                               [0.0, 1.0]]))))


class TestPolarization:
    def test_green_pumping_polarizes_into_sz(self):
        pop = polarize(PARAMS, STRAIN, RATES)
        assert pop[IDX_GSZ] >= 0.8

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND, polarize: the green pulse and the dark settle "
        "both run the resonant laser at detuning 0, build_rate_matrix's "
        "default"))
    def test_dark_settle_drives_no_optical_line(self, monkeypatch):
        generators = []
        monkeypatch.setattr(photodynamics, "propagate",
                            lambda pop, g, t: generators.append(g)
                            or propagate(pop, g, t))
        polarize(PARAMS, STRAIN, RATES)
        # no rate from a ground level into an excited one
        assert not generators[1][IDX_EXC, :3].any()

    def test_spin_blind_rates_leave_uniform(self):
        blind = replace(RATES, k_isc_z=RATES.k_isc_xy, beta_z=1.0 / 3.0,
                        pump_res_max=0.0)
        g = build_rate_matrix(PARAMS, STRAIN, blind, green_on=True)
        pop = propagate(uniform_ground(), g, 200000.0)
        ground = pop[:3] / pop[:3].sum()
        assert np.max(np.abs(ground - 1.0 / 3.0)) < 1e-6


class TestSpectrum:
    def test_peaks_at_line_positions(self):
        lines = strong_lines()
        grid = np.linspace(-8.0, 8.0, 1601)
        spec = excitation_spectrum(PARAMS, STRAIN, RATES, grid, mw_on=True)
        pl = spec[:, 1]
        base = np.median(pl)
        for ln in lines:
            if not (grid[0] < ln.detuning < grid[-1]):
                continue
            k = np.argmin(np.abs(grid - ln.detuning))
            assert pl[k] > 3.0 * base

    def test_weak_pump_linearity(self):
        lines = strong_lines()
        nus = np.unique([ln.detuning for ln in lines])
        full = excitation_spectrum(PARAMS, STRAIN, RATES, nus)[:, 1]
        half_rp = replace(RATES, pump_res_max=RATES.pump_res_max / 32.0)
        half = excitation_spectrum(PARAMS, STRAIN, half_rp, nus)[:, 1]
        quarter_rp = replace(RATES,
                             pump_res_max=RATES.pump_res_max / 64.0)
        quarter = excitation_spectrum(PARAMS, STRAIN, quarter_rp,
                                      nus)[:, 1]
        # below saturation, halving the pump halves every peak
        assert np.allclose(half / quarter, 2.0, rtol=0.02)
        assert np.all(full > half)

    def test_peak_positions_independent_of_rates(self):
        other = replace(RATES, gamma_rad=RATES.gamma_rad * 2.0,
                        k_isc_xy=RATES.k_isc_xy / 2.0)
        grid = np.linspace(3.5, 4.5, 401)
        a = excitation_spectrum(PARAMS, STRAIN, RATES, grid)[:, 1]
        b = excitation_spectrum(PARAMS, STRAIN, other, grid)[:, 1]
        assert abs(grid[np.argmax(a)] - grid[np.argmax(b)]) < \
            2 * (grid[1] - grid[0])


class TestRabi:
    def test_trace_shapes_and_positive_counts(self):
        line = max((ln for ln in strong_lines()
                    if ln.ground_sublevel == "gSz" and ln.spin_conserving),
                   key=lambda ln: ln.strength)
        taus = np.linspace(0.0, 100.0, 11)
        rows = rabi_trace(PARAMS, STRAIN, RATES, 2.0 * np.pi / 100.0,
                          line, taus)
        assert len(rows) == 11
        counts = np.array([c for _, c in rows])
        assert np.all(counts > 0.0)
        # pi pulse empties the initialized sublevel: minimum near tau=50
        assert np.argmin(counts) == 5

    def test_overflowing_propagation_is_an_error(self):
        # the squarings in expm overflow: a RateModelError, not a
        # RuntimeWarning first
        line = strong_lines()[0]
        with pytest.raises(RateModelError, match="probability conservation"):
            rabi_trace(PARAMS, STRAIN, replace(RATES, pump_res_max=1e188),
                       2.0 * np.pi / 200.0, line, [0.0, 100.0])

    def test_rejects_bad_inputs(self):
        line = strong_lines()[0]
        with pytest.raises(ValueError):
            rabi_trace(PARAMS, STRAIN, RATES, 0.0, line, [0.0, 1.0])

    @pytest.mark.parametrize("taus", [[0.0, -1.0], [-400.0, 0.0, 400.0],
                                      [-1e-300]])
    def test_rejects_negative_durations(self, taus):
        # cos^2(omega tau / 2) is even in tau, so a negative duration gave
        # the mirror image of the positive trace instead of an error
        line = strong_lines()[0]
        with pytest.raises(ValueError, match=">= 0"):
            rabi_trace(PARAMS, STRAIN, RATES, 2.0 * np.pi / 100.0, line, taus)
