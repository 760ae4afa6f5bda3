"""Tests for the two-site exchange lineshape and temperature map."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsim.model import MAX_STRAIN_GHZ, FineStructureParams
from nvsim.motional import (BranchError, ExchangeModel, TemperatureMap,
                            branch_esr_frequencies,
                            esr_contrast_vs_temperature,
                            exchange_lineshape)

PARAMS = FineStructureParams()

SEEDED = settings(derandomize=True, database=None, max_examples=100,
                  deadline=None)

# every positive finite float, subnormals included
TEMPERATURES = st.floats(0.0, exclude_min=True, allow_infinity=False,
                         allow_subnormal=True)


def model(hop):
    return ExchangeModel(freq_a=1.7, freq_b=1.1, linewidth_0=0.1,
                         hop_rate=hop)


class TestExchangeModel:
    def test_mean_frequency(self):
        assert model(0.0).mean_frequency == pytest.approx(1.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExchangeModel(freq_a=-1.0, freq_b=1.0)
        with pytest.raises(ValueError):
            ExchangeModel(freq_a=1.0, freq_b=1.0, hop_rate=-0.1)

    @pytest.mark.parametrize("width", [0.0, -0.02])
    def test_rejects_nonpositive_linewidth(self, width):
        with pytest.raises(ValueError, match="linewidth_0"):
            ExchangeModel(freq_a=1.7, freq_b=1.1, linewidth_0=width)

    @pytest.mark.parametrize("name", ["freq_a", "linewidth_0", "hop_rate"])
    def test_rejects_non_finite(self, name):
        kwargs = {"freq_a": 1.7, "freq_b": 1.1, name: np.nan}
        with pytest.raises(ValueError, match="finite"):
            ExchangeModel(**kwargs)


class TestLineshape:
    GRID = np.linspace(0.2, 2.6, 4801)

    def test_slow_limit_two_peaks(self):
        shape = exchange_lineshape(model(0.0), self.GRID)
        peaks = self.GRID[1:-1][
            (shape[1:-1] > shape[:-2]) & (shape[1:-1] > shape[2:])]
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(1.1, abs=0.01)
        assert peaks[1] == pytest.approx(1.7, abs=0.01)

    def test_fast_limit_single_peak_at_mean(self):
        shape = exchange_lineshape(model(1e4), self.GRID)
        peaks = self.GRID[1:-1][
            (shape[1:-1] > shape[:-2]) & (shape[1:-1] > shape[2:])]
        assert len(peaks) == 1
        assert peaks[0] == pytest.approx(1.4, abs=0.02)

    def test_area_conserved_across_hop_rates(self):
        areas = []
        for hop in (0.0, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3):
            shape = exchange_lineshape(model(hop), self.GRID)
            areas.append(np.trapezoid(shape, self.GRID))
        areas = np.array(areas)
        assert np.max(np.abs(areas / areas[0] - 1.0)) < 0.01

    def test_intensity_nonnegative(self):
        for hop in (0.0, 0.5, 50.0):
            assert np.min(exchange_lineshape(model(hop), self.GRID)) >= 0.0

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            exchange_lineshape(model(0.0), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="finite"):
            exchange_lineshape(model(0.0), np.array([1.0, bad]))

    @pytest.mark.parametrize("freq, width, nu", [
        # the damping pi * linewidth_0 squares to zero (underflow) at the
        # shared branch frequency with no exchange: det = 0 exactly
        (1.0, 1e-320, 1.0),
        # (2 pi nu)^2 overflows
        (1.0, 0.1, 1e300),
    ])
    def test_singular_resolvent_raises(self, freq, width, nu):
        m = ExchangeModel(freq_a=freq, freq_b=freq, linewidth_0=width)
        with pytest.raises(ArithmeticError, match="singular or overflowed"):
            exchange_lineshape(m, np.array([nu]))

    def test_singular_resolvent_names_the_first_bad_frequency(self):
        m = ExchangeModel(freq_a=1.0, freq_b=1.0, linewidth_0=1e-320)
        with pytest.raises(ArithmeticError, match="at 1.0 GHz"):
            exchange_lineshape(m, np.array([0.5, 1.0, 1.5, 1e300]))

    @pytest.mark.parametrize("hop", [0.0, 1e-3, 1e-1, 10.0, 314.0, 1e3, 1e5])
    # symmetric hopping holds the branches at equal weights
    @pytest.mark.parametrize("weight_a", [0.5])
    def test_matches_a_per_point_resolvent(self, hop, weight_a):
        # the closed form against a complex 2x2 solve per point
        m = ExchangeModel(freq_a=1.7, freq_b=1.1, linewidth_0=0.1,
                          hop_rate=hop)
        grid = np.linspace(0.4, 2.6, 441)
        w = np.sqrt([weight_a, 1.0 - weight_a])
        kmat = hop * np.array([[1.0, -1.0], [-1.0, 1.0]])
        ref = []
        for nu in grid:
            a = 2j * np.pi * np.diag(nu - np.array([m.freq_a, m.freq_b])) \
                + kmat + np.pi * m.linewidth_0 * np.eye(2)
            ref.append((w @ np.linalg.inv(a) @ w).real / np.pi)
        np.testing.assert_allclose(exchange_lineshape(m, grid), ref,
                                   rtol=1e-9, atol=0.0)


class TestTemperatureMap:
    def test_arrhenius_monotone(self):
        tmap = TemperatureMap()
        temps = np.linspace(4.0, 320.0, 50)
        rates = [tmap.hop_rate(t) for t in temps]
        assert np.all(np.diff(rates) > 0)

    def test_rejects_nonpositive_temperature(self):
        for temperature in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                TemperatureMap().hop_rate(temperature)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_one_bad_temperature_in_an_array(self, bad):
        temps = np.linspace(4.0, 320.0, 50)
        temps[17] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            TemperatureMap().hop_rate(temps)

    def test_array_matches_scalars(self):
        tmap, temps = TemperatureMap(), np.linspace(2.0, 900.0, 300)
        assert tmap.hop_rate(temps).tolist() \
            == [tmap.hop_rate(t) for t in temps.tolist()]

    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_vanishes_near_zero_kelvin_without_a_warning(self, temperature):
        # the exponent overflows (1e-320 K) or divides by a kB T that
        # underflows to 0 (5e-324 K); exp(-inf) = 0 is the limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TemperatureMap().hop_rate(temperature) == 0.0

    @pytest.mark.parametrize("temperature", [5e-324, 1e-320, 1.0, 1e300])
    def test_without_activation_the_rate_is_r0(self, temperature):
        # ea = 0 at a kB T that underflows to 0 divided 0 by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert TemperatureMap(r0=2.5, ea=0.0).hop_rate(temperature) \
                == 2.5
            assert TemperatureMap(r0=2.5, ea=0.0).hop_rate(
                [temperature, 300.0]).tolist() == [2.5, 2.5]

    @SEEDED
    @given(r0=st.floats(0.0, 1e6, exclude_min=True),
           ea=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           temps=st.lists(TEMPERATURES, min_size=2, max_size=2))
    def test_rate_and_contrast_are_bounded_and_monotone(self, r0, ea, temps):
        # no warning either: the suite turns every warning into an error
        tmap, temps = TemperatureMap(r0=r0, ea=ea), sorted(temps)
        rates = tmap.hop_rate(temps)
        assert np.all(np.isfinite(rates))
        assert np.all((0.0 <= rates) & (rates <= r0))
        assert rates[0] <= rates[1]
        assert [float(tmap.hop_rate(t)) for t in temps] == rates.tolist()
        contrast = [c for _, c in esr_contrast_vs_temperature(
            tmap, PARAMS, 20.0, temps)]
        assert all(0.0 < c <= 1.0 for c in contrast)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemperatureMap(r0=0.0)

    @pytest.mark.parametrize("kwargs", [{"r0": np.nan}, {"r0": np.inf},
                                        {"ea": np.nan}])
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            TemperatureMap(**kwargs)


class TestBranchFrequencies:
    def test_large_strain_frequencies_near_d_es(self):
        fa, fb, sa, sb = branch_esr_frequencies(PARAMS, 500.0)
        assert fa == pytest.approx(1.42, abs=0.1)
        assert fb == pytest.approx(1.42, abs=0.1)
        assert sa == pytest.approx(1.55, abs=0.15)
        assert sb == pytest.approx(1.55, abs=0.15)

    def test_strain_limit(self):
        # the limit of every other strain input, MAX_STRAIN_GHZ
        fa, fb, _, _ = branch_esr_frequencies(PARAMS, MAX_STRAIN_GHZ)
        assert fa == pytest.approx(1.42, abs=0.1)
        assert fb == pytest.approx(1.42, abs=0.1)
        for strain in (2e6, -2e6, 1e300, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and within"):
                branch_esr_frequencies(PARAMS, strain)
        with pytest.raises(ValueError, match="finite and within"):
            esr_contrast_vs_temperature(TemperatureMap(), PARAMS, 2e6,
                                        [300.0])

    def test_unresolved_branches_raise(self):
        with pytest.raises(BranchError):
            branch_esr_frequencies(PARAMS, 0.3)

    @pytest.mark.parametrize("strain, cause", [
        (0.3, "orbital branches unresolved"),
        (15.52, "level anti-crossing in the Ey branch")])
    def test_unresolved_is_a_domain_error(self, strain, cause):
        # a ValueError, which the CLI reports as exit 1, not a numerical
        # failure
        with pytest.raises(BranchError, match=cause) as err:
            branch_esr_frequencies(PARAMS, strain)
        assert isinstance(err.value, ValueError)
        assert not isinstance(err.value, ArithmeticError)


class TestContrastCurve:
    def test_monotone_with_expected_endpoints(self):
        temps = np.linspace(6.0, 300.0, 40)
        rows = esr_contrast_vs_temperature(TemperatureMap(), PARAMS, 20.0,
                                           temps)
        c = np.array([x for _, x in rows])
        assert np.all(np.diff(c) >= 0)
        assert c[-1] > c[0]
        assert c[0] <= 0.1
        assert c[-1] >= 0.8

    def test_overflow_is_numerical(self):
        # gamma0 (gamma0 + 2k) overflows, as the resolvent did
        with pytest.raises(ArithmeticError, match="singular or overflowed"):
            esr_contrast_vs_temperature(TemperatureMap(), PARAMS, 20.0,
                                        [4.0, 300.0], linewidth_0=1e300)

    def test_is_the_normalized_lineshape_at_the_mean_frequency(self):
        tmap, width = TemperatureMap(), 0.5
        temps = np.linspace(2.0, 900.0, 300)
        rows = esr_contrast_vs_temperature(tmap, PARAMS, 20.0, temps,
                                           linewidth_0=width)
        fa, fb, _, _ = branch_esr_frequencies(PARAMS, 20.0)
        ref = []
        for t in temps.tolist():
            m = ExchangeModel(freq_a=fa, freq_b=fb, linewidth_0=width,
                              hop_rate=float(tmap.hop_rate(t)))
            ref.append(np.pi ** 2 * width
                       * exchange_lineshape(m, [m.mean_frequency])[0])
        assert [t for t, _ in rows] == temps.tolist()
        np.testing.assert_allclose([c for _, c in rows], ref, rtol=1e-12,
                                   atol=0.0)
