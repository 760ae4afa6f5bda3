"""Seeded property tests of the numerics: the rate model's generators and
stationary states, the strain core's eigendecompositions in the real
gauge, and the config dump/reload round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsim.config import Config, parse_config
from nvsim.model import (GAUGE, FineStructureParams, RateParams,
                         StrainVector, build_excited_hamiltonian)
from nvsim.photodynamics import (RateModelError, build_rate_matrix,
                                 excited_structure, stationary_state)
from nvsim.sweep import strain_family, strain_hamiltonians

SEEDED = settings(derandomize=True, database=None, max_examples=100,
                  deadline=None)

LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# zero is drawn often enough as the bound of the range
RATES = st.floats(0.0, 10.0)


@st.composite
def rate_params(draw):
    """RateParams anywhere in its validated ranges (bounded rates)."""
    k_isc_xy = draw(RATES)
    return RateParams(
        gamma_rad=draw(RATES), k_isc_xy=k_isc_xy,
        k_isc_z=draw(st.floats(0.0, 1.0)) * k_isc_xy,
        gamma_singlet=draw(RATES), beta_z=draw(st.floats(0.0, 1.0)),
        pump_green=draw(RATES), pump_res_max=draw(RATES),
        linewidth=draw(st.floats(1e-3, 1.0)), mw_mix_rate=draw(RATES))


@st.composite
def fine_structure(draw):
    return FineStructureParams(
        lambda_z=draw(st.floats(0.5, 15.0)),
        lambda_perp=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        d_es=draw(st.floats(0.1, 5.0)),
        delta_cap=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        e_es_coeff=draw(st.floats(-0.5, 0.5)),
        zpl_offset=draw(st.floats(-3.0, 3.0)))


class TestRateModel:
    @SEEDED
    @given(rp=rate_params(), strain=st.floats(0.0, 30.0),
           detunings=st.lists(st.floats(-1e3, 1e3), min_size=1,
                              max_size=50),
           mw_on=st.booleans(), green_on=st.booleans())
    def test_generators_and_stationary_states(self, rp, strain, detunings,
                                              mw_on, green_on):
        structure = excited_structure(FineStructureParams(),
                                      StrainVector(strain, 0.0))
        stack = build_rate_matrix(structure, rp, laser_detuning=detunings,
                                  mw_on=mw_on, green_on=green_on)
        assert stack.shape == (len(detunings), 10, 10)
        scale = np.abs(stack).max()
        assert np.abs(stack.sum(axis=1)).max() <= 1e-12 * scale
        for d, g in zip(detunings, stack):
            single = build_rate_matrix(structure, rp, laser_detuning=d,
                                       mw_on=mw_on, green_on=green_on)
            assert np.array_equal(single, g)
        try:
            p = stationary_state(stack)
        except RateModelError as err:
            assert 0 <= err.index < len(detunings)
            assert str(err).startswith(f"generator {err.index}: ")
            return
        assert p.shape == (len(detunings), 10)
        assert np.all(p >= 0.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(np.einsum("nij,nj->ni", stack, p)).max() <= 1e-8


class TestStrainCore:
    @SEEDED
    @given(params=fine_structure(),
           deltas=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=20))
    def test_eigenvectors_rebuild_and_diagonalise(self, params, deltas):
        h = strain_hamiltonians(strain_family(params), deltas)
        values, vectors = np.linalg.eigh(h)
        for delta, hk, e, v in zip(deltas, h, values, vectors):
            scale = np.abs(hk).max()
            assert np.abs(v * e @ v.T - hk).max() <= 1e-12 * scale
            # D V diagonalises the Hamiltonian in the physical basis
            dv = GAUGE[:, None] * v
            full = build_excited_hamiltonian(params, StrainVector(delta, 0.0))
            assert np.abs(dv.conj().T @ full @ dv - np.diag(e)).max() \
                <= 1e-12 * scale


def _values(default):
    if isinstance(default, int):
        return st.integers(-10 ** 6, 10 ** 6)
    if isinstance(default, float):
        return st.floats(allow_nan=True, allow_infinity=True)
    # a config line ends at any str.splitlines boundary, '#' starts a
    # comment and the value is stripped: a path is any text without those
    return st.text(st.characters(blacklist_characters=LINE_BREAKS + "#",
                                 blacklist_categories=("Cs",)),
                   min_size=1).map(str.strip).filter(bool)


@st.composite
def configs(draw):
    values = {k: draw(_values(v)) if draw(st.booleans()) else v
              for k, v in Config().values.items()}
    return Config(values)


class TestConfigRoundTrip:
    @SEEDED
    @given(cfg=configs())
    def test_dump_reloads_every_value(self, cfg):
        back = parse_config(cfg.dump())
        assert back.values.keys() == cfg.values.keys()
        for key, value in cfg.values.items():
            assert type(back[key]) is type(value)
            # repr tells nan and -0.0 apart, and a float's repr reloads it
            # exactly
            assert repr(back[key]) == repr(value), key
