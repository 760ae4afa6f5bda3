"""Tests for the excited-state Hamiltonian construction."""

from dataclasses import replace

import numpy as np
import pytest

from nvsim.linalg import hermitian_eigen
from nvsim.model import (GPA_TO_GHZ, FineStructureParams, StrainVector,
                         build_excited_hamiltonian, ground_levels,
                         symmetry_states, zero_strain_levels)

DEFAULTS = FineStructureParams()
DECOUPLED = replace(DEFAULTS, lambda_perp=0.0)
LABELS = ["E1", "E2", "E'x", "E'y", "A1", "A2"]
# a per-level argmax over the symmetry states labels two of these levels
# A1 and none E'y
SHARED_ARGMAX = FineStructureParams(
    lambda_z=1.6131365190189433, lambda_perp=0.5374671513261948,
    d_es=1.0756563538067068, delta_cap=2.669178381874575)


def argmax_labels(params):
    """Each level's label by its own largest symmetry overlap, which may
    give one label twice."""
    _, vectors = np.linalg.eigh(
        build_excited_hamiltonian(params, StrainVector()))
    refs = np.array(list(symmetry_states().values()))
    best = np.abs(refs.conj() @ vectors).argmax(axis=0)
    return [LABELS[k] for k in best]


def closed_form_levels(params):
    """{label: energy} at lambda_perp = 0, where each symmetry state is an
    eigenvector."""
    base = params.zpl_offset + params.delta_z
    e_pair = base - params.lambda_z + params.d_es / 3.0
    eprime = base - 2.0 * params.d_es / 3.0
    a = base + params.lambda_z + params.d_es / 3.0
    return {"E1": e_pair, "E2": e_pair, "E'x": eprime, "E'y": eprime,
            "A1": a - params.delta_cap, "A2": a + params.delta_cap}


def random_params(rng, lambda_perp_max):
    return FineStructureParams(
        lambda_z=rng.uniform(0.5, 10.0),
        lambda_perp=rng.uniform(0.0, lambda_perp_max),
        d_es=rng.uniform(0.1, 3.0), delta_cap=rng.uniform(0.1, 3.0))


class TestParams:
    def test_defaults(self):
        assert DEFAULTS.lambda_z == 5.3
        assert DEFAULTS.d_es == 1.42
        assert DEFAULTS.delta_cap == 1.55
        assert DEFAULTS.d_gs == 2.88

    def test_rejects_nonpositive_dgs(self):
        with pytest.raises(ValueError):
            FineStructureParams(d_gs=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FineStructureParams(lambda_z=np.nan)

    def test_rejects_negative_lambda_perp(self):
        with pytest.raises(ValueError):
            FineStructureParams(lambda_perp=-0.1)

    @pytest.mark.parametrize("make", [
        lambda: StrainVector(2e6, 0.0), lambda: StrainVector(0.0, -np.inf),
        lambda: FineStructureParams(lambda_z=1e200),
        lambda: FineStructureParams(zpl_offset=-1e300)],
        ids=["strain", "strain-inf", "lambda_z", "zpl_offset"])
    def test_rejects_values_beyond_the_limit(self, make):
        # float64 cancellation swamps the fine structure far beyond 1e6 GHz
        with pytest.raises(ValueError, match=r"finite and within \+-1e\+06 "
                                              "GHz"):
            make()

    def test_values_at_the_limit_accepted(self):
        assert StrainVector(-1e6, 1e6).delta_x == -1e6
        assert FineStructureParams(d_gs=1e6).d_gs == 1e6

    def test_strain_norm(self):
        sv = StrainVector(3.0, 4.0)
        assert sv.delta_perp == 5.0

    def test_gpa_conversion_constant(self):
        assert GPA_TO_GHZ == 1.0e3


class TestHamiltonian:
    def test_hermitian(self):
        h = build_excited_hamiltonian(DEFAULTS, StrainVector(7.0, -2.0))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_trace_is_six_times_shift(self):
        p = replace(DEFAULTS, zpl_offset=1.3, delta_z=-0.4)
        h = build_excited_hamiltonian(p, StrainVector(5.0, 1.0))
        assert abs(np.trace(h).real - 6.0 * (1.3 - 0.4)) < 1e-10

    def test_zero_strain_analytic_spectrum(self):
        values = hermitian_eigen(
            build_excited_hamiltonian(DECOUPLED, StrainVector())).values
        lz, des, dc = 5.3, 1.42, 1.55
        expected = np.sort([-lz + des / 3.0, -lz + des / 3.0,
                            -2.0 * des / 3.0, -2.0 * des / 3.0,
                            lz + des / 3.0 - dc, lz + des / 3.0 + dc])
        assert np.max(np.abs(values - expected)) <= 1e-9

    def test_a1_a2_on_top(self):
        levels = zero_strain_levels(DECOUPLED)
        assert [lab for _, lab in levels[-2:]] == ["A1", "A2"]
        assert levels[-1][0] - levels[-2][0] == pytest.approx(3.10)

    def test_strain_direction_invariance_decoupled(self):
        rng = np.random.default_rng(11)
        base = hermitian_eigen(build_excited_hamiltonian(
            DECOUPLED, StrainVector(6.0, 0.0))).values
        for _ in range(25):
            phi = rng.uniform(0.0, 2.0 * np.pi)
            vals = hermitian_eigen(build_excited_hamiltonian(
                DECOUPLED,
                StrainVector(6.0 * np.cos(phi), 6.0 * np.sin(phi)))).values
            assert np.max(np.abs(vals - base)) <= 1e-9

    def test_ms0_sector_decouples_without_transverse_so(self):
        h = build_excited_hamiltonian(DECOUPLED, StrainVector(4.0, 3.0))
        ms0 = [2, 5]
        rest = [0, 1, 3, 4]
        assert np.max(np.abs(h[np.ix_(ms0, rest)])) < 1e-12

    def test_axial_strain_is_rigid_shift(self):
        a = hermitian_eigen(build_excited_hamiltonian(
            DEFAULTS, StrainVector(2.0, 0.0))).values
        b = hermitian_eigen(build_excited_hamiltonian(
            replace(DEFAULTS, delta_z=0.7),
            StrainVector(2.0, 0.0))).values
        assert np.allclose(b - a, 0.7, atol=1e-10)

    def test_e_es_term_splits_ms1_diagonal(self):
        p = replace(DECOUPLED, lambda_z=0.0, d_es=0.0, delta_cap=0.0,
                    e_es_coeff=0.5)
        h = build_excited_hamiltonian(p, StrainVector(0.0, 0.0))
        assert np.allclose(h, 0.0)
        # only the norm of the strain enters the extra diagonal
        h = build_excited_hamiltonian(p, StrainVector(0.0, 2.0))
        assert h[0, 0].real == pytest.approx(-1.0)
        assert h[1, 1].real == pytest.approx(1.0)
        assert h[2, 2].real == pytest.approx(0.0)


class TestGroundAndLabels:
    def test_ground_levels(self):
        gz, gx, gy = ground_levels(DEFAULTS)
        assert gx == gy
        assert gx - gz == pytest.approx(2.88)
        assert gz + gx + gy == pytest.approx(0.0)

    def test_symmetry_states_orthonormal(self):
        refs = list(symmetry_states().values())
        g = np.array([[np.vdot(a, b) for b in refs] for a in refs])
        assert np.allclose(g, np.eye(6), atol=1e-12)

    def test_zero_strain_labels_with_coupling(self):
        # all six labels at the default, coupled parameters
        labels = {lab for _, lab in zero_strain_levels(DEFAULTS)}
        assert labels == {"E1", "E2", "E'x", "E'y", "A1", "A2"}

    def test_labels_one_to_one_where_argmax_repeats_one(self):
        assert sorted(argmax_labels(SHARED_ARGMAX)) != sorted(LABELS)
        levels = zero_strain_levels(SHARED_ARGMAX)
        assert sorted(lab for _, lab in levels) == sorted(LABELS)
        e = {lab: en for en, lab in levels}
        assert e["A2"] - e["A1"] == pytest.approx(5.45018338, abs=1e-8)

    def test_labels_are_a_permutation_equal_to_a_distinct_argmax(self):
        rng = np.random.default_rng(1)
        repeated = 0
        for _ in range(2000):
            params = random_params(rng, 2.0)
            levels = zero_strain_levels(params)
            labels = [lab for _, lab in levels]
            assert sorted(labels) == sorted(LABELS), params
            assert [en for en, _ in levels] == sorted(en for en, _ in levels)
            oracle = argmax_labels(params)
            if len(set(oracle)) == 6:
                assert labels == oracle, params
            else:
                repeated += 1
        # the draws reach the parameters where the argmax repeats a label
        assert repeated > 0

    def test_decoupled_levels_match_the_closed_form(self):
        rng = np.random.default_rng(2)
        for params in [DECOUPLED] + [random_params(rng, 0.0)
                                     for _ in range(500)]:
            want = closed_form_levels(params)
            levels = zero_strain_levels(params)
            assert sorted(lab for _, lab in levels) == sorted(LABELS)
            for en, lab in levels:
                assert en == pytest.approx(want[lab], abs=1e-12), params
