"""Tests for the excited-state Hamiltonian construction."""

import numpy as np
import pytest

from nvsim.fitting import ObservedDefect
from nvsim.linalg import eigensolve
from nvsim.model import (PARAMETER_TERMS, STRAIN_X, STRAIN_Y,
                         TRANSVERSE_SO_SCALE, FineStructureParams,
                         RateParams, StrainVector, build_excited_hamiltonian,
                         ground_levels, symmetry_states, zero_strain_levels)
from nvsim.motional import ExchangeModel, TemperatureMap

DEFAULTS = FineStructureParams()
DECOUPLED = DEFAULTS._replace(lambda_perp=0.0)
LABELS = ["E1", "E2", "E'x", "E'y", "A1", "A2"]
# a per-level argmax over the symmetry states labels two of these levels
# A1 and none E'y
SHARED_ARGMAX = FineStructureParams(
    lambda_z=1.6131365190189433, lambda_perp=0.5374671513261948,
    d_es=1.0756563538067068, delta_cap=2.669178381874575)
# each record with a field check: a valid record, a field and a value its
# check rejects, and the message
VALIDATED = [
    (RateParams(), "linewidth", 0.0, "linewidth must be positive"),
    (DEFAULTS, "d_gs", 0.0, "d_gs must be positive"),
    (StrainVector(), "delta_y", np.nan, "finite and within"),
    (ObservedDefect("nv01", (1.0, 2.0)), "lines", (1.0,),
     "1 lines, need 2 to 6"),
    (ExchangeModel(2.0, 3.0), "hop_rate", -1.0, "hop_rate must be"),
    (TemperatureMap(), "r0", 0.0, "need r0 > 0")]


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
    base = params.zpl_offset
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

    @pytest.mark.parametrize("record, name, bad, message", VALIDATED,
                             ids=[type(r).__name__ for r, *_ in VALIDATED])
    def test_validated_record_checks_and_is_immutable(self, record, name,
                                                     bad, message):
        # _replace builds through _make, so it runs the check too
        with pytest.raises(ValueError, match=message):
            type(record)(**{**record._asdict(), name: bad})
        with pytest.raises(ValueError, match=message):
            record._replace(**{name: bad})
        with pytest.raises(AttributeError):
            setattr(record, name, bad)
        with pytest.raises(AttributeError):
            record.note = "no such field"
        assert record == tuple(getattr(record, f) for f in record._fields)


class TestHamiltonian:
    def test_hermitian(self):
        h = build_excited_hamiltonian(DEFAULTS, StrainVector(7.0, -2.0))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_trace_is_six_times_shift(self):
        p = DEFAULTS._replace(zpl_offset=0.9)
        h = build_excited_hamiltonian(p, StrainVector(5.0, 1.0))
        assert abs(np.trace(h).real - 6.0 * 0.9) < 1e-10

    def test_zero_strain_analytic_spectrum(self):
        values, _ = eigensolve(
            build_excited_hamiltonian(DECOUPLED, StrainVector()))
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
        base, _ = eigensolve(build_excited_hamiltonian(
            DECOUPLED, StrainVector(6.0, 0.0)))
        for _ in range(25):
            phi = rng.uniform(0.0, 2.0 * np.pi)
            vals, _ = eigensolve(build_excited_hamiltonian(
                DECOUPLED,
                StrainVector(6.0 * np.cos(phi), 6.0 * np.sin(phi))))
            assert np.max(np.abs(vals - base)) <= 1e-9

    def test_ms0_sector_decouples_without_transverse_so(self):
        h = build_excited_hamiltonian(DECOUPLED, StrainVector(4.0, 3.0))
        ms0 = [2, 5]
        rest = [0, 1, 3, 4]
        assert np.max(np.abs(h[np.ix_(ms0, rest)])) < 1e-12

    def test_axial_strain_is_rigid_shift(self):
        # an axial strain moves all six levels alike: it enters through
        # zpl_offset, which has no other effect
        a, _ = eigensolve(build_excited_hamiltonian(
            DEFAULTS, StrainVector(2.0, 0.0)))
        b, _ = eigensolve(build_excited_hamiltonian(
            DEFAULTS._replace(zpl_offset=0.7), StrainVector(2.0, 0.0)))
        assert np.allclose(b - a, 0.7, atol=1e-10)

    def test_e_es_term_splits_ms1_diagonal(self):
        p = DECOUPLED._replace(lambda_z=0.0, d_es=0.0, delta_cap=0.0,
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


def c3v_operations():
    """The 120 degree rotation C3 about the NV axis and the mirror sigma_v
    (y -> -y) in the product basis: the orbitals (Ex, Ey) transform as
    (x, y), the spin states (Sx, Sy, Sz) as an axial vector (a mirror
    also flips its sign)."""
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    c3 = np.kron([[c, -s], [s, c]], [[c, -s, 0.0], [s, c, 0.0],
                                     [0.0, 0.0, 1.0]])
    sigma_v = np.kron(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]))
    return {"C3": c3, "sigma_v": sigma_v}


OPS = c3v_operations()
# the spin-1 matrices (S_k)_ij = -i eps_kij and the orbital strain
# couplings, stated independently of the model
LEVI = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI[i, j, k], LEVI[i, k, j] = 1.0, -1.0
SPIN = -1j * LEVI
VX, VY = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])


def transformed(op, name):
    r = OPS[name]
    return r @ op @ r.T


class TestSymmetry:
    """The model's terms under C3v. The axial terms are invariant and the
    strain pair transforms as E; one piece of the lambda_perp operator is
    not C3v-invariant, and the second anticrossing depends on it."""

    @pytest.mark.parametrize("name", list(OPS))
    @pytest.mark.parametrize("term", ["lambda_z", "d_es", "delta_cap"])
    def test_axial_terms_are_invariant(self, term, name):
        op = PARAMETER_TERMS[term]
        assert np.abs(transformed(op, name) - op).max() <= 1e-15

    @pytest.mark.parametrize("name, character", [("C3", -1.0),
                                                 ("sigma_v", 0.0)])
    def test_strain_pair_transforms_as_e(self, name, character):
        pair = np.stack([STRAIN_X.ravel(), STRAIN_Y.ravel()], axis=1)
        images = np.stack([transformed(STRAIN_X, name).ravel(),
                           transformed(STRAIN_Y, name).ravel()], axis=1)
        # the images lie in the pair's span, by an orthogonal 2x2 matrix
        # whose trace is E's character
        rep = np.linalg.lstsq(pair, images, rcond=None)[0].real
        assert np.abs(pair @ rep - images).max() <= 1e-15
        assert np.abs(rep.T @ rep - np.eye(2)).max() <= 1e-15
        assert np.trace(rep) == pytest.approx(character, abs=1e-15)

    def test_transverse_spin_orbit_departure(self):
        sx, sy, sz = SPIN
        first = TRANSVERSE_SO_SCALE * (np.kron(VX, sx) + np.kron(VY, sy))
        second = TRANSVERSE_SO_SCALE * (np.kron(VX, sx @ sz + sz @ sx)
                                        - np.kron(VY, sy @ sz + sz @ sy))
        assert np.abs(first + second
                      - PARAMETER_TERMS["lambda_perp"]).max() <= 1e-15
        for name in OPS:
            assert np.abs(transformed(second, name) - second).max() <= 1e-15
        # the first piece is odd under sigma_v and not invariant under C3
        assert np.abs(transformed(first, "sigma_v") + first).max() <= 1e-15
        assert np.abs(transformed(first, "C3") - first).max() == \
            pytest.approx(0.225, abs=1e-12)

    def test_second_anticrossing_needs_the_odd_piece(self):
        # along x the strain keeps sigma_v, so without the sigma_v-odd
        # piece the two lowest levels near 15.50 GHz lie in different
        # parity blocks and cross; the 7.31 GHz gap does not need it
        op = PARAMETER_TERMS["lambda_perp"]
        odd = (op - transformed(op, "sigma_v")) / 2.0
        h0 = build_excited_hamiltonian(DEFAULTS, StrainVector())
        even_h0 = h0 - DEFAULTS.lambda_perp * odd
        sigma_v = OPS["sigma_v"]
        assert np.abs(sigma_v @ (even_h0 + 15.5 * STRAIN_X) @ sigma_v.T
                      - (even_h0 + 15.5 * STRAIN_X)).max() <= 1e-14

        def min_gap(h, lo, hi, rank):
            deltas = np.linspace(lo, hi, 2001)[:, None, None]
            values = np.linalg.eigvalsh(h + deltas * STRAIN_X)
            return (values[:, rank + 1] - values[:, rank]).min()

        assert min_gap(h0, 15.4, 15.6, 0) == pytest.approx(0.0509, abs=1e-4)
        assert min_gap(even_h0, 15.4, 15.6, 0) < 2e-6
        assert min_gap(h0, 7.2, 7.4, 1) == pytest.approx(0.0768, abs=1e-4)
        assert min_gap(even_h0, 7.2, 7.4, 1) == pytest.approx(0.0768,
                                                              abs=1e-4)
