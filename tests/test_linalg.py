"""Tests for the dense complex Hermitian eigensolver."""

import numpy as np
import pytest

from nvsim.linalg import EigenError, hermitian_eigen, offdiag_norm


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class TestHermitianEigen:
    def test_diagonal_matrix(self):
        d = np.diag([3.0, -1.0, 2.0]).astype(complex)
        es = hermitian_eigen(d)
        assert np.allclose(es.values, [-1.0, 2.0, 3.0])

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            es = hermitian_eigen(random_hermitian(rng, 6))
            assert np.all(np.diff(es.values) >= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_hermitian(rng, 6)
            es = hermitian_eigen(m)
            v = es.vectors
            recon = v @ np.diag(es.values) @ v.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10

    def test_3x3_characteristic_polynomial_oracle(self):
        # independent eigenvalue computation: roots of det(M - x I)
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_hermitian(rng, 3)
            es = hermitian_eigen(m)
            c2 = -np.trace(m).real
            c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
            c0 = -np.linalg.det(m).real
            roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
            assert np.max(np.abs(es.values - roots)) <= 1e-9

    def test_trace_invariance(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 8)
        es = hermitian_eigen(m)
        assert abs(es.values.sum() - np.trace(m).real) < 1e-10

    def test_deterministic_phase(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        a = hermitian_eigen(m)
        b = hermitian_eigen(m)
        assert np.array_equal(a.vectors, b.vectors)

    def test_degenerate_spectrum(self):
        m = np.diag([1.0, 1.0, 2.0]).astype(complex)
        es = hermitian_eigen(m)
        assert np.allclose(es.values, [1.0, 1.0, 2.0])
        assert np.max(np.abs(es.vectors.conj().T @ es.vectors
                             - np.eye(3))) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(EigenError):
            hermitian_eigen(m)

    def test_rejects_non_square(self):
        with pytest.raises(EigenError):
            hermitian_eigen(np.zeros((2, 3), dtype=complex))

    def test_rejects_oversized(self):
        with pytest.raises(EigenError):
            hermitian_eigen(np.eye(65, dtype=complex))


class TestHelpers:
    def test_offdiag_norm_diagonal_is_zero(self):
        assert offdiag_norm(np.diag([1.0, 2.0]).astype(complex)) == 0.0
