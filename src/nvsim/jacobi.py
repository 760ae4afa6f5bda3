"""Dense complex Hermitian eigensolver by cyclic Jacobi rotations.

All matrices are plain numpy arrays (complex128). Target sizes are tiny
(dim <= 12), so a cyclic Jacobi sweep is used: robust, dependency-free,
and deterministic including the eigenvector phase convention.

`hermitian_eigen` has one production caller, the rate model's
`photodynamics._excited_structure`, which reaches it as
`nvsim.linalg.hermitian_eigen`; this module loads on that first access.
The frozen excitation-spectrum reference pins its rounding: with LAPACK
in its place, two far-tail values of the default spectrum (about 5e-8
against a 2.6e-3 peak) move by 2e-16, past that reference's 1e-9
relative tolerance. Even a subtraction-free (GTH) stationary solve
misses that reference in the far tail, so only a peak-relative floor
lets it go.
"""

import numpy as np

from .linalg import EigenError

MAX_SWEEPS = 100
DEFAULT_TOL = 1e-12
HERMITICITY_TOL = 1e-10
MAX_DIM = 64


class EigenSystem:
    """Sorted spectral decomposition of a Hermitian matrix.

    values : real eigenvalues, ascending
    vectors: unitary matrix whose k-th column is the eigenvector of values[k]
    """

    __slots__ = ("values", "vectors")

    def __init__(self, values, vectors):
        self.values = values
        self.vectors = vectors


def _phase_normalize(vectors):
    """Rotate each column's global phase so its first non-negligible
    component is real positive. Makes degenerate output reproducible."""
    v = vectors.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-8)
        if nz.size:
            lead = col[nz[0]]
            col *= np.conj(lead) / np.abs(lead)
    return v


def offdiag_norm(a):
    """Frobenius norm of the off-diagonal part."""
    return np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))


def hermitian_eigen(m):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Raises EigenError for non-square / non-Hermitian input (tolerance
    1e-10 relative to the largest entry) and on non-convergence after
    MAX_SWEEPS sweeps.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_DIM:
        raise EigenError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
    scale = max(np.max(np.abs(a)), 1e-300)
    herm_defect = np.max(np.abs(a - a.conj().T))
    if herm_defect > HERMITICITY_TOL * scale:
        raise EigenError(
            f"matrix not Hermitian: max|M - M^dag| = {herm_defect:.3e} "
            f"(allowed {HERMITICITY_TOL * scale:.3e})"
        )
    a = 0.5 * (a + a.conj().T)  # symmetrize round-off

    v = np.eye(n, dtype=complex)
    fro = max(np.linalg.norm(a), 1e-300)
    for _ in range(MAX_SWEEPS):
        if offdiag_norm(a) <= DEFAULT_TOL * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = a[p, q]
                if abs(z) <= 1e-300:
                    continue
                phi = z / abs(z)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs(z))
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # 2x2 unitary on the (p, q) plane annihilating a[p, q]
                j = np.array([[c, s * phi], [-s * np.conj(phi), c]])
                a[:, [p, q]] = a[:, [p, q]] @ j
                a[[p, q], :] = j.conj().T @ a[[p, q], :]
                v[:, [p, q]] = v[:, [p, q]] @ j
    else:
        raise EigenError(
            "Jacobi iteration did not converge after "
            f"{MAX_SWEEPS} sweeps; off-diagonal norm {offdiag_norm(a):.3e}"
        )

    values = np.diag(a).real
    order = np.argsort(values, kind="stable")
    return EigenSystem(values[order], _phase_normalize(v[:, order]))
