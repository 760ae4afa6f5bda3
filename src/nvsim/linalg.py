"""The one checked, counted LAPACK eigensolve.

`eigensolve` is the only place nvsim calls LAPACK's symmetric
eigensolvers. It serves any stack of real-symmetric or complex-Hermitian
matrices, checks every member's eigenvalues against the trace identity
and counts what it solves in `eigensolve_counts`. Every spectrum in
nvsim, the rate model's included, goes through it.

`hermitian_eigen` is the public single-matrix entry point: it checks its
input, diagonalises through `eigensolve` and fixes each eigenvector's
phase. No command calls it.
"""

import math

import numpy as np

# The trace check's constant C (see `eigensolve`). On the model's
# Hamiltonians the largest |sum(lambda) - tr H| / (eps max|lambda|)
# measured is 21.7 on 1000 seeded draws x 801 strains, every parameter and
# the strain range log-uniform up to the accepted 1e6 GHz (both routines,
# real and complex stacks), and 22.4 over the tests.
TRACE_ULPS = 64
_TOL = TRACE_ULPS * np.finfo(float).eps
_TINY = np.finfo(float).tiny
HERMITICITY_TOL = 1e-10
MAX_DIM = 64

# What `eigensolve` has served in this process: the calls and the
# matrices they solved. A reader counts a stretch of work by difference.
eigensolve_counts = {"calls": 0, "matrices": 0}


class EigenError(ArithmeticError):
    """Raised on invalid eigensolver input or non-convergence."""


def eigensolve(h, vectors=True):
    """LAPACK spectrum of each member of a stack h (..., n, n) of
    real-symmetric or complex-Hermitian matrices: what `np.linalg.eigh`
    returns, or `np.linalg.eigvalsh` with vectors=False. The two round
    differently in the last bits, so each caller keeps its routine.

    Each member is checked against the trace identity
    |sum_i (lambda_i - H_ii)| < C eps max|lambda| + tiny: C = TRACE_ULPS,
    eps the float64 epsilon, max|lambda| = ||H||_2 the member's spectral
    norm, in which LAPACK's backward error is bounded, and tiny the
    smallest normal float (the floor under subnormal rounding). A
    backward-stable solver misses it by a small multiple of eps ||H||_2;
    a NaN, an infinite or a corrupted eigenvalue fails it, raising an
    EigenError that names the first failing member by its flat index.
    LAPACK's own LinAlgError passes through. Each call adds 1 to
    eigensolve_counts["calls"] and h's member count to ["matrices"]."""
    out = np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    values = out[0] if vectors else out
    eigensolve_counts["calls"] += 1
    eigensolve_counts["matrices"] += math.prod(h.shape[:-2])
    err = abs((values - h.diagonal(0, -2, -1).real).sum(-1))
    # ||H||_2 = max(lambda_n, -lambda_1), LAPACK's values being ascending
    scale = (np.maximum(values[..., -1], -values[..., 0])
             if values.shape[-1] else 0.0)
    bound = _TOL * scale + _TINY
    ok = err < bound            # False on NaN and on inf
    if not ok.all():
        k = int(ok.argmin())
        raise EigenError(
            f"eigenvalues of member {k} of {ok.size} fail the trace "
            f"identity: |sum - trace| = {err.flat[k]:.3e} >= "
            f"{bound.flat[k]:.3e}")
    return out


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


def hermitian_eigen(m):
    """EigenSystem of one Hermitian matrix, from `eigensolve` of its
    symmetrised copy, each eigenvector's phase fixed by _phase_normalize.

    Raises EigenError for non-square input, a dimension above MAX_DIM or
    a matrix that is not Hermitian (tolerance HERMITICITY_TOL relative to
    the largest entry), and where `eigensolve` does.
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
    values, vectors = eigensolve(0.5 * (a + a.conj().T))
    return EigenSystem(values, _phase_normalize(vectors))
