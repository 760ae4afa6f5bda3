"""The one checked, counted LAPACK eigensolve.

`eigensolve` is the only place nvsim calls LAPACK's symmetric
eigensolvers. It serves any stack of real-symmetric or complex-Hermitian
matrices, checks every member's eigenvalues against the trace identity
and counts what it solves in `eigensolve_counts`. Every spectrum in
nvsim, the rate model's included, goes through it.
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

# What `eigensolve` has served in this process: the calls and the
# matrices they solved. A reader counts a stretch of work by difference.
eigensolve_counts = {"calls": 0, "matrices": 0}


class EigenError(ArithmeticError):
    """Raised when a spectrum fails the trace identity."""


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

