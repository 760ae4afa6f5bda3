"""Seeded benchmark inputs, generated without importing the program.

The excited-state Hamiltonian is written out here from the model's
definition (basis Ex*Sx, Ex*Sy, Ex*Sz, Ey*Sx, Ey*Sy, Ey*Sz; GHz) so that
the fit ensembles and the sweep check do not depend on the code under
test: a change that breaks the program's Hamiltonian cannot also move
the truth it is checked against.
"""

import numpy as np

TRUTH = {"lambda_z": 5.3, "lambda_perp": 0.2, "d_es": 1.42, "delta_cap": 1.55}
# c11's starting point; the fit commands read it from their config file.
FIT_START = {"lambda_z": 5.0, "d_es": 1.3, "delta_cap": 1.4}
TRANSVERSE_SO_SCALE = 0.15


def _operators():
    sx = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
    sy = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
    sz = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    lz = np.array([[0, -1j], [1j, 0]])
    vx = np.diag([1.0, -1.0]).astype(complex)
    vy = np.array([[0, 1.0], [1.0, 0]], dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    a1 = np.zeros(6, complex)
    a1[[0, 4]] = s
    a2 = np.zeros(6, complex)
    a2[3], a2[1] = s, -s
    so_perp = TRANSVERSE_SO_SCALE * (
        np.kron(vx, sx) + np.kron(vy, sy)
        + np.kron(vx, sx @ sz + sz @ sx) - np.kron(vy, sy @ sz + sz @ sy))
    spin_spin = np.kron(np.eye(2), sz @ sz) - 2.0 / 3.0 * np.eye(6)
    a2_minus_a1 = np.outer(a2, a2.conj()) - np.outer(a1, a1.conj())
    h0 = (-TRUTH["lambda_z"] * np.kron(lz, sz) + TRUTH["d_es"] * spin_spin
          + TRUTH["delta_cap"] * a2_minus_a1
          + TRUTH["lambda_perp"] * so_perp)
    return h0, np.kron(vx, np.eye(3))


H0, HD = _operators()


def excited_levels(strains):
    """Sorted excited-state energies (n, 6) at the true parameters for
    transverse strains along x (GHz)."""
    d = np.asarray(strains, dtype=float)
    return np.linalg.eigvalsh(H0[None] + d[:, None, None] * HD[None])


def fit_ensemble(rng, strains, noise, keep=slice(0, 6)):
    """Synthetic line list: per defect the true levels at its strain, a
    random offset in [-5, 5] GHz, Gaussian noise, then `keep` applied to
    the sorted six lines. Returns rows of (defect id, line)."""
    offsets = rng.uniform(-5.0, 5.0, len(strains))
    lines = excited_levels(strains) + offsets[:, None]
    if noise > 0:
        lines = lines + rng.normal(0.0, noise, lines.shape)
    lines = np.sort(lines, axis=1)[:, keep]
    return [(f"nv{i + 1:03d}", x) for i, row in enumerate(lines) for x in row]


def write_fit_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("defect_id,line_ghz\n")
        fh.writelines(f"{d},{x:.9f}\n" for d, x in rows)


def write_config(path, values):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())
