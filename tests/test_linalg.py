"""Tests for the checked, counted LAPACK eigensolve."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import nvsim
from nvsim.cli import run
from nvsim.fitting import synthesize_dataset
from nvsim.linalg import (TRACE_ULPS, EigenError, eigensolve,
                          eigensolve_counts)
from nvsim.model import PARAMETER_TERMS, FineStructureParams
from nvsim.sweep import strain_family, strain_hamiltonians


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class TestHermitianEigen:
    """eigensolve on one Hermitian matrix, the solve behind every
    spectrum a command reads."""

    def test_diagonal_matrix(self):
        d = np.diag([3.0, -1.0, 2.0]).astype(complex)
        values, _ = eigensolve(d)
        assert np.allclose(values, [-1.0, 2.0, 3.0])

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values, _ = eigensolve(random_hermitian(rng, 6))
            assert np.all(np.diff(values) >= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = random_hermitian(rng, 6)
            values, v = eigensolve(m)
            recon = v @ np.diag(values) @ v.conj().T
            assert np.max(np.abs(recon - m)) <= 1e-10
            assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10

    def test_3x3_characteristic_polynomial_oracle(self):
        # independent eigenvalue computation: roots of det(M - x I)
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = random_hermitian(rng, 3)
            values, _ = eigensolve(m)
            c2 = -np.trace(m).real
            c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
            c0 = -np.linalg.det(m).real
            roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
            assert np.max(np.abs(values - roots)) <= 1e-9

    def test_trace_invariance(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 8)
        values, _ = eigensolve(m)
        assert abs(values.sum() - np.trace(m).real) < 1e-10

    def test_deterministic_phase(self):
        # a repeated solve returns the same eigenvectors, bit for bit
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        a = eigensolve(m)
        b = eigensolve(m)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_degenerate_spectrum(self):
        m = np.diag([1.0, 1.0, 2.0]).astype(complex)
        values, v = eigensolve(m)
        assert np.allclose(values, [1.0, 1.0, 2.0])
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-10


def corrupt(monkeypatch, member, fault):
    """Make the next LAPACK result wrong: the lowest eigenvalue of its
    given flat member moves by fault (a NaN fault makes it NaN). Either
    routine, np.linalg.eigh or eigvalsh, may return it; later results
    are right."""
    done = []
    for name in ("eigh", "eigvalsh"):
        def corrupted(h, _lapack=getattr(np.linalg, name)):
            out = _lapack(h)
            if done:
                return out
            done.append(True)
            values = out[0] if isinstance(out, tuple) else out
            values.reshape(-1, values.shape[-1])[member, 0] += fault
            return out
        monkeypatch.setattr(np.linalg, name, corrupted)


def trace_ratio(h, values):
    """|sum(lambda) - tr H| / (eps max|lambda|) of each member."""
    err = np.abs((values - np.diagonal(h, 0, -2, -1).real).sum(-1))
    return err / (np.finfo(float).eps * np.abs(values).max(axis=-1))


class TestEigensolve:
    """The one LAPACK entry point: what np.linalg.eigh / eigvalsh return,
    each member checked against the trace identity, every call counted."""

    REAL = strain_hamiltonians(strain_family(FineStructureParams()),
                               np.linspace(-20.0, 20.0, 12).reshape(3, 4))
    STACKS = {
        "real": REAL,
        "complex": np.stack([random_hermitian(np.random.default_rng(k), 6)
                             for k in range(5)]),
        "single": sum(PARAMETER_TERMS.values()),
        "zero": np.zeros((2, 6, 6)),
        "empty": np.zeros((2, 0, 0)),
        # eps max|H| underflows: the floor holds subnormal rounding
        "subnormal": REAL * 1e-315,
    }

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("kind", list(STACKS))
    def test_returns_what_lapack_returns(self, kind, vectors):
        h = self.STACKS[kind]
        got = eigensolve(h, vectors=vectors)
        if vectors:
            for g, w in zip(got, np.linalg.eigh(h), strict=True):
                assert np.array_equal(g, w)
        else:
            assert np.array_equal(got, np.linalg.eigvalsh(h))

    def test_counts_calls_and_matrices(self):
        before = dict(eigensolve_counts)
        eigensolve(self.STACKS["real"], vectors=False)
        eigensolve(self.STACKS["single"])
        eigensolve(np.zeros((0, 6, 6)))
        assert eigensolve_counts == {"calls": before["calls"] + 3,
                                     "matrices": before["matrices"] + 13}

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("fault", [1e-9, np.nan, np.inf])
    def test_names_the_first_corrupted_member(self, monkeypatch, vectors,
                                              fault):
        corrupt(monkeypatch, 6, fault)
        with pytest.raises(EigenError, match=r"member 6 of 12 fail the "
                                             r"trace identity"):
            eigensolve(self.STACKS["real"], vectors=vectors)

    @pytest.mark.parametrize("fault", [1e-9, np.nan])
    @pytest.mark.parametrize("command", ["sweep", "fit"])
    def test_cli_exits_2_naming_the_member(self, tmp_path, capfd,
                                           monkeypatch, command, fault):
        # member 5 of the command's first eigensolve: of sweep's 801-point
        # grid, and of the fit's strain-grid scan
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"output_dir = {out}\n", encoding="utf-8")
        argv = ["--config", str(cfg), command]
        if command == "fit":
            lines = tmp_path / "lines.csv"
            data = synthesize_dataset(FineStructureParams(),
                                      np.linspace(1.0, 20.0, 8), seed=0)
            lines.write_text("defect_id,line_ghz\n" + "".join(
                f"{d.id},{x:.17g}\n" for d in data for x in d.lines))
            argv.append(str(lines))
        corrupt(monkeypatch, 5, fault)
        assert run(argv) == 2
        err = capfd.readouterr().err
        assert err.startswith("nvsim: numerical failure: eigenvalues of "
                              "member 5 of ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists() or not list(out.iterdir())

    def test_bound_has_headroom_on_the_model(self):
        # seeded draws of every parameter, log-uniform in magnitude up to
        # the accepted 1e6 GHz, and of strain ranges up to +-1e6 GHz: the
        # largest ratio stays below half the documented constant
        rng = np.random.default_rng(21)

        def draw(signed=True):
            size = 10.0 ** rng.uniform(-3.0, 6.0)
            return size * rng.choice([-1.0, 1.0]) if signed else size

        worst = 0.0
        for _ in range(40):
            params = FineStructureParams(
                lambda_z=draw(), lambda_perp=draw(signed=False),
                d_es=draw(), delta_cap=draw(), d_gs=draw(signed=False),
                e_es_coeff=draw(), delta_z=draw(), zpl_offset=draw())
            reach = 10.0 ** rng.uniform(0.0, 6.0)
            h = strain_hamiltonians(strain_family(params),
                                    np.linspace(-reach, reach, 801))
            worst = max(worst, trace_ratio(h, np.linalg.eigh(h)[0]).max(),
                        trace_ratio(h, np.linalg.eigvalsh(h)).max())
        assert 0.0 < worst <= TRACE_ULPS / 2

    def test_only_eigensolve_names_lapack(self):
        # every mention of LAPACK's symmetric eigensolvers in the package,
        # call, import or text, lies inside linalg.eigensolve
        src = Path(nvsim.__file__).parent
        tree = ast.parse((src / "linalg.py").read_text(encoding="utf-8"))
        body, = (node for node in tree.body
                 if getattr(node, "name", None) == "eigensolve")
        inside = range(body.lineno, body.end_lineno + 1)
        mentions = [(path.name, i)
                    for path in sorted(src.glob("*.py"))
                    for i, line in enumerate(
                        path.read_text(encoding="utf-8").splitlines(), 1)
                    if re.search(r"\beig(h|valsh)\b", line)]
        assert mentions
        assert all(name == "linalg.py" and i in inside
                   for name, i in mentions), mentions
