"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with `pytest -s` or in the captured output of a
failing run).
"""

import os
import time

import numpy as np
import pytest

from nvsim.cli import run
from nvsim.fitting import fit, synthesize_dataset
from nvsim.linalg import eigensolve
from nvsim.model import (FineStructureParams, RateParams, StrainVector,
                         build_excited_hamiltonian, level_weights)
from nvsim.motional import (ExchangeModel, TemperatureMap,
                            esr_contrast_vs_temperature,
                            exchange_lineshape)
from nvsim.photodynamics import (excitation_spectrum, excited_structure,
                                 polarize, propagate, rabi_trace,
                                 build_rate_matrix, transition_lines,
                                 uniform_ground)
from nvsim.sweep import (averaged_splitting, detect_crossings,
                         nv2_condition_strain, sweep)

DEFAULTS = FineStructureParams()
DECOUPLED = DEFAULTS._replace(lambda_perp=0.0)
RATES = RateParams()


def report(num, description, ok):
    print(f"criterion {num:02d} [{description}]: "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {description}"


def local_maxima(x, y):
    idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1
    return x[idx], y[idx]


def test_c01_zero_strain_spectrum():
    t0 = time.time()
    values, _ = eigensolve(build_excited_hamiltonian(
        DECOUPLED, StrainVector()))
    elapsed = time.time() - t0
    lz, des, dc = 5.3, 1.42, 1.55
    expected = np.sort([-lz + des / 3.0, -lz + des / 3.0,
                        -2.0 * des / 3.0, -2.0 * des / 3.0,
                        lz + des / 3.0 - dc, lz + des / 3.0 + dc])
    ok = (np.max(np.abs(values - expected)) <= 1e-9
          and abs((values[5] - values[4]) - 3.10) <= 1e-9
          and elapsed < 1.0)
    report(1, "zero-strain spectrum analytic", ok)


def test_c02_strain_direction_invariance():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        dperp = rng.uniform(0.1, 30.0)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a, _ = eigensolve(build_excited_hamiltonian(
            DECOUPLED, StrainVector(dperp, 0.0)))
        b, _ = eigensolve(build_excited_hamiltonian(
            DECOUPLED, StrainVector(dperp * np.cos(phi),
                                    dperp * np.sin(phi))))
        ok = ok and np.max(np.abs(a - b)) <= 1e-9
    report(2, "strain-direction invariance", ok)


def test_c03_averaged_splitting_band():
    exact = all(abs(averaged_splitting(DECOUPLED, d) - 1.42) <= 1e-9
                for d in np.linspace(0.0, 50.0, 51))
    banded = all(abs(averaged_splitting(DEFAULTS, d) - 1.42) <= 0.05
                 for d in np.linspace(0.0, 30.0, 121))
    report(3, "averaged splitting 1.42 GHz band", exact and banded)


def test_c04_lower_branch_avoided_crossings():
    grid = np.linspace(0.01, 30.0, 1201)
    events = [e for e in detect_crossings(sweep(DEFAULTS, grid), 0.5)
              if e.avoided]
    coupled_ok = len(events) == 2 and all(e.min_gap > 0 for e in events)
    events0 = detect_crossings(sweep(DECOUPLED, grid), 0.5)
    decoupled_ok = (len(events0) >= 2
                    and all(e.min_gap < 1e-6 for e in events0)
                    and not any(e.avoided for e in events0))
    report(4, "two avoided crossings open/close with coupling",
           coupled_ok and decoupled_ok)


def test_c05_upper_branch_no_crossing():
    sr = sweep(DEFAULTS, np.linspace(0.01, 30.0, 1201))
    p_x = level_weights(sr.vectors[-1])[0]
    upper = [k for k in range(6) if p_x[k] > 0.5]
    ok = len(upper) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            gap = np.abs(sr.energies[:, upper[i]]
                         - sr.energies[:, upper[j]])
            ok = ok and np.min(gap) > 0.0
    report(5, "no upper-branch crossing", ok)


def test_c06_excitation_spectra():
    strain = StrainVector(3.0, 0.0)
    structure = excited_structure(DEFAULTS, strain)
    lines = transition_lines(structure)
    conserving = [ln for ln in lines if ln.spin_conserving]
    grid = np.linspace(-8.0, 8.0, 3201)
    on = excitation_spectrum(structure, RATES, grid, mw_on=True)[:, 1]
    peaks, _ = local_maxima(grid, on)
    half_lw = 0.5 * RATES.linewidth
    six_ok = (len(conserving) == 6
              and all(np.min(np.abs(peaks - ln.detuning)) <= half_lw
                      for ln in conserving))

    _, vectors = eigensolve(build_excited_hamiltonian(DEFAULTS, strain))
    p_x = level_weights(vectors)[0]
    lower = {k + 1 for k in range(6) if p_x[k] < 0.5}
    supp_ok = True
    for ln in conserving:
        if ln.excited_index not in lower:
            continue
        nu = np.array([ln.detuning])
        h_on = excitation_spectrum(structure, RATES, nu, mw_on=True)[0, 1]
        h_off = excitation_spectrum(structure, RATES, nu,
                                    mw_on=False)[0, 1]
        supp_ok = supp_ok and h_off <= 0.10 * h_on

    def sz_peak_mw_off(dperp):
        at = excited_structure(DEFAULTS, StrainVector(dperp, 0.0))
        pool = [ln for ln in transition_lines(at)
                if ln.ground_sublevel == "gSz" and ln.spin_conserving]
        ln = max(pool, key=lambda x: x.strength)
        return excitation_spectrum(at, RATES, np.array([ln.detuning]),
                                   mw_on=False)[0, 1]

    nv2 = nv2_condition_strain(DEFAULTS)
    repump_ok = sz_peak_mw_off(nv2) >= 5.0 * sz_peak_mw_off(3.0)
    report(6, "six-line spectrum, MW gating, repumping",
           six_ok and supp_ok and repump_ok)


def test_c07_spin_polarization():
    structure = excited_structure(DEFAULTS, StrainVector(3.0, 0.0))
    pop = polarize(structure, RATES)
    polarized_ok = pop[0] >= 0.8
    blind = RATES._replace(k_isc_z=RATES.k_isc_xy, beta_z=1.0 / 3.0,
                           pump_res_max=0.0)
    g = build_rate_matrix(structure, blind, 0.0, green_on=True)
    pb = propagate(uniform_ground(), g, 200000.0)
    ground = pb[:3] / pb[:3].sum()
    blind_ok = np.max(np.abs(ground - 1.0 / 3.0)) <= 1e-6
    report(7, "green-pump spin polarization", polarized_ok and blind_ok)


def test_c08_rabi_pi_phase_shift():
    structure = excited_structure(DEFAULTS, StrainVector(3.0, 0.0))
    lines = [ln for ln in transition_lines(structure)
             if ln.spin_conserving]
    sz_line = max((ln for ln in lines if ln.ground_sublevel == "gSz"),
                  key=lambda ln: ln.strength)
    sxy_line = max((ln for ln in lines if ln.ground_sublevel == "gSx"),
                   key=lambda ln: ln.strength)
    omega = 2.0 * np.pi / 200.0
    taus = np.linspace(0.0, 800.0, 801)
    a = np.array([c for _, c in rabi_trace(structure, RATES, omega, sz_line,
                                           taus)])
    b = np.array([c for _, c in rabi_trace(structure, RATES, omega, sxy_line,
                                           taus)])
    pearson = np.corrcoef(a, b)[0, 1]
    peaks, _ = local_maxima(taus, a)
    period = np.mean(np.diff(peaks))
    ok = pearson < -0.9 and abs(period - 200.0) <= 0.02 * 200.0
    report(8, "Rabi pi phase shift and period", ok)


def test_c09_motional_averaging():
    m0 = ExchangeModel(freq_a=1.7, freq_b=1.1, linewidth_0=0.1)
    grid = np.linspace(0.2, 2.6, 4801)
    slow = exchange_lineshape(m0, grid)
    slow_peaks, _ = local_maxima(grid, slow)
    fast = exchange_lineshape(m0._replace(hop_rate=1e4), grid)
    fast_peaks, _ = local_maxima(grid, fast)
    shape_ok = (len(slow_peaks) == 2 and len(fast_peaks) == 1
                and abs(fast_peaks[0] - m0.mean_frequency) <= 0.02)
    areas = [np.trapezoid(
        exchange_lineshape(m0._replace(hop_rate=h), grid), grid)
        for h in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)]
    area_ok = (max(areas) - min(areas)) / areas[0] <= 0.01

    temps = np.linspace(6.0, 300.0, 148)
    rows = esr_contrast_vs_temperature(TemperatureMap(), DEFAULTS, 20.0,
                                       temps)
    c = np.array([x for _, x in rows])
    t_half = float(np.interp(0.5, c, temps))
    c260 = float(np.interp(260.0, temps, c))
    c6 = c[0]
    curve_ok = (np.all(np.diff(c) >= 0) and c[-1] > c[0]
                and abs(t_half - 150.0) <= 30.0
                and c260 >= 0.8 and c6 <= 0.1)
    report(9, "motional averaging and contrast curve",
           shape_ok and area_ok and curve_ok)


def test_c10_eigensolver_battery():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = 0.5 * (a + a.conj().T)
        values, v = eigensolve(m)
        ok = ok and np.max(np.abs(
            v @ np.diag(values) @ v.conj().T - m)) <= 1e-10
        ok = ok and np.max(np.abs(
            v.conj().T @ v - np.eye(6))) <= 1e-10
    for _ in range(100):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = 0.5 * (a + a.conj().T)
        values, _ = eigensolve(m)
        c2 = -np.trace(m).real
        c1 = 0.5 * (np.trace(m) ** 2 - np.trace(m @ m)).real
        c0 = -np.linalg.det(m).real
        roots = np.sort(np.roots([1.0, c2, c1, c0]).real)
        ok = ok and np.max(np.abs(values - roots)) <= 1e-9
    report(10, "eigensolver reconstruction battery", ok)


def test_c11_fit_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(1)
    strains = np.sort(rng.uniform(0.5, 20.0, 27))
    init = DEFAULTS._replace(lambda_z=5.0, d_es=1.3, delta_cap=1.4)
    data = synthesize_dataset(DEFAULTS, strains, noise=0.0, seed=2)
    res = fit(data, init)
    clean_ok = (abs(res.params.lambda_z - 5.3) <= 1e-4
                and abs(res.params.d_es - 1.42) <= 1e-4
                and abs(res.params.delta_cap - 1.55) <= 1e-4)
    noisy_ok = True
    for rep in range(20):
        noisy = synthesize_dataset(DEFAULTS, strains, noise=0.01,
                                   seed=100 + rep)
        r = fit(noisy, init)
        noisy_ok = (noisy_ok
                    and abs(r.params.lambda_z - 5.3) <= 0.05
                    and abs(r.params.d_es - 1.42) <= 0.03
                    and abs(r.params.delta_cap - 1.55) <= 0.03)
    elapsed = time.time() - t0
    report(11, "fit round trip (27 defects, 20 MC repeats)",
           clean_ok and noisy_ok and elapsed < 60.0)


def test_c12_cli_determinism(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"output_dir = {out}\nstrain_points = 41\n"
                   "strain_max = 16\n", encoding="utf-8")
    rng = np.random.default_rng(12)
    fixture = tmp_path / "fixture.csv"
    rows = ["defect_id,line_ghz"]
    for d in synthesize_dataset(DEFAULTS,
                                np.sort(rng.uniform(1.0, 18.0, 6)),
                                seed=13):
        rows.extend(f"{d.id},{x:.9f}" for x in d.lines)
    fixture.write_text("\n".join(rows) + "\n", encoding="utf-8")

    commands = [
        ["levels"],
        ["sweep"],
        ["lines", "--strain", "3"],
        ["excitation", "--strain", "3", "--detuning-points", "33"],
        ["rabi", "--strain", "3", "--tau-points", "17"],
        ["odmr", "--strain", "20", "--freq-points", "33"],
        ["odmr", "--strain", "20", "--temperature-scan",
         "--temp-points", "9"],
        ["avg", "--max-strain", "30", "--points", "16"],
        ["fit", str(fixture)],
    ]
    ok = True
    for cmd in commands:
        argv = ["--config", str(cfg)] + cmd
        ok = ok and run(argv) == 0
        first = {p: (out / p).read_bytes() for p in os.listdir(out)
                 if p.endswith(".csv")}
        ok = ok and run(argv) == 0
        second = {p: (out / p).read_bytes() for p in os.listdir(out)
                  if p.endswith(".csv")}
        ok = ok and first == second
    report(12, "CLI byte-identical re-runs", ok)
