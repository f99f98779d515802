"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is
pinned here; the material defaults are the shipped glass/PZT-5H file and
the independently shipped calibrated variant where reference capacitance
values are involved.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from piezoband import band_structure as bs
from piezoband.cli import main
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell, default_cell, calibrated_cell
from piezoband.quasistatic import Regime, effective_model, special_capacitances
from piezoband.transfer_matrix import (
    has_shunt_correction,
    m_elastic_entries,
    m_piezo_shunted_entries,
    monodromy,
    monodromy_entries,
    pole_threshold,
    shunt_denominator,
)

from conftest import random_cell
from oracle_bvp import oracle_layer_matrix, oracle_system_determinant
from test_transfer_matrix import matrix, normalized_max_diff


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert ok, detail


def test_c01_unimodularity():
    """det(m1) = det(m2) = det(m2 m1) = 1 within 1e-12 over 1e4 samples, < 1 s."""
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    worst = 0.0
    evaluated = 0
    skipped = 0
    while evaluated < 10_000:
        cell = random_cell(rng)
        omegas = rng.uniform(0.0, bs.default_omega_max(cell), size=10)
        if has_shunt_correction(cell):
            flagged = np.abs(shunt_denominator(cell, omegas)) < pole_threshold(cell)
            skipped += int(flagged.sum())
            omegas = omegas[~flagged]
        for entries in (
            m_elastic_entries(cell, omegas),
            m_piezo_shunted_entries(cell, omegas),
            monodromy_entries(cell, omegas),
        ):
            a11, a12, a21, a22 = entries
            scale = np.maximum(1.0, np.abs(a11 * a22) + np.abs(a12 * a21))
            worst = max(worst, float(np.max(np.abs(a11 * a22 - a12 * a21 - 1.0) / scale)))
        evaluated += omegas.size
    elapsed = time.perf_counter() - t0

    # Spot-check that the array path reproduces the checked scalar matrix.
    spot = random_cell(np.random.default_rng(1))
    omega = 0.37 * bs.default_omega_max(spot)
    t11 = monodromy_entries(spot, omega)[0]
    assert float(t11) == monodromy(spot, omega)[0, 0]

    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"unimodularity: worst |det-1| = {worst:.3e} over {evaluated} samples "
        f"({skipped} flagged poles skipped) in {elapsed:.2f}s",
    )


def test_c02_oracle_equivalence():
    """Closed-form m2 matches the first-principles oracle to 1e-8 over a
    4-decade omega grid x 12 C/S values; singular frequencies coincide with
    denominator zeros to 1e-10. Runtime < 5 s."""
    cell = default_cell()
    z2 = cell.piezo.impedance
    omega_ref = bs.default_omega_max(cell) / 4.0
    omegas = np.geomspace(1e-3 * omega_ref, 10.0 * omega_ref, 165)  # 4 decades
    gammas_uf = (0.0, 1.0, -1.0, 5.0, -5.0, -10.67, -11.0, -12.0, -13.3, -14.0, -40.0, 11.0)
    assert len(gammas_uf) == 12

    t0 = time.perf_counter()
    worst = 0.0
    guard = 1e-6 * cell.piezo.d / cell.piezo.eps
    for g_uf in gammas_uf:
        gamma = g_uf * 1e-6
        c2 = cell.with_c_over_s(gamma)
        for omega in omegas:
            if gamma != 0.0 and abs(float(shunt_denominator(c2, omega))) < guard:
                continue  # flagged singular neighborhood
            closed = matrix(m_piezo_shunted_entries(c2, float(omega)))
            oracle = oracle_layer_matrix(cell.piezo, gamma, float(omega))
            worst = max(worst, normalized_max_diff(closed, oracle, z2 * omega))

    # Singular-frequency coincidence, bisected independently on both sides.
    worst_pole_gap = 0.0
    pole_count = 0
    probe = np.linspace(1e-3 * omega_ref, 10.0 * omega_ref, 20001)
    for g_uf in gammas_uf:
        gamma = g_uf * 1e-6
        if gamma == 0.0:
            continue
        c2 = cell.with_c_over_s(gamma)
        den = shunt_denominator(c2, probe)
        idx = np.nonzero(den[:-1] * den[1:] < 0.0)[0]
        for i in idx:
            lo, hi = float(probe[i]), float(probe[i + 1])
            den_zero = brentq(lambda w: float(shunt_denominator(c2, w)), lo, hi, rtol=1e-15)
            det_zero = brentq(
                lambda w: oracle_system_determinant(cell.piezo, gamma, w), lo, hi, rtol=1e-15
            )
            worst_pole_gap = max(worst_pole_gap, abs(den_zero - det_zero) / den_zero)
            pole_count += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        worst <= 1e-8 and worst_pole_gap <= 1e-10 and pole_count > 0 and elapsed < 5.0,
        f"oracle equivalence: worst entry diff {worst:.3e}, "
        f"{pole_count} singular frequencies coincide to {worst_pole_gap:.3e}, {elapsed:.2f}s",
    )


def test_c03_quasistatic_consistency():
    """Richardson d^2(half_trace)/domega^2 at 0 equals -T^2 rho_eff/c_eff
    within 1e-4 for 50 C/S values outside guard neighborhoods."""
    cell = default_cell()
    c_inf, _ = special_capacitances(cell)
    removable = -cell.piezo.eps / cell.piezo.d
    candidates = np.concatenate(
        [np.linspace(-45e-6, -0.2e-6, 48), np.linspace(0.2e-6, 30e-6, 12)]
    )
    gammas = [
        g
        for g in candidates
        if abs(g - c_inf) > 0.02 * abs(c_inf) and abs(g - removable) > 0.02 * abs(removable)
    ][:50]
    assert len(gammas) == 50
    worst = 0.0
    for gamma in gammas:
        c2 = cell.with_c_over_s(float(gamma))
        em = effective_model(c2)
        expected = -c2.period**2 * em.rho_eff / em.c_eff
        got = bs.half_trace_curvature(c2)
        worst = max(worst, abs(got - expected) / abs(expected))
    _report(3, worst <= 1e-4, f"quasistatic curvature identity: worst rel diff {worst:.3e} over 50 C/S")


def test_c04_effective_speed():
    """First-branch origin slope matches sqrt(c_eff/rho_eff) within 0.5%
    whenever c_eff > 0."""
    cell = default_cell()
    c_inf, c_zero = special_capacitances(cell)
    gammas = [
        0.0,
        5e-6,
        -5e-6,
        -14e-6,
        c_inf + 0.05 * abs(c_inf),
        c_zero - 0.02 * abs(c_zero),
        -40e-6,
    ]
    worst = 0.0
    for gamma in gammas:
        c2 = cell.with_c_over_s(gamma)
        em = effective_model(c2)
        assert em.regime is Regime.POSITIVE
        branch = bs.trace_branches(c2)[0]
        slope = bs.origin_slope(branch)
        worst = max(worst, abs(slope - em.v_eff) / em.v_eff)
    _report(4, worst <= 5e-3, f"effective speed: worst origin-slope error {worst:.3e} (tol 0.5%)")


def test_c05_special_capacitances():
    """Closed-form pole/zero match root-finding on the model to 1e-10, and
    the ordering C0/S < Cinf/S < -eps/d2 < 0 holds for 1e3 random sets."""
    cell = default_cell()
    c_inf, c_zero = special_capacitances(cell)

    def inverse_c_eff(gamma):
        return cell.period / effective_model(cell.with_c_over_s(gamma)).c_eff

    def c_eff(gamma):
        return effective_model(cell.with_c_over_s(gamma)).c_eff

    located_pole = brentq(inverse_c_eff, c_inf - 1e-6, c_inf + 1e-6, xtol=1e-24, rtol=1e-15)
    located_zero = brentq(c_eff, c_zero - 1e-6, c_zero + 1e-6, xtol=1e-24, rtol=1e-15)
    pole_err = abs(located_pole - c_inf) / abs(c_inf)
    zero_err = abs(located_zero - c_zero) / abs(c_zero)

    rng = np.random.default_rng(5)
    ordering_ok = True
    for _ in range(1000):
        c = random_cell(rng, allow_zero_e=False)
        ci, cz = special_capacitances(c)
        ordering_ok &= cz < ci < -c.piezo.eps / c.piezo.d < 0.0
    _report(
        5,
        pole_err <= 1e-10 and zero_err <= 1e-10 and ordering_ok,
        f"special capacitances: pole err {pole_err:.3e}, zero err {zero_err:.3e}, "
        "ordering holds for 10^3 random piezo sets",
    )


def test_c06_quasistatic_stopband():
    """Inside (C0/S, Cinf/S): lowest stopband starts at 0 (quasistatic) and
    the first branch detaches; outside, the first branch holds the origin.
    Runtime < 30 s."""
    cell = default_cell()
    c_inf, c_zero = special_capacitances(cell)
    t0 = time.perf_counter()
    ok = True
    for i in range(1, 11):
        gamma = c_zero + (c_inf - c_zero) * i / 11.0
        c2 = cell.with_c_over_s(gamma)
        scan = bs.scan_frequencies(c2)
        intervals = bs.stopbands(c2, scan=scan)
        branches = bs.trace_branches(c2, scan=scan)
        ok &= bool(intervals) and intervals[0].omega_lo == 0.0 and intervals[0].quasistatic
        ok &= bool(branches) and float(branches[0].omega.min()) > 0.0
    for gamma in (0.0, c_zero - 0.5e-6, c_inf + 0.5e-6, -40e-6, 5e-6):
        branch = bs.trace_branches(cell.with_c_over_s(gamma))[0]
        ok &= branch.k[0] == 0.0 and branch.omega[0] == 0.0
    elapsed = time.perf_counter() - t0
    _report(
        6,
        ok and elapsed < 30.0,
        f"quasistatic stopband: 10 interior points detached + flagged, "
        f"5 exterior points hold the origin, {elapsed:.2f}s",
    )


def test_c07_flat_band():
    """find_flat_capacitance returns C* with branch spread < 1e-3 and group
    velocity below 1e-3 * v_eff(C=0) everywhere."""
    cell = default_cell()
    c_inf, c_zero = special_capacitances(cell)
    span = c_inf - c_zero

    # Bracket from the end-slope sign change over interior probes.
    fractions = np.linspace(0.15, 0.9, 8)
    slopes = []
    for f in fractions:
        branch = bs.trace_branches(cell.with_c_over_s(c_zero + f * span))[0]
        slopes.append(float(branch.omega[-1] - branch.omega[0]))
    flips = [i for i in range(len(slopes) - 1) if slopes[i] * slopes[i + 1] < 0]
    assert flips, "no end-slope sign change found in the interior"
    bracket = (c_zero + fractions[flips[0]] * span, c_zero + fractions[flips[0] + 1] * span)

    c_star = bs.find_flat_capacitance(cell, bracket)
    flat_cell = cell.with_c_over_s(c_star)
    branch = bs.trace_branches(flat_cell)[0]
    flatness = bs.branch_flatness(branch)
    v_ref = effective_model(cell.with_c_over_s(0.0)).v_eff
    max_vg = float(np.max(np.abs(bs.group_velocity(flat_cell, branch.k, branch.omega))))
    _report(
        7,
        flatness < 1e-3 and max_vg < 1e-3 * v_ref,
        f"flat band at C*/S = {c_star * 1e6:.4f} uF/m^2: spread {flatness:.2e}, "
        f"max |v_g| = {max_vg:.3e} m/s < {1e-3 * v_ref:.3e}",
    )


def test_c08_divergent_quasistatic_velocity():
    """Origin slope scales as (C/S - Cinf/S)^(-1/2) on the c_eff > 0 side:
    log-log regression slope -0.5 +- 0.05 over two decades."""
    cell = default_cell()
    c_inf, _ = special_capacitances(cell)
    deltas = np.logspace(-4, -2, 9) * abs(c_inf)
    omega_max = bs.default_omega_max(cell) / 4.0
    slopes = []
    for delta in deltas:
        c2 = cell.with_c_over_s(c_inf + float(delta))
        branch = bs.trace_branches(c2, k_points=400, omega_max=omega_max)[0]
        slopes.append(bs.origin_slope(branch))
    fit = np.polyfit(np.log(deltas), np.log(slopes), 1)[0]
    _report(
        8,
        abs(fit + 0.5) <= 0.05,
        f"divergent quasistatic velocity: log-log slope {fit:+.4f} (target -0.5 +- 0.05)",
    )


def test_c09_elastic_reduction():
    """With e = 0 the branches match the classical two-layer closed form to
    1e-8 in omega at every K grid point, for every C/S in the default sweep."""
    el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
    pz = PiezoLayer(rho=7500.0, cE=1.2e11, e=0.0, eps=1.302e-8, d=1e-3)
    base = ShuntedCell(el, pz, 0.0)
    omega_max = bs.default_omega_max(base)
    k_points = 200
    k_grid = np.linspace(0.0, math.pi / base.period, k_points)

    # Independent direct evaluation of the classical discriminant.
    t1, t2 = el.d * el.slowness, pz.d * pz.slowness
    z_sum = 0.5 * (el.impedance / pz.impedance + pz.impedance / el.impedance)
    grid = np.linspace(0.0, omega_max, 20001)
    disc = np.cos(grid * t1) * np.cos(grid * t2) - z_sum * np.sin(grid * t1) * np.sin(grid * t2)

    def classical_roots(k_value):
        target = math.cos(k_value * base.period)
        f = disc - target
        roots = list(grid[f == 0.0])
        idx = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
        func = lambda w: (
            math.cos(w * t1) * math.cos(w * t2)
            - z_sum * math.sin(w * t1) * math.sin(w * t2)
            - target
        )
        roots += [brentq(func, grid[i], grid[i + 1], rtol=1e-14, maxiter=300) for i in idx]
        return np.array(sorted(roots))

    expected_by_k = [classical_roots(float(k)) for k in k_grid]

    worst = 0.0
    for gamma_uf in (0.0, -1.0, -5.0, -10.67, -11.0, -12.0, -13.3, -14.0, -40.0):
        branches = bs.trace_branches(base.with_c_over_s(gamma_uf * 1e-6), k_points, omega_max)
        for i, k in enumerate(k_grid):
            expected = expected_by_k[i]
            got = np.sort(np.array([
                b.omega[np.searchsorted(b.k, k)]
                for b in branches
                if np.any(b.k == k)
            ]))
            assert len(got) == len(expected)
            scale = np.maximum(np.abs(expected), 1e-9 * omega_max)
            worst = max(worst, float(np.max(np.abs(got - expected) / scale)))
    _report(
        9,
        worst <= 1e-8,
        f"elastic reduction: worst branch deviation {worst:.3e} relative across the default sweep",
    )


def test_c10_reference_targets():
    """Documented reference: the calibrated material set reproduces the
    quoted pole/zero capacitances; the standard-dataset values are recorded
    in the README (non-gating against the quoted numbers)."""
    c_inf, c_zero = special_capacitances(calibrated_cell())
    cal_ok = abs(c_inf + 10.67e-6) <= 1e-3 * 10.67e-6 and abs(c_zero + 13.3e-6) <= 1e-3 * 13.3e-6
    # Standard PZT-5H/glass values, recorded for the comparison table.
    d_inf, d_zero = special_capacitances(default_cell())
    _report(
        10,
        cal_ok,
        f"reference targets: calibrated set gives ({c_inf * 1e6:.4f}, {c_zero * 1e6:.4f}) uF/m^2 "
        f"~ (-10.67, -13.3); shipped PZT-5H set gives ({d_inf * 1e6:.3f}, {d_zero * 1e6:.3f})",
    )


def test_c11_default_sweep_performance(tmp_path):
    """Full default sweep (10 CSVs, 200 K-points) in < 10 s, byte-reproducible."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    t0 = time.perf_counter()
    assert main(["sweep", "--out", str(out_a)]) == 0
    elapsed = time.perf_counter() - t0
    assert main(["sweep", "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*"))
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    csv_count = len([n for n in names if n.endswith(".csv")])
    _report(
        11,
        csv_count == 10 and "manifest.json" in names and elapsed < 10.0 and identical,
        f"default sweep: {csv_count} CSVs + manifest in {elapsed:.2f}s, byte-reproducible",
    )
