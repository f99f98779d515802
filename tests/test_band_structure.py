import math

import numpy as np
import pytest
from scipy.optimize import brentq

from piezoband import band_structure as bs
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell
from piezoband.quasistatic import effective_model, special_capacitances
from piezoband.transfer_matrix import ResonancePoleError

from conftest import elastic_bilayer


def classical_bilayer_roots(cell, k_value, omega_max, grid_points=6000):
    """Independent e = 0 dispersion solver: direct evaluation of the classic
    two-layer discriminant cos(q1)cos(q2) - (Z1/Z2 + Z2/Z1)/2 sin(q1)sin(q2),
    bracketed on a dense grid and polished by Brent's method."""
    el, pz = cell.elastic, cell.piezo
    t1, t2 = el.d * el.slowness, pz.d * pz.slowness
    z_sum = 0.5 * (el.impedance / pz.impedance + pz.impedance / el.impedance)
    target = math.cos(k_value * cell.period)

    def f(w):
        return (
            math.cos(w * t1) * math.cos(w * t2)
            - z_sum * math.sin(w * t1) * math.sin(w * t2)
            - target
        )

    grid = np.linspace(0.0, omega_max, grid_points)
    vals = np.array([f(w) for w in grid])
    roots = [0.0] if vals[0] == 0.0 else []
    idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    roots += [brentq(f, grid[i], grid[i + 1], rtol=1e-14, maxiter=300) for i in idx]
    return np.array(sorted(roots))


def interior_gamma(cell, fraction=0.5):
    c_inf, c_zero = special_capacitances(cell)
    return c_zero + fraction * (c_inf - c_zero)


class TestHalfTrace:
    def test_static_value_is_exactly_one(self, cell):
        for gamma in (0.0, -11e-6, interior_gamma(cell), 7e-6):
            sample = bs.half_trace(cell.with_c_over_s(gamma), 0.0)
            assert sample.half_trace == 1.0
            assert sample.status == bs.PASS

    def test_quarter_wave_bilayer_midgap(self):
        # Equal travel times, Z1/Z2 = 4: at q1 = q2 = pi/2 the half-trace is
        # -(Z1/Z2 + Z2/Z1)/2.
        cell = elastic_bilayer(4.0)
        sample = bs.half_trace(cell, math.pi / 2.0)
        assert sample.half_trace == pytest.approx(-2.125, rel=1e-14)
        assert sample.status == bs.STOP

    def test_quasistatic_stopband_sign_pattern(self, cell, calibrated):
        # |half_trace| > 1 on an interval starting immediately above zero.
        for c in (cell.with_c_over_s(interior_gamma(cell)), calibrated.with_c_over_s(-11e-6)):
            scan = bs.scan_frequencies(c)
            first_edge = np.nonzero(np.abs(scan.values) <= 1.0)[0][1:]
            low = scan.values[1 : first_edge[0]] if first_edge.size else scan.values[1:]
            assert low.size > 10
            assert np.all(np.abs(low) > 1.0)

    def test_pole_status(self, cell):
        c2 = cell.with_c_over_s(interior_gamma(cell))
        scan = bs.scan_frequencies(c2)
        assert scan.poles.size >= 1
        sample = bs.half_trace(c2, float(scan.poles[0]))
        assert sample.status == bs.POLE


class TestBlochWavenumber:
    def test_band_edges(self, cell):
        re_k, im_k = bs.bloch_wavenumber(cell, 0.0)
        assert (re_k, im_k) == (0.0, 0.0)

    def test_zone_boundary_exactly(self):
        # Matched bilayer: half_trace(pi/2) = cos(pi) = -1 exactly.
        cell = elastic_bilayer(1.0)
        omega = math.pi / 2.0
        assert bs.half_trace(cell, omega).half_trace == -1.0
        re_k, im_k = bs.bloch_wavenumber(cell, omega)
        assert (re_k, im_k) == (math.pi / cell.period, 0.0)

    def test_zone_boundary_attenuation_value(self):
        # Z1/Z2 = e^2 makes the quarter-wave half-trace exactly -cosh(2),
        # so Im K * T = 2 at the zone boundary.
        cell = elastic_bilayer(math.exp(2.0))
        omega = math.pi / 2.0
        assert bs.half_trace(cell, omega).half_trace == pytest.approx(-math.cosh(2.0), rel=1e-12)
        re_k, im_k = bs.bloch_wavenumber(cell, omega)
        assert re_k == pytest.approx(math.pi / cell.period, rel=1e-15)
        assert im_k == pytest.approx(2.0 / cell.period, rel=1e-12)

    def test_round_trip_with_half_trace(self, cell):
        period = cell.period
        for omega in (1.1e6, 5.0e6, 8.0e6, 1.6e7):
            h = bs.half_trace(cell, omega).half_trace
            re_k, im_k = bs.bloch_wavenumber(cell, omega)
            if abs(h) <= 1.0:
                assert im_k == 0.0
                assert math.cos(re_k * period) == pytest.approx(h, abs=1e-12)
            else:
                assert re_k in (0.0, math.pi / period)
                assert math.cosh(im_k * period) == pytest.approx(abs(h), rel=1e-12)

    def test_pole_passthrough(self, cell):
        c2 = cell.with_c_over_s(interior_gamma(cell))
        scan = bs.scan_frequencies(c2)
        with pytest.raises(ResonancePoleError):
            bs.bloch_wavenumber(c2, float(scan.poles[0]))


class TestScan:
    def test_nodes_are_sorted_and_anchored(self, cell):
        scan = bs.scan_frequencies(cell)
        assert scan.nodes[0] == 0.0
        assert scan.nodes[-1] == scan.omega_max
        assert np.all(np.diff(scan.nodes) > 0.0)
        assert scan.poles.size == 0

    def test_pole_intervals_are_blocked(self, cell):
        scan = bs.scan_frequencies(cell.with_c_over_s(interior_gamma(cell)))
        assert scan.poles.size == np.count_nonzero(scan.blocked)
        for p in scan.poles:
            i = np.searchsorted(scan.nodes, p) - 1
            assert scan.blocked[i]
            assert scan.nodes[i] < p < scan.nodes[i + 1]


class TestBranches:
    def test_elastic_reduction_matches_classical_dispersion(self):
        pz = PiezoLayer(rho=7500.0, cE=1.2e11, e=0.0, eps=1e-8, d=0.7e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        cell = ShuntedCell(el, pz, -11e-6)
        omega_max = bs.default_omega_max(cell)
        branches = bs.trace_branches(cell, k_points=40, omega_max=omega_max)
        k_grid = np.linspace(0.0, math.pi / cell.period, 40)
        for i, k in enumerate(k_grid):
            expected = classical_bilayer_roots(cell, float(k), omega_max)
            got = np.array([b.omega[list(b.k).index(k)] for b in branches if k in b.k])
            got = np.sort(got)
            assert len(got) == len(expected)
            scale = np.maximum(np.abs(expected), 1e-6 * omega_max)
            assert np.max(np.abs(got - expected) / scale) < 1e-8

    def test_open_circuit_first_branch_through_origin(self, cell):
        branch = bs.trace_branches(cell)[0]
        assert branch.k[0] == 0.0 and branch.omega[0] == 0.0
        em = effective_model(cell)
        assert bs.origin_slope(branch) == pytest.approx(em.v_eff, rel=5e-3)

    def test_first_branch_keeps_the_origin_at_the_pole_capacitance(self, cell):
        # Regression: at C/S = Cinf/S (c_eff infinite) the origin was dropped,
        # so branch 1 started at K = 0 on band 2's root and then fell to the
        # first band.
        from conftest import random_cell
        from piezoband.quasistatic import Regime

        draws = np.random.default_rng(3)
        cells = [cell] + [random_cell(draws, allow_zero_e=False) for _ in range(60)]
        for c in cells:
            c_inf, _ = special_capacitances(c)
            c2 = c.with_c_over_s(c_inf)
            assert effective_model(c2).regime is Regime.POLE
            branch = bs.trace_branches(c2)[0]
            assert branch.k[0] == 0.0 and branch.omega[0] == 0.0
            assert np.all(np.diff(branch.omega[:4]) > 0.0)

    def test_detached_first_branch_inside_interval(self, cell):
        branch = bs.trace_branches(cell.with_c_over_s(interior_gamma(cell)))[0]
        assert branch.omega.min() > 0.0

    def test_branch_residuals(self, cell):
        for gamma in (0.0, interior_gamma(cell), -40e-6):
            c2 = cell.with_c_over_s(gamma)
            for branch in bs.trace_branches(c2):
                residual = np.abs(
                    bs.half_trace_values(c2, branch.omega) - np.cos(branch.k * c2.period)
                )
                assert np.max(residual) < 1e-9

    def test_branch_indexing_is_by_frequency(self, cell):
        branches = bs.trace_branches(cell.with_c_over_s(-40e-6))
        assert [b.index for b in branches] == list(range(1, len(branches) + 1))
        mid = len(branches[0].k) // 2
        mid_frequencies = [b.omega[mid] for b in branches if len(b) > mid]
        assert mid_frequencies == sorted(mid_frequencies)

    def test_second_branch_slope_reversal_above_the_pole_capacitance(self, calibrated):
        # Decreasing C/S from 0 toward the pole capacitance flips the
        # second branch from downward to upward sloping.
        def end_slope(gamma):
            b2 = bs.trace_branches(calibrated.with_c_over_s(gamma))[1]
            return float(b2.omega[-1] - b2.omega[0])

        assert end_slope(0.0) < 0.0
        c_inf, _ = special_capacitances(calibrated)
        assert end_slope(c_inf + 0.05 * abs(c_inf)) > 0.0

    def test_empty_result_below_first_branch(self, cell):
        c2 = cell.with_c_over_s(interior_gamma(cell))
        assert bs.trace_branches(c2, omega_max=1e3) == []

    def test_rejects_bad_k_points(self, cell):
        with pytest.raises(ValueError):
            bs.trace_branches(cell, k_points=1)

    def test_rejects_nonpositive_omega_max(self, cell):
        with pytest.raises(ValueError):
            bs.trace_branches(cell, omega_max=-1.0)
        with pytest.raises(ValueError):
            bs.scan_frequencies(cell, 0.0)


class TestStopbands:
    def test_matched_homogeneous_limit_has_no_stopbands(self):
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        pz = PiezoLayer(rho=2500.0, cE=75e9, e=0.0, eps=1e-8, d=1.3e-3)
        assert bs.stopbands(ShuntedCell(el, pz, -11e-6)) == []

    def test_open_circuit_first_stopband_above_zero(self, cell):
        intervals = bs.stopbands(cell)
        assert intervals
        assert intervals[0].omega_lo > 0.0
        assert not intervals[0].quasistatic

    def test_quasistatic_stopband_inside_interval(self, cell):
        intervals = bs.stopbands(cell.with_c_over_s(interior_gamma(cell)))
        assert intervals[0].omega_lo == 0.0
        assert intervals[0].quasistatic
        assert intervals[0].absolute

    def test_poles_are_interior_to_stopbands(self, cell):
        c2 = cell.with_c_over_s(interior_gamma(cell))
        scan = bs.scan_frequencies(c2)
        intervals = bs.stopbands(c2, scan=scan)
        assert scan.poles.size >= 1
        for p in scan.poles:
            assert any(iv.omega_lo < p < iv.omega_hi for iv in intervals)

    def test_edges_sit_on_unit_half_trace(self, cell):
        c2 = cell.with_c_over_s(interior_gamma(cell))
        scan = bs.scan_frequencies(c2)
        for interval in bs.stopbands(c2, scan=scan):
            for edge in (interval.omega_lo, interval.omega_hi):
                if edge in (0.0, scan.omega_max):
                    continue
                assert abs(abs(float(bs.half_trace_values(c2, edge))) - 1.0) < 1e-6

    def test_spectral_topology_tiles_the_window(self, cell):
        # Stop intervals are disjoint and ordered; branch samples never
        # fall strictly inside one.
        c2 = cell.with_c_over_s(interior_gamma(cell))
        scan = bs.scan_frequencies(c2)
        intervals = bs.stopbands(c2, scan=scan)
        for a, b in zip(intervals[:-1], intervals[1:]):
            assert a.omega_hi < b.omega_lo
        samples = np.concatenate([b.omega for b in bs.trace_branches(c2, scan=scan)])
        margin = 1e-8 * scan.omega_max
        for interval in intervals:
            inside = (samples > interval.omega_lo + margin) & (samples < interval.omega_hi - margin)
            assert not inside.any()


class TestGroupVelocity:
    def test_fourth_order_accuracy_on_synthetic_branch(self):
        k = np.linspace(0.0, 1.0, 41)
        branch = bs.Branch(index=1, k=k, omega=1e6 * np.sin(k))
        for i in (0, 1, 7, 20, 39, 40):
            expected = 1e6 * math.cos(k[i])
            assert bs.group_velocity(branch, float(k[i])) == pytest.approx(expected, rel=2e-6)

    def test_requires_five_samples(self):
        branch = bs.Branch(index=1, k=np.linspace(0, 1, 4), omega=np.ones(4))
        with pytest.raises(bs.InsufficientSamplesError):
            bs.group_velocity(branch, 0.5)

    def test_rejects_out_of_range_k(self, cell):
        branch = bs.trace_branches(cell)[0]
        with pytest.raises(ValueError):
            bs.group_velocity(branch, 2.0 * branch.k[-1])

    def test_low_k_limit_matches_effective_speed(self, cell):
        branch = bs.trace_branches(cell, k_points=400)[0]
        em = effective_model(cell)
        assert bs.group_velocity(branch, 0.0) == pytest.approx(em.v_eff, rel=5e-3)


class TestFlatBands:
    def test_open_circuit_has_no_flat_bands(self, cell):
        assert bs.detect_flat_bands(cell) == []

    def test_inert_shunt_has_no_flat_bands(self):
        pz = PiezoLayer(rho=7500.0, cE=1.2e11, e=0.0, eps=1e-8, d=1e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        for gamma in (0.0, -11e-6, -40e-6):
            assert bs.detect_flat_bands(ShuntedCell(el, pz, gamma)) == []

    def test_find_flat_capacitance_self_consistency(self, cell):
        c_star = bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6), k_points=120)
        assert -16.5e-6 < c_star < -16.2e-6
        flat = bs.detect_flat_bands(cell.with_c_over_s(c_star), k_points=120)
        assert [b.index for b in flat] == [1]

    def test_same_sign_bracket_raises(self, cell):
        with pytest.raises(bs.BracketError, match="slope"):
            bs.find_flat_capacitance(cell, (-17.3e-6, -17.0e-6), k_points=80)

    def test_bracket_outside_interval_raises(self, cell):
        with pytest.raises(bs.BracketError, match="interval"):
            bs.find_flat_capacitance(cell, (-15e-6, -14e-6), k_points=80)


class TestRandomizedConsistency:
    def test_invariants_across_random_cells_and_regimes(self):
        # Each trial draws a random material set and a shunt setting from a
        # different regime (interior, near-pole, below-zero, near the
        # removable point) and checks the solver invariants end to end.
        rng = np.random.default_rng(20240809)
        from conftest import random_cell
        from piezoband.quasistatic import Regime

        for trial in range(30):
            cell = random_cell(rng, allow_zero_e=False)
            c_inf, c_zero = special_capacitances(cell)
            mode = trial % 5
            if mode == 0:
                gamma = cell.c_over_s
            elif mode == 1:
                gamma = c_zero + rng.uniform(0.05, 0.95) * (c_inf - c_zero)
            elif mode == 2:
                gamma = c_inf + abs(c_inf) * 10 ** rng.uniform(-4, -1)
            elif mode == 3:
                gamma = c_zero - abs(c_zero) * 10 ** rng.uniform(-4, -1)
            else:
                gamma = -cell.piezo.eps / cell.piezo.d * rng.uniform(0.5, 1.5)
            c2 = cell.with_c_over_s(float(gamma))
            scan = bs.scan_frequencies(c2)
            branches = bs.trace_branches(c2, 60, scan=scan)
            intervals = bs.stopbands(c2, scan=scan)

            for branch in branches:
                residual = np.abs(
                    bs.half_trace_values(c2, branch.omega) - np.cos(branch.k * c2.period)
                )
                assert np.max(residual) <= 1e-9

            for a, b in zip(intervals[:-1], intervals[1:]):
                assert a.omega_hi < b.omega_lo
            samples = (
                np.concatenate([b.omega for b in branches]) if branches else np.empty(0)
            )
            margin = 1e-8 * scan.omega_max
            for interval in intervals:
                inside = (samples > interval.omega_lo + margin) & (
                    samples < interval.omega_hi - margin
                )
                assert not inside.any()

            regime = effective_model(c2).regime
            if branches:
                has_origin = branches[0].k[0] == 0.0 and branches[0].omega[0] == 0.0
                if regime in (Regime.POSITIVE, Regime.POLE):
                    assert has_origin
                if regime is Regime.NEGATIVE:
                    assert not has_origin
                    assert intervals and intervals[0].quasistatic


class TestQuasistaticCurvature:
    def test_matches_effective_model(self, cell):
        for gamma in (0.0, -5e-6, interior_gamma(cell), -40e-6, 3e-6):
            c2 = cell.with_c_over_s(gamma)
            em = effective_model(c2)
            expected = -c2.period**2 * em.rho_eff / em.c_eff
            assert bs.half_trace_curvature(c2) == pytest.approx(expected, rel=1e-6)
