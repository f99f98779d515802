import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from piezoband import band_structure as bs
from piezoband.cli import DEFAULT_SWEEP_UF
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell, default_cell
from piezoband.quasistatic import effective_model, special_capacitances
from piezoband.transfer_matrix import ResonancePoleError, _cell_parts, monodromy

from conftest import central_group_velocity, elastic_bilayer, random_cell


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


def half_trace(cell, omega):
    return float(bs.half_trace_values(cell, omega))


def zone_edge_samples(cell, branches):
    """Branch frequencies at K = 0 and K = pi/T."""
    edge_k = [0.0, math.pi / cell.period]
    return np.concatenate([b.omega[np.isin(b.k, edge_k)] for b in branches] + [np.empty(0)])


def inner_edges(intervals, omega_max):
    """Stopband edges strictly inside (0, omega_max)."""
    return [e for s in intervals for e in (s.omega_lo, s.omega_hi) if 0.0 < e < omega_max]


def interior_gamma(cell, fraction=0.5):
    c_inf, c_zero = special_capacitances(cell)
    return c_zero + fraction * (c_inf - c_zero)


class TestHalfTrace:
    def test_static_value_is_exactly_one(self, cell):
        for gamma in (0.0, -11e-6, interior_gamma(cell), 7e-6):
            assert half_trace(cell.with_c_over_s(gamma), 0.0) == 1.0

    def test_quarter_wave_bilayer_midgap(self):
        # Equal travel times, Z1/Z2 = 4: at q1 = q2 = pi/2 the half-trace is
        # -(Z1/Z2 + Z2/Z1)/2.
        cell = elastic_bilayer(4.0)
        assert half_trace(cell, math.pi / 2.0) == pytest.approx(-2.125, rel=1e-14)

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
        with pytest.raises(ResonancePoleError):
            monodromy(c2, float(scan.poles[0]))


class TestBlochWavenumber:
    def test_band_edges(self, cell):
        re_k, im_k = bs.bloch_wavenumber(cell, 0.0)
        assert (re_k, im_k) == (0.0, 0.0)

    def test_zone_boundary_exactly(self):
        # Matched bilayer: half_trace(pi/2) = cos(pi) = -1 exactly.
        cell = elastic_bilayer(1.0)
        omega = math.pi / 2.0
        assert half_trace(cell, omega) == -1.0
        re_k, im_k = bs.bloch_wavenumber(cell, omega)
        assert (re_k, im_k) == (math.pi / cell.period, 0.0)

    def test_zone_boundary_attenuation_value(self):
        # Z1/Z2 = e^2 makes the quarter-wave half-trace exactly -cosh(2),
        # so Im K * T = 2 at the zone boundary.
        cell = elastic_bilayer(math.exp(2.0))
        omega = math.pi / 2.0
        assert half_trace(cell, omega) == pytest.approx(-math.cosh(2.0), rel=1e-12)
        re_k, im_k = bs.bloch_wavenumber(cell, omega)
        assert re_k == pytest.approx(math.pi / cell.period, rel=1e-15)
        assert im_k == pytest.approx(2.0 / cell.period, rel=1e-12)

    def test_round_trip_with_half_trace(self, cell):
        period = cell.period
        for omega in (1.1e6, 5.0e6, 8.0e6, 1.6e7):
            h = half_trace(cell, omega)
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

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_is_rejected(self, cell, omega):
        # Regression: nan gave (pi/T, nan), as if nan lay in a stopband.
        for c2 in (cell, cell.with_c_over_s(interior_gamma(cell))):
            with pytest.raises(ValueError, match="finite"):
                monodromy(c2, omega)
            with pytest.raises(ValueError, match="finite"):
                bs.bloch_wavenumber(c2, omega)


class TestScan:
    def test_nodes_are_sorted_and_anchored(self, cell):
        scan = bs.scan_frequencies(cell)
        assert scan.nodes[0] == 0.0
        assert scan.nodes[-1] == scan.omega_max
        assert np.all(np.diff(scan.nodes) > 0.0)
        assert scan.poles.size == 0

    def test_a_scan_of_another_cell_is_rejected(self, cell):
        # Regression: the regime and period came from one cell and the roots
        # from the other, so branch 1 started at (0, 0) at -16.7 uF/m^2.
        scan = bs.scan_frequencies(cell.with_c_over_s(-16.7e-6))
        with pytest.raises(ValueError, match="different cell"):
            bs.trace_branches(cell, scan=scan)
        with pytest.raises(ValueError, match="different cell"):
            bs.stopbands(cell, scan=scan)

    def test_window_is_sized_to_the_base_grid(self, cell):
        # Regression: omega_max = 1e300 overflowed the kernel and gave roots
        # at 7e295 rad/s. A window holds about 4*omega_max/default_omega_max
        # bands, and a base grid resolves at most base_points/4 of them.
        omega0 = bs.default_omega_max(cell)
        assert bs.scan_frequencies(cell, 50.0 * omega0).omega_max == 50.0 * omega0
        assert bs.scan_frequencies(cell, 12.5 * omega0, base_points=200).nodes.size > 200
        for omega_max, base_points in ((1e300, 2000), (126.0 * omega0, 2000), (13.0 * omega0, 200)):
            with pytest.raises(ValueError, match="bands"):
                bs.scan_frequencies(cell, omega_max, base_points=base_points)

    @pytest.mark.parametrize("c_over_s", [0.0, -11e-6])
    @pytest.mark.parametrize("factor", [1.0, 10.0, 50.0])
    def test_default_and_wide_windows_keep_the_2000_interval_grid(self, cell, c_over_s, factor):
        # The default window and every wider one hold the uniform 2000-interval
        # grid bit for bit and no extra first node: a refined interval holds
        # DEFAULT_REFINE_FACTOR - 1 more nodes, every other none.
        omega_max = factor * bs.default_omega_max(cell)
        scan = bs.scan_frequencies(cell.with_c_over_s(c_over_s), omega_max)
        base = np.linspace(0.0, omega_max, bs.DEFAULT_BASE_POINTS + 1)
        assert np.isin(base, scan.nodes).all() and np.all(np.diff(scan.nodes) > 0.0)
        inside = np.diff(np.searchsorted(scan.nodes, base)) - 1
        assert set(inside.tolist()) == {0, bs.DEFAULT_REFINE_FACTOR - 1}

    @pytest.mark.parametrize("factor, intervals", [(0.02, 40), (0.25, 500), (0.5, 1000)])
    def test_narrow_window_keeps_the_default_spacing_and_its_first_node(self, cell, factor, intervals):
        omega_max = factor * bs.default_omega_max(cell)
        scan = bs.scan_frequencies(cell, omega_max)
        base = np.linspace(0.0, omega_max, intervals + 1)
        assert np.isin(base, scan.nodes).all()
        assert scan.nodes[1] == omega_max / bs.DEFAULT_BASE_POINTS < base[1]

    def test_pole_intervals_are_blocked(self, cell):
        scan = bs.scan_frequencies(cell.with_c_over_s(interior_gamma(cell)))
        assert scan.poles.size == np.count_nonzero(scan.blocked)
        # Each pole's base interval is refined like a band-edge interval.
        step = scan.omega_max / bs.DEFAULT_BASE_POINTS / bs.DEFAULT_REFINE_FACTOR
        for p in scan.poles:
            i = np.searchsorted(scan.nodes, p) - 1
            assert scan.blocked[i]
            assert scan.nodes[i] < p < scan.nodes[i + 1]
            assert scan.nodes[i + 1] - scan.nodes[i] == pytest.approx(step, rel=1e-9)


class TestPoles:
    # The first minimum of sin(q)/q, at the first positive root of tan q = q.
    Q_MIN = 4.493409457909064

    @pytest.mark.parametrize("offset", [1e-8, 1e-10])
    def test_near_double_pole_pair_is_found(self, cell, offset):
        # Regression: with sin(q)/q = kappa just above its first minimum the
        # two poles around q_min (about 20.67 Mrad/s) are 1.3 krad/s and 130
        # rad/s apart. The uniform probe grid that located poles missed the
        # pair in 27 and 38 of these 40 windows.
        pz = cell.piezo
        s_min = math.sin(self.Q_MIN) / self.Q_MIN
        kappa = s_min + abs(s_min) * offset
        shunted = cell.with_c_over_s(1.0 / (kappa * pz.h**2 * pz.d / pz.cD - pz.d / pz.eps))
        alpha = pz.d * pz.slowness
        for j in range(40):
            omega_max = bs.default_omega_max(cell) * (1.0 + 3.7e-5 * j)
            poles = bs.scan_frequencies(shunted, omega_max).poles
            near = np.abs(alpha * poles - self.Q_MIN) <= 1e-3 * self.Q_MIN
            assert np.count_nonzero(near) == 2, j

    def test_every_pole_is_certified_by_a_sign_change(self):
        # Each pole is an exact zero of S/C - M3 or has a sign change of it
        # within p*(1 +- 1e-14): the bracket its bisection ended on. At a
        # pole of a strongly coupled cell at small phase q, where sin(q)/q is
        # flat, S/C - M3 is rounding noise over more than that width, and
        # p*(1 - 1e-14) and p*(1 + 1e-14) can share a sign (2 of these 300
        # random cells), so the test looks at every float in between. No
        # sign change of S/C - M3 on a fine grid may go without a pole.
        from piezoband.cli import DEFAULT_SWEEP_UF
        from piezoband.transfer_matrix import has_shunt_correction, shunt_denominator

        draws = np.random.default_rng(0)
        cells = [default_cell(g * 1e-6) for g in DEFAULT_SWEEP_UF]
        for _ in range(300):
            cell = random_cell(draws, allow_zero_e=False)
            c_inf, c_zero = special_capacitances(cell)
            cells.append(cell.with_c_over_s(c_zero + draws.uniform(0.05, 0.95) * (c_inf - c_zero)))
        seen = 0
        for cell in cells:
            scan = bs.scan_frequencies(cell)
            poles = scan.poles
            assert np.all(np.diff(poles) > 0.0)
            assert np.all((poles > 0.0) & (poles < scan.omega_max))
            if not has_shunt_correction(cell):
                assert poles.size == 0
                continue
            around = poles[:, None] * np.linspace(1.0 - 1e-14, 1.0 + 1e-14, 401)
            d = shunt_denominator(cell, around)
            assert np.all((d.min(axis=1) <= 0.0) & (d.max(axis=1) >= 0.0))
            grid = shunt_denominator(cell, np.linspace(0.0, scan.omega_max, 200_001))
            assert poles.size >= np.count_nonzero(grid[:-1] * grid[1:] < 0.0)
            seen += poles.size
        assert seen >= 250


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

    def test_origin_slope_rejects_repeated_frequencies(self):
        # Regression: the Vandermonde solve raised numpy's LinAlgError, a
        # type the docstring does not name.
        branch = bs.Branch(1, np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 5.0, 5.0, 5.0]))
        with pytest.raises(bs.NumericalError, match="distinct"):
            bs.origin_slope(branch)

    def test_c08_origin_slope_is_the_exact_extrapolation_without_linalg(self, monkeypatch):
        # A c08 trace and its origin slope make no np.linalg call, and the
        # slope is that of the quadratic in omega^2 through the three
        # samples, extrapolated in exact rational arithmetic, to 4e-15.
        from fractions import Fraction

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        cell = default_cell()
        c_inf, _ = special_capacitances(cell)
        for delta in (1e-4, 1e-2):
            c2 = cell.with_c_over_s(c_inf + delta * abs(c_inf))
            branch = bs.trace_branches(c2, k_points=400, omega_max=bs.default_omega_max(cell) / 4.0)[0]
            k, w = (list(map(Fraction, a[1:4].tolist())) for a in (branch.k, branch.omega))
            x, y = [v * v for v in w], [(a / b) ** 2 for a, b in zip(k, w)]
            c0 = sum(y[i] * x[i - 1] * x[i - 2] / ((x[i] - x[i - 1]) * (x[i] - x[i - 2])) for i in range(3))
            assert bs.origin_slope(branch) == pytest.approx(1.0 / math.sqrt(c0), rel=4e-15, abs=0.0)

    def test_first_branch_keeps_the_origin_at_the_pole_capacitance(self, cell):
        # Regression: at C/S = Cinf/S (c_eff infinite) the origin was dropped,
        # so branch 1 started at K = 0 on band 2's root and then fell to the
        # first band.
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
        # Regression: nan and inf were taken and gave nan nodes.
        for omega_max in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                bs.scan_frequencies(cell, omega_max)
            with pytest.raises(ValueError, match="finite"):
                bs.trace_branches(cell, omega_max=omega_max)


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

    @pytest.mark.parametrize(
        "r, factor",
        [(r, f) for r in (3.2e-9, 1e-8) for f in (0.02, 0.1)]
        + [(r, f) for r in (3.2e-8, 1e-7) for f in (0.02, 0.1, 0.25)],
    )
    def test_no_window_loses_the_quasistatic_edge(self, cell, r, factor):
        # At C/S = Cinf/S*(1 + r) the quasistatic edge grows like sqrt(r),
        # from about 2 krad/s at r = 3.2e-9 to 11 krad/s at 1e-7, below the
        # default window's node spacing of 15.7 krad/s. A narrow window keeps
        # its first node at omega_max/DEFAULT_BASE_POINTS, so the edge still
        # has a node below it (not at 0.25x for r <= 1e-8, nor at any window
        # for r <= 1e-9, where h - 1 is at the rounding level: ROADMAP item 3).
        c_inf, _ = special_capacitances(cell)
        shunted = cell.with_c_over_s(c_inf * (1.0 + r))
        assert bs.stopbands(shunted, factor * bs.default_omega_max(cell))[0].quasistatic

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
        # fall strictly inside one, and every edge is a zone-edge sample.
        for fraction in (0.25, 0.5, 0.75):
            c2 = cell.with_c_over_s(interior_gamma(cell, fraction))
            scan = bs.scan_frequencies(c2)
            intervals = bs.stopbands(c2, scan=scan)
            for a, b in zip(intervals[:-1], intervals[1:]):
                assert a.omega_hi < b.omega_lo
            branches = bs.trace_branches(c2, scan=scan)
            samples = np.concatenate([b.omega for b in branches])
            for interval in intervals:
                inside = (samples > interval.omega_lo) & (samples < interval.omega_hi)
                assert not inside.any()
            edges = inner_edges(intervals, scan.omega_max)
            assert edges and np.isin(edges, zone_edge_samples(c2, branches)).all()

    @pytest.mark.parametrize(
        "c_over_s, factor",
        [(uf * 1e-6, 1.0) for uf in DEFAULT_SWEEP_UF]
        + [(-1.631192105104345e-05, 1.0)]
        + [(uf * 1e-6, f) for uf in (0.0, -11.0, -16.7) for f in (10.0, 50.0)],
    )
    def test_stopbands_reuse_the_edges_of_a_trace(self, cell, monkeypatch, c_over_s, factor):
        # The edges are the trace's K = 0 and K = pi/T roots on the same
        # scan, so a traced scan needs no kernel call to find them again.
        shunted = cell.with_c_over_s(c_over_s)
        omega_max = factor * bs.default_omega_max(cell)
        scan = bs.scan_frequencies(shunted, omega_max)
        bs.trace_branches(shunted, scan=scan)
        calls = []
        kernel = bs.monodromy_entries
        with monkeypatch.context() as patch:
            patch.setattr(
                bs, "monodromy_entries",
                lambda *args, **kwargs: calls.append(1) or kernel(*args, **kwargs),
            )
            reused = bs.stopbands(shunted, scan=scan)
        assert not calls
        assert reused == bs.stopbands(shunted, omega_max)
        # Stopbands first leave nothing that a later trace reads.
        scan = bs.scan_frequencies(shunted, omega_max)
        bs.stopbands(shunted, scan=scan)
        later = bs.trace_branches(shunted, scan=scan)
        fresh = bs.trace_branches(shunted, omega_max=omega_max)
        assert [(b.index, b.k.tobytes(), b.omega.tobytes()) for b in later] == [
            (b.index, b.k.tobytes(), b.omega.tobytes()) for b in fresh
        ]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: h == 1.0 exactly at nodes near 0")
def test_tiny_window_holds_only_the_origin():
    # Below about 100 rad/s nodes near 0 read h == 1.0 exactly, and each
    # becomes a one-sample K = 0 "branch" (2 at 10 rad/s, 3 at 1e-3, where
    # the window holds one base interval and the kept first node);
    # at -16.7 uF/m^2 the one quasistatic interval on 0.1 rad/s splits in
    # three. Deflating the trivial root on (h - 1)/omega^2 should fix both.
    cell = default_cell()
    assert len(bs.trace_branches(cell, omega_max=10.0)) == 1
    assert len(bs.trace_branches(cell, omega_max=1e-3)) == 1
    gaps = bs.stopbands(cell.with_c_over_s(-16.7e-6), 0.1)
    assert [(g.omega_lo, g.omega_hi, g.quasistatic) for g in gaps] == [(0.0, 0.1, True)]


def assert_central_group_velocity(cell, branches):
    """Analytic v_g within 1e-5 of each branch's max |v_g| of central differences.

    The origin sample is the quasistatic v_eff itself.
    """
    for branch in branches:
        v = bs.group_velocity(cell, branch.k, branch.omega)
        moving = branch.omega > 0.0
        assert (v[~moving] == effective_model(cell).v_eff).all()
        reference = central_group_velocity(cell, branch.k[moving], branch.omega[moving])
        assert np.abs(v[moving] - reference).max(initial=0.0) <= 1e-5 * np.abs(v).max()


class TestGroupVelocity:
    def test_matches_central_differences_on_default_panels(self, cell):
        for gamma in [uf * 1e-6 for uf in DEFAULT_SWEEP_UF] + [0.0]:
            panel = cell.with_c_over_s(gamma)
            assert_central_group_velocity(panel, bs.trace_branches(panel))

    def test_low_k_limit_matches_effective_speed(self, cell):
        branch = bs.trace_branches(cell, k_points=400)[0]
        v = bs.group_velocity(cell, branch.k, branch.omega)
        assert v[1] == pytest.approx(effective_model(cell).v_eff, rel=5e-3)

    def test_flat_band_velocity_vanishes(self, cell):
        # At C* the pole cancels and G = 0 at every K: v_g = 0 from G, not 0/0.
        flat = cell.with_c_over_s(bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6)))
        branch = bs.trace_branches(flat)[0]
        v = bs.group_velocity(flat, branch.k, branch.omega)
        assert np.abs(v).max() < 1e-6 * effective_model(cell).v_eff

    def test_origin_is_infinite_at_the_pole_capacitance(self, cell):
        c_inf, _ = special_capacitances(cell)
        pole = cell.with_c_over_s(c_inf)
        branch = bs.trace_branches(pole)[0]
        v = bs.group_velocity(pole, branch.k, branch.omega)
        assert branch.omega[0] == 0.0 and v[0] == math.inf
        assert np.isfinite(v[1:]).all()

    def test_elementwise_over_any_shape(self, cell):
        branch = bs.trace_branches(cell)[1]
        v = bs.group_velocity(cell, branch.k, branch.omega)
        grid = bs.group_velocity(cell, branch.k[:6].reshape(2, 3), branch.omega[:6].reshape(2, 3))
        assert grid.tobytes() == v[:6].tobytes()
        assert float(bs.group_velocity(cell, branch.k[4], branch.omega[4])) == v[4]


# The flat bands of the shipped cell below default_omega_max: (flat branch,
# omega* in rad/s, C*/S in uF/m^2), where r(omega*) = 0 and C*/S = 1/M3(omega*).
FLAT_BANDS = [
    (1, 5.6338435e6, -16.311921),
    (2, 1.6315729e7, -12.650469),
    (3, 2.5565393e7, -12.624045),
    (4, 3.0322232e7, -13.179591),
]
# Their C*/S = 1/M3(omega*) as floats, in the same order.
C_STARS = (
    -1.631192105104345e-05,
    -1.2650469349254446e-05,
    -1.2624044476357633e-05,
    -1.3179591285920347e-05,
)
C_STAR = C_STARS[0]
# Their omega* as floats, bit for bit.
OMEGA_STARS = ("0x1.57dcce1d582dbp+22", "0x1.f1eaa1f39b064p+23", "0x1.8618d0824ff08p+24", "0x1.ceae37dff0e98p+24")
# sha256 of the float.hex of the 200 omega* and then the 200 C*/S of the 50x window, space-separated.
WIDE_CANDIDATES_SHA256 = "40415e04d452bb9cfcfaa982470a672a161d024504479a801cac8be2b7cf0559"


class TestFlatBands:
    def test_open_circuit_has_no_flat_bands(self, cell):
        assert bs.detect_flat_bands(bs.trace_branches(cell)) == []

    def test_inert_shunt_has_no_flat_bands(self):
        pz = PiezoLayer(rho=7500.0, cE=1.2e11, e=0.0, eps=1e-8, d=1e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        for gamma in (0.0, -11e-6, -40e-6):
            assert bs.detect_flat_bands(bs.trace_branches(ShuntedCell(el, pz, gamma))) == []

    def test_branch_missing_k_samples_is_not_flat(self):
        # Regression: random_cell draw 166 of seed 0 traces branches of
        # [200, 200, 199, 199, 1] samples, and the one sample of branch 5
        # has spread 0, so it was reported flat. Only a branch with a
        # sample at every K of the trace is judged.
        draws = np.random.default_rng(0)
        for _ in range(166):
            random_cell(draws)
        branches = bs.trace_branches(random_cell(draws))
        assert [len(b) for b in branches] == [200, 200, 199, 199, 1]
        assert bs.branch_flatness(branches[-1]) == 0.0
        assert bs.detect_flat_bands(branches) == []
        assert [b.index for b in bs.detect_flat_bands(branches[-1:])] == [5]

    def test_find_flat_capacitance_self_consistency(self, cell):
        c_star = bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6), k_points=120)
        assert -16.5e-6 < c_star < -16.2e-6
        flat = bs.detect_flat_bands(bs.trace_branches(cell.with_c_over_s(c_star), k_points=120))
        assert [b.index for b in flat] == [1]

    def test_candidates_are_the_closed_form_flat_bands(self, cell):
        omega_star, c_star = bs._flat_band_candidates(cell, bs.default_omega_max(cell))
        np.testing.assert_allclose(omega_star, [w for _, w, _ in FLAT_BANDS], rtol=1e-7)
        np.testing.assert_allclose(c_star * 1e6, [c for _, _, c in FLAT_BANDS], rtol=1e-7)
        for (index, _, _), gamma in zip(FLAT_BANDS, c_star.tolist()):
            branches = bs.trace_branches(cell.with_c_over_s(gamma))
            assert [b.index for b in bs.detect_flat_bands(branches)] == [index]
            assert bs.branch_flatness(branches[index - 1]) == 0.0

    def test_candidates_keep_their_bits(self, cell):
        # Each level's float Newton run and sign-verified pair depend on the
        # level alone, so the candidates of the 0.25x, 1x and 10x windows are
        # the first of the 50x window's, bit for bit, and those bits are pinned.
        omega_max = bs.default_omega_max(cell)
        found = {f: bs._flat_band_candidates(cell, f * omega_max) for f in (0.25, 1.0, 10.0, 50.0)}
        omega, c_star = found[50.0]
        for factor, count in ((0.25, 1), (1.0, 4), (10.0, 39), (50.0, 200)):
            assert [a.tobytes() for a in found[factor]] == [omega[:count].tobytes(), c_star[:count].tobytes()]
        assert [x.hex() for x in omega[:4].tolist()] == list(OMEGA_STARS)
        assert [x.hex() for x in c_star[:4].tolist()] == [x.hex() for x in C_STARS]
        digest = hashlib.sha256(" ".join(x.hex() for x in [*omega.tolist(), *c_star.tolist()]).encode())
        assert digest.hexdigest() == WIDE_CANDIDATES_SHA256

    @pytest.mark.parametrize("delta", [0.0, 8.3e-15, 1e-12, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7])
    @pytest.mark.parametrize("row", range(len(FLAT_BANDS)))
    def test_exact_flat_capacitance_keeps_the_flat_band(self, cell, row, delta):
        # Regression: at and near C* the whole flat band lay inside the guard
        # of its own pole. At C* itself that pole was classified removable
        # and kept, but from 8.3e-15 to +-1e-8 relative off C* the flat
        # branch was missing (for band 1, branch 1 started at 16.3 Mrad/s)
        # and stopbands returned 3 intervals; at 1e-7 bands 3 and 4 still
        # came out with 137 and 43 samples. The spread is at most about
        # 15*|delta|.
        index, omega_star, _ = FLAT_BANDS[row]
        near = cell.with_c_over_s(C_STARS[row] * (1.0 + delta))
        branches = bs.trace_branches(near)
        assert [len(b) for b in branches] == [200] * (3 if index == 1 else 4)
        assert [b.index for b in bs.detect_flat_bands(branches)] == [index]
        flat = branches[index - 1]
        assert bs.branch_flatness(flat) <= 20.0 * abs(delta) + 1e-9
        assert np.min(flat.omega) == pytest.approx(omega_star, rel=1e-7 + 20.0 * abs(delta))
        intervals = bs.stopbands(near)
        assert len(intervals) == 4
        if delta == 0.0:
            # A flat band of zero width: two stop intervals share its edge.
            assert bs.branch_flatness(flat) == 0.0
            shared = [a.omega_hi for a, b in zip(intervals, intervals[1:]) if a.omega_hi == b.omega_lo]
            assert flat.omega[0] in shared

    def test_find_flat_capacitance_decides_on_one_scan(self, cell, monkeypatch):
        # The one candidate is decided flat on the brackets of its scan:
        # after the candidates come one scan and no root refinement, so no
        # root search, bisection or g_t evaluation (_cell_parts).
        names = ("trace_branches", "scan_frequencies", "_scan_roots_batch", "_bisect", "_cell_parts")
        calls = dict.fromkeys(names, 0)
        candidates = bs._flat_band_candidates

        def then_count(*args):
            found = candidates(*args)
            for name in calls:
                monkeypatch.setattr(bs, name, counted_calls(calls, name, getattr(bs, name)))
            return found

        monkeypatch.setattr(bs, "_flat_band_candidates", then_count)
        assert bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6)) == C_STAR
        assert calls == {**dict.fromkeys(names, 0), "scan_frequencies": 1}

    def test_first_branch_check_matches_the_full_trace(self):
        # Every candidate C*/S inside the negative-stiffness interval is
        # judged on the scan brackets of each K's lowest root, and traced
        # where they leave the verdict open; the verdict must be that of
        # branch 1 of the full trace on the same scan.
        draws = np.random.default_rng(3)
        cells = [default_cell()] + [random_cell(draws, allow_zero_e=False) for _ in range(300)]
        checked = flat = 0
        for cell, scale in itertools.product(cells, (1.0, 10.0)):
            omega_max = scale * bs.default_omega_max(cell)
            c_inf, c_zero = special_capacitances(cell)
            _, c_star = bs._flat_band_candidates(cell, omega_max)
            for gamma in c_star[(c_star > c_zero) & (c_star < c_inf)].tolist():
                shunted = cell.with_c_over_s(gamma)
                scan = bs.scan_frequencies(shunted, omega_max)
                verdict = bs._first_branch_is_flat(scan, 40, bs.DEFAULT_FLATNESS_TOL)
                branches = bs.trace_branches(shunted, 40, scan=scan)
                assert verdict == (bs.detect_flat_bands(branches[:1]) != [])
                flat += verdict
                checked += 1
        assert checked >= 300 and 0 < flat < checked

    def test_open_verdict_is_traced(self, cell, monkeypatch):
        # On the shipped bracket the candidate's scan brackets decide it
        # flat at the default tolerance; at 1e-4 they leave the verdict open
        # and branch 1 comes from trace_branches itself, one call, so a
        # traced search counts the trace it runs. Both find the same C*.
        calls, found = {"trace_branches": 0}, []
        monkeypatch.setattr(bs, "trace_branches", counted_calls(calls, "trace_branches", bs.trace_branches))
        for tol, traces in ((1e-4, 1), (1e-3, 0)):
            calls["trace_branches"] = 0
            found.append(bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6), flatness_tol=tol))
            assert calls["trace_branches"] == traces
        assert found == [C_STAR, C_STAR]

    def test_find_flat_capacitance_rejects_bad_k_points(self, cell, monkeypatch):
        # Checked before any scan or candidate search, whatever the bracket.
        # Regression: a bracket with no candidate, or one outside the
        # negative-stiffness interval, raised BracketError instead, and a
        # good one paid the candidate search before the ValueError.
        calls = {name: 0 for name in ("scan_frequencies", "monodromy_entries", "_cell_parts")}
        for name in calls:
            monkeypatch.setattr(bs, name, counted_calls(calls, name, getattr(bs, name)))
        for bracket in ((-16.5e-6, -16.2e-6), (-15.95e-6, -15.9e-6), (-15e-6, -14e-6)):
            with pytest.raises(ValueError, match="k_points must be at least 2") as error:
                bs.find_flat_capacitance(cell, bracket, k_points=1)
            assert not isinstance(error.value, bs.BracketError)
        assert calls == {"scan_frequencies": 0, "monodromy_entries": 0, "_cell_parts": 0}

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="flatness_tol"):
            bs.detect_flat_bands([], tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_find_flat_capacitance_rejects_bad_tolerance_before_scanning(
        self, cell, monkeypatch, tol
    ):
        # The same ValueError as detect_flat_bands, raised before the search
        # spends a scan or a kernel call on a verdict it cannot reach.
        calls = {name: 0 for name in ("scan_frequencies", "monodromy_entries", "_cell_parts")}
        for name in calls:
            monkeypatch.setattr(bs, name, counted_calls(calls, name, getattr(bs, name)))
        with pytest.raises(ValueError, match="flatness_tol must be positive and finite"):
            bs.find_flat_capacitance(cell, (-16.5e-6, -16.2e-6), flatness_tol=tol)
        assert calls == {"scan_frequencies": 0, "monodromy_entries": 0, "_cell_parts": 0}

    def test_same_sign_bracket_raises(self, cell):
        with pytest.raises(bs.BracketError, match=r"no C\*/S = 1/M3\(omega\*\)"):
            bs.find_flat_capacitance(cell, (-17.3e-6, -17.0e-6), k_points=80)

    def test_bracket_outside_interval_raises(self, cell):
        with pytest.raises(bs.BracketError, match="interval"):
            bs.find_flat_capacitance(cell, (-15e-6, -14e-6), k_points=80)

    @pytest.mark.parametrize("end", ["pole", "zero"])
    def test_bracket_end_in_a_snap_window_raises(self, cell, monkeypatch, end):
        # Regression: an end within quasistatic._MATCH_RTOL of Cinf/S or C0/S
        # lies inside the open interval, yet effective_model classes it POLE
        # or ZERO, where branch 1 can hold the origin; both brackets returned
        # the shipped C*. The ends are tested without an effective_model call.
        c_inf, c_zero = special_capacitances(cell)
        bracket = (-16.5e-6, c_inf * (1.0 + 1e-13)) if end == "pole" else (c_zero * (1.0 - 1e-13), -16.2e-6)
        assert c_zero < min(bracket) and max(bracket) < c_inf
        calls = {"effective_model": 0}
        monkeypatch.setattr(bs, "effective_model", counted_calls(calls, "effective_model", bs.effective_model))
        with pytest.raises(bs.BracketError, match="interval"):
            bs.find_flat_capacitance(cell, bracket)
        assert calls == {"effective_model": 0}


def counted_calls(calls, name, func):
    """func, counting its calls in calls[name]."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return func(*args, **kwargs)

    return counted


def phase_levels(cell, omega_max):
    """How many levels k*pi >= 0 the phase theta of r reaches below omega_max.

    Independent arctan form: theta = t1*omega + 2*Phi(t2*omega/2) - pi with
    Phi(x) = arctan(zeta*tan x) + pi*round(x/pi), zeta = Z2/Z1.
    """
    el, pz = cell.elastic, cell.piezo
    x = 0.5 * pz.d * pz.slowness * omega_max
    phi = math.atan(pz.impedance / el.impedance * math.tan(x)) + math.pi * round(x / math.pi)
    theta = el.d * el.slowness * omega_max + 2.0 * phi - math.pi
    return math.floor(theta / math.pi) + 1


def r_sign_changes(cell, omega):
    """Strict sign changes of r from _cell_parts between consecutive omega."""
    sign = np.sign(_cell_parts(cell, omega)[1])
    return np.count_nonzero(sign[:-1] * sign[1:] < 0.0)


def r_changes_sign_across(cell, omega_star, rtol):
    r = _cell_parts(cell, np.outer([1.0 - rtol, 1.0 + rtol], omega_star))[1]
    return bool(np.all(np.sign(r[0]) * np.sign(r[1]) < 0.0))


class TestFlatBandPhase:
    @pytest.mark.parametrize("zeta, count", [(3e-5, 3), (1e5, 4)])
    def test_extreme_impedance_mismatch_keeps_every_flat_band(self, zeta, count):
        # Regression: the roots of r came from sign changes on an 8001-point
        # probe, which found 1 of these 3 flat bands at zeta = Z2/Z1 = 3e-5
        # and 2 of 4 at 1e5: pairs of roots 2.2 krad/s (at 14.45 Mrad/s) and
        # 382 rad/s (at 28.9 Mrad/s) apart fell between two probe nodes.
        pz = default_cell().piezo
        z1 = pz.impedance / zeta
        cell = ShuntedCell(ElasticLayer(rho=z1 / 5000.0, c=z1 * 5000.0, d=1e-3), pz)
        omega_max = bs.default_omega_max(cell)
        omega_star, c_star = bs._flat_band_candidates(cell, omega_max)
        assert omega_star.size == c_star.size == count == phase_levels(cell, omega_max)
        assert r_sign_changes(cell, np.linspace(0.0, omega_max, 2_000_001)) == count
        assert r_changes_sign_across(cell, omega_star, 1e-12)

    def test_one_flat_band_per_phase_level(self):
        # theta rises, so r changes sign once per level k*pi it reaches: the
        # candidates are all the sign changes of r, none missed or doubled.
        draws = np.random.default_rng(0)
        cells = [default_cell()] + [random_cell(draws, allow_zero_e=False) for _ in range(300)]
        for cell in cells:
            for scale in (1.0, 10.0, 50.0):
                omega_max = scale * bs.default_omega_max(cell)
                omega_star, _ = bs._flat_band_candidates(cell, omega_max)
                assert np.all(np.diff(omega_star) > 0.0)
                assert omega_star.size == phase_levels(cell, omega_max)
                assert omega_star.size == r_sign_changes(cell, np.linspace(0.0, omega_max, 20_001))
                assert r_changes_sign_across(cell, omega_star, 1e-12)


# Draws 265 and 532 (0-based) of random_cell(default_rng(1), allow_zero_e=False),
# each moved to C0/S + u*(Cinf/S - C0/S) with u = rng.uniform(0.02, 0.98):
# weakly coupled (k^2 = 3.8e-4 and 2.3e-5), with a pole right above a band.
WEAK_COUPLING = [
    (
        ShuntedCell(
            ElasticLayer(rho=12205.527837186306, c=6537732852.631718, d=0.003811619768441258),
            PiezoLayer(rho=5224.920322585748, cE=351228926455.84766, e=-1.8231527009873578,
                       eps=2.4839590464131953e-08, d=0.0001234157739463201),
            -0.00020134422079697166,
        ),
        3, (1.78388e6, 1.78495e6),
    ),
    (
        ShuntedCell(
            ElasticLayer(rho=7831.143901791784, c=4692271068.814354, d=0.000374792068337424),
            PiezoLayer(rho=13086.643517706181, cE=280170739845.3414, e=0.5003841419439744,
                       eps=3.904564942302598e-08, d=0.00022402111801110217),
            -0.00017429847058787447,
        ),
        1, (3.36929e6, 3.55202e6),
    ),
]


class TestWeakCoupling:
    @pytest.mark.parametrize("cell, index, band", WEAK_COUPLING, ids=["draw265", "draw532"])
    def test_band_next_to_a_pole_is_kept(self, cell, index, band):
        # Regression: the guard around the pole grew to 21% of the pole
        # frequency ([1.644, 2.040] and [3.333, 4.134] Mrad/s) and swallowed
        # this band: 3 branches and 4 stop intervals, and in the second
        # cell every branch label shifted down by one. The band's range is
        # that of |h| <= 1 on a 200 001-point grid.
        branches = bs.trace_branches(cell)
        assert [len(b) for b in branches] == [200, 200, 200, 200]
        omega = branches[index - 1].omega
        assert np.min(omega) == pytest.approx(band[0], rel=1e-5)
        assert np.max(omega) == pytest.approx(band[1], rel=1e-5)
        assert len(bs.stopbands(cell)) == 5

    def test_nodes_where_the_denominator_rounds_to_zero_are_dropped(self):
        # Regression: with k^2 = 1e-11, S/C - M3 rounds to 0 over some 400
        # rad/s around the pole. A scan node there had a nan half-trace, with a
        # RuntimeWarning, and stopbands then judged the stop interval that
        # holds the pole to be a pass interval. (With guards, the same cell
        # lost the pass band below the pole instead: 3 stop intervals.)
        cell = ShuntedCell(
            ElasticLayer(rho=2497.5781723749765, c=9611359457.756977, d=0.0013146730844866212),
            PiezoLayer(rho=4447.0008688036505, cE=27019050667.788, e=0.00012323407480432084,
                       eps=5.390648441095975e-08, d=0.0005088045633313426),
            -0.00010594732888898348,
        )
        scan = bs.scan_frequencies(cell)
        assert np.isfinite(scan.values).all()
        intervals = bs.stopbands(cell, scan=scan)
        assert len(intervals) == 4
        assert any(s.omega_lo < scan.poles[0] < s.omega_hi for s in intervals)


class TestRandomizedConsistency:
    def test_invariants_across_random_cells_and_regimes(self):
        # Each trial draws a random material set and a shunt setting from a
        # different regime (interior, near-pole, below-zero, near the
        # removable point) and checks the solver invariants end to end.
        rng = np.random.default_rng(20240809)
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
            for interval in intervals:
                inside = (samples > interval.omega_lo) & (samples < interval.omega_hi)
                assert not inside.any()
            edges = inner_edges(intervals, scan.omega_max)
            assert np.isin(edges, zone_edge_samples(c2, branches)).all()

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
