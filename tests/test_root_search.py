"""Array root search against the plain loops it replaced, and against tight answers.

The bracket search, the compacting bisection and the stopband interval
classification must reproduce, bit for bit, the per-target bracket loop,
the uncompacted bisection loop and the per-interval classification loop
kept below as references. The group velocity of whole branches is held to
central differences of the half-trace. In a scan interval that holds a pole the references
bracket and bisect the pole-free numerator g_t = (S/C - M3)*(h - t). A
scan of exactly the default window is bisected: every bracket set
evaluates several predicted passes a call, and the roots are held to the
plain loop bit for bit, at every rtol and whether the predictions hold or
not. Scans of every other window, narrower or wider, take verified
Chebyshev-proxy roots of h - t instead and bisect g_t: those roots are
held to roots bisected to 1e-15 on the plain formulas of the kernel
tests, and every proxy root, bit for bit, to a compacting form of the
locator kept below.
"""

import math

import numpy as np
import pytest

from piezoband import band_structure as bs
from piezoband import transfer_matrix
from piezoband.materials import default_cell
from piezoband.quasistatic import special_capacitances

from conftest import central_group_velocity, random_cell
from test_transfer_matrix import (
    plain_elastic_entries,
    plain_half_trace,
    plain_m0_entries,
    plain_shunt_terms,
)


def denominator_signs(scan):
    """sign(S/C - M3) at every scan node; ones where the shunt is inactive."""
    if not transfer_matrix.has_shunt_correction(scan.cell):
        return np.ones(scan.nodes.size)
    return np.sign(transfer_matrix.shunt_denominator(scan.cell, scan.nodes))


def reference_hits(scan, targets):
    """Per-target loop: (interval, target, f_lo) brackets and (node, target) zeros.

    Unblocked intervals test f = h - t, blocked ones g = sign(S/C - M3)*f.
    """
    brackets, zeros = set(), set()
    sign = denominator_signs(scan)
    for j, target in enumerate(targets):
        f = scan.values - target
        g = sign * f
        zeros |= {(int(i), j) for i in np.nonzero(f == 0.0)[0]}
        idx = np.nonzero((f[:-1] * f[1:] < 0.0) & ~scan.blocked)[0]
        brackets |= {(int(i), j, float(f[i])) for i in idx}
        idx = np.nonzero((g[:-1] * g[1:] < 0.0) & scan.blocked)[0]
        brackets |= {(int(i), j, float(g[i])) for i in idx}
    return brackets, zeros


def reference_bisect(func, lo, hi, f_lo, *, rtol, residual_tol=None, max_iter=200):
    """Uncompacted bisection: every pass evaluates func on every bracket.

    Returns the roots and, per bracket, the number of passes it took.
    """
    lo, hi, f_lo = (np.array(a, dtype=float) for a in (lo, hi, f_lo))
    result = 0.5 * (lo + hi)
    done = np.zeros(lo.shape, dtype=bool)
    took = np.zeros(lo.shape, dtype=int)
    passes = 0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        stuck = ~done & ((mid <= lo) | (mid >= hi))
        f_mid = func(mid)
        passes += 1
        exact = f_mid == 0.0
        same_side = (f_mid > 0) == (f_lo > 0)
        move_lo = ~done & same_side & ~exact
        move_hi = ~done & ~same_side & ~exact
        new_lo = np.where(move_lo, mid, lo)
        new_f_lo = np.where(move_lo, f_mid, f_lo)
        new_hi = np.where(move_hi, mid, hi)
        converged = (new_hi - new_lo) <= rtol * np.abs(mid)
        if residual_tol is not None:
            converged &= np.abs(f_mid) <= residual_tol
        newly_done = ~done & (stuck | converged | exact)
        result = np.where(newly_done, mid, result)
        took[newly_done] = passes
        done |= newly_done
        lo, hi, f_lo = new_lo, new_hi, new_f_lo
        if done.all():
            break
    return result, took


def reference_roots(scan, targets):
    """Per-target bracket lists refined in uncompacted bisection runs.

    Brackets of h - t are refined on h - t to ROOT_RTOL and RESIDUAL_TOL,
    brackets in blocked intervals on g_t = (S/C - M3)*(h0 - t) + r to
    ROOT_RTOL alone.
    """
    sign = denominator_signs(scan)
    exact = []
    found = {False: [], True: []}
    for j, target in enumerate(targets):
        f = scan.values - target
        g = sign * f
        exact.append(scan.nodes[f == 0.0])
        for at_pole, v in ((False, f), (True, g)):
            idx = np.nonzero((v[:-1] * v[1:] < 0.0) & (scan.blocked == at_pole))[0]
            found[at_pole].append((scan.nodes[idx], scan.nodes[idx + 1], v[idx], np.full(idx.size, j)))

    def numerator(x, tgt):
        h0, r, M3 = transfer_matrix._cell_parts(scan.cell, x)
        return (1.0 / scan.cell.c_over_s - M3) * (h0 - tgt) + r

    roots, owner = [], []
    for at_pole, brackets in found.items():
        lo, hi, f_lo, own = (np.concatenate(a) for a in zip(*brackets))
        tgt = targets[own]
        if at_pole:
            func, kwargs = (lambda x: numerator(x, tgt)), dict(rtol=bs.ROOT_RTOL)
        else:
            func = lambda x: bs.half_trace_values(scan.cell, x) - tgt
            kwargs = dict(rtol=bs.ROOT_RTOL, residual_tol=bs.RESIDUAL_TOL)
        roots.append(reference_bisect(func, lo, hi, f_lo, **kwargs)[0] if lo.size else lo)
        owner.append(own)
    roots, owner = np.concatenate(roots), np.concatenate(owner)
    return [np.sort(np.concatenate([exact[j], roots[owner == j]])) for j in range(len(targets))]


def reference_interval_is_stop(scan, lo, hi):
    """Per-interval loop: classify (lo, hi) by its sampled interior."""
    if hi <= lo:
        return False
    i0, i1 = np.searchsorted(scan.nodes, [lo, hi])
    interior = scan.values[i0:i1][(scan.nodes[i0:i1] > lo) & (scan.nodes[i0:i1] < hi)]
    if interior.size:
        return bool(np.max(np.abs(interior)) > 1.0)
    mid = 0.5 * (lo + hi)
    return abs(float(bs.half_trace_values(scan.cell, mid))) > 1.0


def shunted_cell(draws):
    """A random cell, moved into its negative-stiffness interval half the time.

    Inside that interval the shunt resonance sits in the scan window, so
    the scan has blocked intervals.
    """
    cell = random_cell(draws)
    if cell.piezo.e != 0.0 and draws.random() < 0.5:
        c_inf, c_zero = special_capacitances(cell)
        cell = cell.with_c_over_s(float(c_zero + draws.uniform(0.05, 0.95) * (c_inf - c_zero)))
    return cell


def awkward_targets(scan, rng):
    """Unsorted targets with duplicates, scan values and values at poles.

    Next to a pole the half-trace runs off to +-inf. A target between the
    end values of a blocked interval is crossed there an even number of
    times; one above both is crossed once on the steep flank, which is a
    root of g_t in that interval.
    """
    cos_grid = np.cos(np.linspace(0.0, math.pi, 24))
    node_values = rng.choice(scan.values[np.abs(scan.values) <= 1.0], 6)
    blocked = np.nonzero(scan.blocked)[0]
    ends = np.stack([scan.values[blocked], scan.values[blocked + 1]])
    across_poles = ends.mean(axis=0)
    beyond_poles = ends.max(axis=0) + np.abs(ends).max(axis=0)
    targets = np.concatenate([
        cos_grid, cos_grid[:5], node_values, node_values[:2], across_poles, beyond_poles,
        rng.uniform(-1, 1, 8),
    ])
    return rng.permutation(targets)


def test_bracket_search_matches_per_target_loop():
    rng = np.random.default_rng(11)
    draws = np.random.default_rng(0)
    seen_poles = seen_pole_brackets = seen_zeros = 0
    for _ in range(300):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        targets = awkward_targets(scan, rng)
        (interval, owner, f_lo), (node, zero_owner) = bs._target_hits(scan, targets)
        got = set(zip(interval.tolist(), owner.tolist(), f_lo.tolist()))
        expected_brackets, expected_zeros = reference_hits(scan, targets)
        assert got == expected_brackets
        assert len(got) == interval.size
        assert set(zip(node.tolist(), zero_owner.tolist())) == expected_zeros
        # Brackets in blocked intervals come last, for the g_t bisection.
        at_pole = scan.blocked[interval]
        assert np.all(np.diff(at_pole.astype(int)) >= 0)
        seen_poles += bool(scan.blocked.any())
        seen_pole_brackets += bool(at_pole.any())
        seen_zeros += bool(node.size)
    assert seen_poles >= 50 and seen_pole_brackets >= 50 and seen_zeros >= 250


def test_bracket_test_is_the_strict_product_test():
    # The product of 1e-200 and -1e-200 underflows to -0.0, so the strict
    # test f_lo*f_hi < 0 rejects that sign change, and so must the search.
    scan = bs.FrequencyScan(
        cell=default_cell(), omega_max=3.0, nodes=np.array([0.0, 1.0, 2.0, 3.0]),
        values=np.array([1e-200, -1e-200, 0.5, 0.25]), poles=np.empty(0),
        blocked=np.zeros(3, dtype=bool),
    )
    targets = np.array([0.0, 0.25, 0.25])
    (interval, owner, f_lo), (node, zero_owner) = bs._target_hits(scan, targets)
    brackets, zeros = reference_hits(scan, targets)
    assert set(zip(interval.tolist(), owner.tolist(), f_lo.tolist())) == brackets
    assert set(zip(node.tolist(), zero_owner.tolist())) == zeros == {(3, 1), (3, 2)}
    assert brackets == {(1, 0, -1e-200), (1, 1, -0.25), (1, 2, -0.25)}


def assert_bisection_matches_plain_loop(func, lo, hi, f_lo, f_hi=None, check_mids=True, **kwargs):
    """_bisect on func(x, live) equals the plain loop bit for bit.

    With ``_MAX_LEVELS`` = 1 a bisection evaluates each bracket in exactly
    the passes the plain loop takes for it, one call a pass. A speculative
    one evaluates every mid of the plain loop (unless not check_mids), in
    no more calls than the plain loop makes passes. f_hi defaults to func
    at hi. Returns the number of func calls.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    everywhere = np.arange(lo.size)
    if f_hi is None:
        f_hi = func(hi, everywhere)
    calls, evaluated = [], []

    def live_func(x, live):
        calls.append(x.size)
        evaluated.append(live + 1j * x)  # (bracket, point) keys
        return func(x, live)

    roots = bs._bisect(live_func, lo, hi, f_lo, f_hi, **kwargs)
    mids = []

    def plain(x):
        mids.append(x)
        return func(x, everywhere)

    expected, took = reference_bisect(plain, lo, hi, f_lo, **kwargs)
    assert roots.tobytes() == expected.tobytes()
    keys = np.concatenate([np.empty(0, dtype=complex)] + evaluated)
    if bs._MAX_LEVELS == 1:
        assert np.bincount(keys.real.astype(int), minlength=lo.size).tolist() == took.tolist()
        assert len(calls) == took.max(initial=0)
    else:
        plain_mids = [everywhere[took > n] + 1j * x[took > n] for n, x in enumerate(mids)]
        assert not check_mids or np.isin(np.concatenate(plain_mids), keys).all()
        assert len(calls) <= took.max(initial=0)
    return len(calls)


def plain_brackets(scan, targets):
    """The brackets of h - t; those in blocked intervals, bisected on g_t,
    are compared end to end by the batched-roots test."""
    (interval, owner, f_lo), _ = bs._target_hits(scan, targets)
    plain = ~scan.blocked[interval]
    interval, owner, f_lo = interval[plain], owner[plain], f_lo[plain]
    func = lambda x, live: bs.half_trace_values(scan.cell, x) - targets[owner[live]]
    return func, scan.nodes[interval], scan.nodes[interval + 1], f_lo


def test_compacting_bisection_matches_plain_loop():
    draws = np.random.default_rng(3)
    rng = np.random.default_rng(4)
    kwargs = dict(rtol=bs.ROOT_RTOL, residual_tol=bs.RESIDUAL_TOL)
    for _ in range(40):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        brackets = plain_brackets(scan, awkward_targets(scan, rng))
        assert_bisection_matches_plain_loop(*brackets, **kwargs)
    # Full size: every K target of a trace on the 50x window, about 40 000
    # brackets, six passes a call like any other set: 8 calls, where one
    # pass a call takes 38.
    cell = default_cell(-11e-6)
    scan = bs.scan_frequencies(cell, 50.0 * bs.default_omega_max(cell))
    targets = np.cos(np.linspace(0.0, math.pi, bs.DEFAULT_K_POINTS))
    func, lo, hi, f_lo = plain_brackets(scan, targets)
    assert lo.size > 35_000
    assert assert_bisection_matches_plain_loop(func, lo, hi, f_lo, **kwargs) <= 10


def mids_per_pass(func, lo, hi, f_lo, **kwargs):
    """(open brackets, distinct mids among them) in each pass of the plain loop."""
    mids = []

    def record(x):
        mids.append(x)
        return func(x)

    _, took = reference_bisect(record, lo, hi, f_lo, **kwargs)
    return [(np.count_nonzero(took > npass), np.unique(x[took > npass]).size)
            for npass, x in enumerate(mids)]


def counted(monkeypatch, name):
    """Patch the band_structure kernel ``name`` to log the points of each call."""
    points, kernel = [], getattr(bs, name)

    def count(cell, x):
        points.append(np.array(x, dtype=float).ravel())
        return kernel(cell, x)

    monkeypatch.setattr(bs, name, count)
    return points


def plain_mids(func, lo, hi, f_lo, **kwargs):
    """The distinct mids of the plain loop, over the brackets still open in each pass."""
    mids = []

    def record(x):
        mids.append(x)
        return func(x)

    _, took = reference_bisect(record, lo, hi, f_lo, **kwargs)
    return np.unique(np.concatenate([x[took > npass] for npass, x in enumerate(mids)]))


def assert_roots_match_reference(scan, targets, expected):
    roots, counts = bs._scan_roots_batch(scan, targets)
    groups = np.split(roots, np.cumsum(counts)[:-1])
    assert [g.tobytes() for g in groups] == [e.tobytes() for e in expected]


TIGHT_RTOL = 1e-15
K_TARGETS = np.cos(np.linspace(0.0, math.pi, bs.DEFAULT_K_POINTS))


def plain_numerator(cell, omega, target):
    """g_t = (S/C - M3)*(h0 - t) + r from the plain formulas, pole-free.

    h = h0 + r/(S/C - M3): h0 is the open-circuit half-trace and r the
    half-trace of the rank-1 shunt terms M1*M2, M1^2, M2^2 times the
    elastic layer's matrix.
    """
    pz = cell.piezo
    a11, a12, a21, a22 = plain_elastic_entries(cell, omega)
    b11, b12, b21, b22 = plain_m0_entries(pz.rho, pz.cD, pz.d, omega)
    h0 = 0.5 * (b11 * a11 + b12 * a21 + b21 * a12 + b22 * a22)
    M1, M2, M3 = plain_shunt_terms(cell, omega)
    r = 0.5 * (M1 * M2 * (a11 + a22) + M1 * M1 * a21 + M2 * M2 * a12)
    return (1.0 / cell.c_over_s - M3) * (h0 - target) + r


def tight_roots(scan, targets):
    """The roots of every target, bisected to TIGHT_RTOL on the plain formulas.

    Brackets are the sign changes of h - t between the scan's nodes, h from
    ``plain_half_trace``, or in blocked intervals of g = sign(S/C - M3)*(h
    - t), which is bisected as ``plain_numerator``; node zeros are roots as
    they are. Returns (roots, counts, on_h): the roots grouped by target
    and sorted within each group, the number of each target's roots, and
    which roots were not found on g_t.
    """
    cell, nodes = scan.cell, scan.nodes
    values = plain_half_trace(cell, nodes)
    sign = np.ones(nodes.size)
    if transfer_matrix.has_shunt_correction(cell):
        sign = np.sign(1.0 / cell.c_over_s - plain_shunt_terms(cell, nodes)[2])
    zeros, found = [], {False: [], True: []}
    for j, target in enumerate(targets):
        f = values - target
        zero = np.flatnonzero(f == 0.0)
        zeros.append((nodes[zero], np.full(zero.size, j)))
        for at_pole, v in ((False, f), (True, sign * f)):
            i = np.flatnonzero((v[:-1] * v[1:] < 0.0) & (scan.blocked == at_pole))
            found[at_pole].append((nodes[i], nodes[i + 1], v[i], np.full(i.size, j)))
    roots, owners = (list(a) for a in zip(*zeros))
    on_h = [np.ones(r.size, dtype=bool) for r in roots]
    for at_pole, group in found.items():
        lo, hi, f_lo, owner = (np.concatenate(a) for a in zip(*group))
        if not lo.size:
            continue
        t = targets[owner]
        func = (lambda x: plain_numerator(cell, x, t)) if at_pole else (lambda x: plain_half_trace(cell, x) - t)
        roots.append(reference_bisect(func, lo, hi, f_lo, rtol=TIGHT_RTOL)[0])
        owners.append(owner)
        on_h.append(np.full(lo.size, not at_pole))
    roots, owners, on_h = map(np.concatenate, (roots, owners, on_h))
    order = np.lexsort((roots, owners))
    return roots[order], np.bincount(owners, minlength=targets.size), on_h[order]


def assert_roots_near_tight_reference(scan, targets):
    """_scan_roots_batch against ``tight_roots``: the same number of roots for
    every target (so the same branches and samples), each within
    ROOT_RTOL/2 of its tight root, and each one not found on g_t with a
    plain residual |h - t| within RESIDUAL_TOL. Where |h'| is so steep that
    no float meets it, the root must be as close as the tight root can
    tell, 2*TIGHT_RTOL. Returns the number of roots found on g_t."""
    roots, counts = bs._scan_roots_batch(scan, targets)
    expected, expected_counts, on_h = tight_roots(scan, targets)
    assert counts.tolist() == expected_counts.tolist()
    error = np.abs(roots - expected)
    assert np.all(error <= bs.ROOT_RTOL / 2 * expected)
    owner = np.repeat(np.arange(targets.size), counts)
    residual = np.abs(plain_half_trace(scan.cell, roots) - targets[owner])
    assert np.all((residual <= bs.RESIDUAL_TOL) | (error <= 2 * TIGHT_RTOL * expected) | ~on_h)
    return np.count_nonzero(~on_h)


def flat_band_capacitances():
    """The four flat-band C*/S of the shipped cell below default_omega_max."""
    cell = default_cell()
    _, c_star = bs._flat_band_candidates(cell, bs.default_omega_max(cell))
    assert np.round(c_star * 1e6, 3).tolist() == [-16.312, -12.65, -12.624, -13.18]
    return c_star.tolist()


@pytest.mark.parametrize(
    "c_over_s, factor",
    [(c, f) for c in ("C*", 0.0, -11e-6, -13.3e-6, -16.7e-6) for f in (10.0, 50.0)],
)
def test_wide_window_roots_match_tight_reference(c_over_s, factor):
    # Every K target of a trace on the 10x and 50x windows, also at the four
    # flat-band C*, where 200 targets meet omega* in a blocked interval and
    # are bisected on g_t.
    if c_over_s == "C*":
        cells = [default_cell(c) for c in flat_band_capacitances()]
    else:
        cells = [default_cell(c_over_s)]
    on_g = 0
    for cell in cells:
        scan = bs.scan_frequencies(cell, factor * bs.default_omega_max(cell))
        on_g += assert_roots_near_tight_reference(scan, K_TARGETS)
    assert on_g >= (4 * K_TARGETS.size if c_over_s == "C*" else 0)


def test_random_cell_roots_match_tight_reference():
    # 60 random cells on the 10x window, half of them shunted into their
    # negative-stiffness interval, with awkward targets: node zeros,
    # duplicates, and targets across and beyond the poles (roots on g_t).
    draws, rng = np.random.default_rng(21), np.random.default_rng(22)
    blocked = on_g = 0
    for _ in range(60):
        cell = shunted_cell(draws)
        scan = bs.scan_frequencies(cell, 10.0 * bs.default_omega_max(cell), base_points=400)
        on_g += assert_roots_near_tight_reference(scan, awkward_targets(scan, rng))
        blocked += bool(scan.blocked.any())
    assert blocked >= 20 and on_g >= 20


def test_closed_gap_of_a_random_cell_is_smooth():
    # Draw 16 of the seed above has a t = 1 root at 1.0343 Mrad/s where two
    # roots agree to 13 digits (a closed gap). There S/C = -11 479 is close
    # to -d/eps = -11 483: formed as S/C - (h*M1 - d/eps), D = -0.018 lost
    # its digits, h - 1 carried 4.2e-11 of rounding noise and the verified
    # root landed 1.1e-10 from the tight root. A cubic fit to h over +-1e-9
    # relative (101 points) must leave at most 1e-12.
    draws = np.random.default_rng(21)
    for _ in range(17):
        cell = shunted_cell(draws)
    u = np.linspace(-1.0, 1.0, 101)
    h = bs.half_trace_values(cell, 1_034_270.53 * (1.0 + 1e-9 * u))
    assert abs(h[50] - 1.0) < 1e-8
    assert np.abs(h - np.polynomial.Polynomial.fit(u, h, 3)(u)).max() <= 1e-12


def test_random_cell_roots_match_tight_reference_on_narrow_windows():
    # 60 random cells on the 0.25x and 0.5x windows, which take verified
    # proxy roots like every window but the default, half of them shunted
    # into their negative-stiffness interval, with awkward targets.
    draws, rng = np.random.default_rng(26), np.random.default_rng(27)
    blocked = on_g = 0
    for i in range(60):
        cell = shunted_cell(draws)
        omega_max = (0.5 if i % 2 else 0.25) * bs.default_omega_max(cell)
        scan = bs.scan_frequencies(cell, omega_max, base_points=400)
        on_g += assert_roots_near_tight_reference(scan, awkward_targets(scan, rng))
        blocked += bool(scan.blocked.any())
    assert blocked >= 20 and on_g >= 20


def test_narrow_window_topology_holds_on_a_finer_grid():
    # 100 random cells, half shunted into their negative-stiffness interval,
    # on the 0.02x-0.5x windows: at the default window's node spacing and on
    # a grid 4x finer (base_points=4*DEFAULT_BASE_POINTS, at least the 2000
    # intervals a window from 0.25x up once took) the same branches, samples
    # and stopbands, with roots and edges within ROOT_RTOL.
    draws = np.random.default_rng(33)
    samples = gaps = blocked = 0
    for _ in range(100):
        cell = shunted_cell(draws)
        for factor in (0.02, 0.1, 0.25, 0.5):
            omega_max = factor * bs.default_omega_max(cell)
            spectra = []
            for base_points in (bs.DEFAULT_BASE_POINTS, 4 * bs.DEFAULT_BASE_POINTS):
                scan = bs.scan_frequencies(cell, omega_max, base_points=base_points)
                spectra.append((bs.trace_branches(cell, 40, scan=scan), bs.stopbands(cell, scan=scan)))
            blocked += bool(scan.blocked.any())
            (branches, intervals), (fine_branches, fine_intervals) = spectra
            assert [len(b) for b in branches] == [len(b) for b in fine_branches]
            assert [g.quasistatic for g in intervals] == [g.quasistatic for g in fine_intervals]
            for branch, fine in zip(branches, fine_branches):
                assert np.all(np.abs(branch.omega - fine.omega) <= bs.ROOT_RTOL * fine.omega)
            edges = np.array([(g.omega_lo, g.omega_hi) for g in intervals]).reshape(-1, 2)
            fine_edges = np.array([(g.omega_lo, g.omega_hi) for g in fine_intervals]).reshape(-1, 2)
            assert np.all(np.abs(edges - fine_edges) <= bs.ROOT_RTOL * fine_edges)
            samples, gaps = samples + sum(map(len, branches)), gaps + len(intervals)
    # Measured: 10 956 samples, 431 stopbands and 98 scans with a pole.
    assert samples >= 10000 and gaps >= 400 and blocked >= 90


def test_c08_roots_match_tight_reference():
    # The origin-slope series of acceptance c08: nine C/S just above Cinf/S
    # on the quarter window, 400 K targets. The few roots whose verification
    # pair misses them are bisected and held to the same answers.
    cell = default_cell()
    c_inf, _ = special_capacitances(cell)
    targets = np.cos(np.linspace(0.0, math.pi, 400))
    for delta in np.logspace(-4, -2, 9) * abs(c_inf):
        scan = bs.scan_frequencies(cell.with_c_over_s(c_inf + float(delta)), bs.default_omega_max(cell) / 4.0)
        assert_roots_near_tight_reference(scan, targets)


def test_c08_cells_never_fall_back_to_bisection(monkeypatch):
    # The nine c08 cells at 400 K targets on the 0.02x to 0.5x windows and
    # the 10x one. Next to the origin h = 1 - O(omega^2), and rows k >= 1 of
    # _POWERS sum to up to 3e-14, not 0: a proxy of h itself leaks that 1
    # into every power and moved 12 roots (2/2/0/3/1 and 4 by window) out of
    # their verification pairs. Each interval is interpolated relative to
    # its first sample, so every proxy root is verified and none is bisected.
    cell = default_cell()
    c_inf, _ = special_capacitances(cell)
    targets = np.cos(np.linspace(0.0, math.pi, 400))
    bisect, fallbacks = bs._bisect, []

    def spy(func, lo, *args, **kwargs):
        fallbacks.append(lo.size)
        return bisect(func, lo, *args, **kwargs)

    scans = [
        bs.scan_frequencies(cell.with_c_over_s(c_inf + float(delta)), factor * bs.default_omega_max(cell))
        for factor in (0.02, 0.05, 0.1, 0.25, 0.5, 10.0) for delta in np.logspace(-4, -2, 9) * abs(c_inf)
    ]
    monkeypatch.setattr(bs, "_bisect", spy)
    for scan in scans:
        assert_roots_near_tight_reference(scan, targets)
    assert sum(fallbacks) == 0


@pytest.mark.parametrize("c_over_s", [-11e-6, -16.7e-6])
def test_only_the_default_window_is_bisected(c_over_s, monkeypatch):
    # The default sweep pins the default window's root bits: its search
    # makes no _proxy_roots call and equals the plain bisection loop bit
    # for bit. A narrower and a wider window take verified proxy roots.
    calls, proxy_roots = [], bs._proxy_roots

    def spy(*args):
        calls.append(args)
        return proxy_roots(*args)

    monkeypatch.setattr(bs, "_proxy_roots", spy)
    cell = default_cell(c_over_s)
    scan = bs.scan_frequencies(cell)
    assert scan.omega_max == bs.default_omega_max(cell)
    assert_roots_match_reference(scan, K_TARGETS, reference_roots(scan, K_TARGETS))
    assert calls == []
    for factor in (0.25, 2.0):
        bs._scan_roots_batch(bs.scan_frequencies(cell, factor * scan.omega_max), K_TARGETS)
        assert calls
        calls.clear()


def test_located_search_kernel_points(monkeypatch):
    # The 39 947 brackets of the -11 uF/m^2 50x trace: 7 proxy samples a
    # scan interval with brackets in one call, both points of every
    # verification pair in one more, and the few brackets left over
    # bisected (the plain loop takes 893 450 distinct mids, 22.4 a root).
    cell = default_cell(-11e-6)
    scan = bs.scan_frequencies(cell, 50.0 * bs.default_omega_max(cell))
    points = counted(monkeypatch, "half_trace_values")
    roots, _ = bs._scan_roots_batch(scan, K_TARGETS)
    assert roots.size > 39_900
    assert sum(x.size for x in points) <= 115_000
    assert len(points) <= 10


def proxy_samples(scan, interval):
    """(h, inverse, iv): the (9, m) Lobatto samples of h on the m scan
    intervals iv that hold brackets, as _proxy_roots takes them, and each
    bracket's column."""
    nodes = scan.nodes
    held = np.zeros(nodes.size, dtype=bool)
    held[interval] = True
    iv = np.flatnonzero(held)
    inverse = (np.cumsum(held, dtype=np.int32) - 1)[interval]
    a, b = nodes[iv], nodes[iv + 1]
    inner = bs.half_trace_values(scan.cell, a + (b - a) * (0.5 + 0.5 * bs._LOBATTO[1:-1, None]))
    return np.concatenate([scan.values[iv][None], inner, scan.values[iv + 1][None]]), inverse, iv


def reference_proxy_roots(scan, interval, target, positive, stats=None):
    """_proxy_roots with a compacting Newton.

    Every bracket's (9, n) table of h - t is formed whole; the three-level
    search reads it by row and column, and ``reference_newton`` gathers its
    open proxies every step. ``stats``, where given, counts the brackets
    whose samples of h - t are not monotone and those still open after two
    Newton steps.
    """
    nodes = scan.nodes
    h, inverse, iv = proxy_samples(scan, interval)
    a, b = nodes[iv], nodes[iv + 1]
    first = h[0]
    power = np.einsum("kj,jn->kn", bs._POWERS, h - first)
    root, slope = np.empty(target.size), np.empty(target.size)
    stats = {} if stats is None else stats
    for start in range(0, target.size, bs._BLOCK):
        block = slice(start, start + bs._BLOCK)
        k, t, pos = inverse[block], target[block], positive[block]
        f, coef = h[:, k] - t, power[:, k]
        coef[0] += first[k] - t
        col = np.arange(t.size)
        j = np.zeros(t.size, dtype=int)
        for width in (4, 2, 1):
            j = np.where((f[j + width, col] > 0.0) == pos, j + width, j)
        lo_s, hi_s, f_lo, f_hi = bs._LOBATTO[j], bs._LOBATTO[j + 1], f[j, col], f[j + 1, col]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = lo_s - f_lo * (hi_s - lo_s) / (f_hi - f_lo)
            open_counts = []
            dp = reference_newton(coef, u, lo_s, hi_s, pos, open_counts)
        step = np.diff(f, axis=0)
        monotone = (step >= 0.0).all(axis=0) | (step <= 0.0).all(axis=0)
        stats["non-monotone"] = stats.get("non-monotone", 0) + int(np.count_nonzero(~monotone))
        stats["late"] = stats.get("late", 0) + (open_counts[2] if len(open_counts) > 2 else 0)
        half = 0.5 * (b - a)[k]
        slope[block] = np.abs(dp) / half
        root[block] = a[k] + half * (1.0 + u)
    return root, slope


def reference_newton(coef, u, lo, hi, rising, open_counts):
    """_newton as a compacting loop: every step gathers the open proxies'
    columns, takes their steps and drops those whose step d moved them by
    at most ``_NEWTON_STOP``, or with d^3*1e4 <= ``_NEWTON_STOP``*d_prev^2
    after their own previous step d_prev, each keeping the p' of its own
    last step. lo or hi becomes each iterate exactly, and a step outside
    them their midpoint, by ``np.where``. Returns that p', also where the
    run did not stop, and appends the number of proxies each step evaluates
    to ``open_counts``."""
    dp, last = np.empty(u.size), np.zeros(u.size)
    todo, stop = np.arange(u.size), bs._NEWTON_STOP
    for _ in range(bs._NEWTON_STEPS):
        open_counts.append(todo.size)
        x = u[todo]
        p_x, dp_x = reference_horner(coef if todo.size == u.size else coef[:, todo], x)
        below = (p_x > 0.0) == rising[todo]
        a, b = np.where(below, x, lo[todo]), np.where(below, hi[todo], x)
        lo[todo], hi[todo] = a, b
        step = x - p_x / dp_x
        inside = ((step > a) & (step < b)) | (step == x)
        step = np.where(inside, step, 0.5 * (a + b))
        u[todo], dp[todo] = step, dp_x
        d, d_prev = np.abs(step - x), last[todo]
        last[todo] = d
        done = (d <= stop) | (d * d * d * 1e4 <= stop * d_prev * d_prev)
        todo = todo[~done]
        if not todo.size:
            break
    return dp


def reference_horner(coef, s):
    """The sum coef[k]*s^k over the rows of coef and its derivative, by Horner's rule."""
    p, dp = coef[-1].copy(), np.zeros_like(s)
    for row in coef[-2::-1]:
        dp = dp * s + p
        p = p * s + row
    return p, dp


def proxy_roots_against_reference(monkeypatch, searches):
    """Run ``_scan_roots_batch`` on each (scan, targets) with every
    ``_proxy_roots`` call held to ``reference_proxy_roots``: root and slope
    bit for bit on every bracket. Returns the reference's stats."""
    proxy_roots, stats = bs._proxy_roots, {}

    def checked(scan, interval, target, positive):
        root, slope = proxy_roots(scan, interval, target, positive)
        expected = reference_proxy_roots(scan, interval, target, positive, stats)
        assert root.tobytes() == expected[0].tobytes()
        assert slope.tobytes() == expected[1].tobytes()
        return root, slope

    monkeypatch.setattr(bs, "_proxy_roots", checked)
    for scan, targets in searches:
        bs._scan_roots_batch(scan, targets)
    return stats


@pytest.mark.parametrize("factor", [10.0, 50.0])
def test_proxy_roots_match_reference_on_the_shipped_cell(factor, monkeypatch):
    # The trace searches of the wide-window benchmark's cells and -13.3
    # uF/m^2, and searches of targets across and beyond their poles: the
    # in-place Newton keeps every bit of the compacting loop.
    rng, searches = np.random.default_rng(25), []
    for c_over_s in (0.0, -11e-6, -13.3e-6, -16.7e-6):
        cell = default_cell(c_over_s)
        scan = bs.scan_frequencies(cell, factor * bs.default_omega_max(cell))
        searches += [(scan, K_TARGETS), (scan, awkward_targets(scan, rng))]
    stats = proxy_roots_against_reference(monkeypatch, searches)
    assert stats["late"] > 0 and stats["non-monotone"] > 0


def test_proxy_roots_match_reference_on_random_cells(monkeypatch):
    # Coarse scans of random cells with awkward targets: some intervals'
    # samples are not monotone, and stopped proxies sit in place, with the
    # slope of their own last step, while slower ones in their block step on.
    draws, rng = np.random.default_rng(23), np.random.default_rng(24)
    searches = []
    for _ in range(30):
        cell = shunted_cell(draws)
        scan = bs.scan_frequencies(cell, 10.0 * bs.default_omega_max(cell), base_points=400)
        searches.append((scan, awkward_targets(scan, rng)))
    stats = proxy_roots_against_reference(monkeypatch, searches)
    assert stats["non-monotone"] > 0 and stats["late"] > 0


@pytest.mark.parametrize("move", ["shift", "far end"])
def test_mispredicted_proxy_roots_fall_back_to_bisection(move, monkeypatch):
    # Proxy roots moved 1e-6 relative, or to the far end of their bracket,
    # fail their verification pairs: those brackets are bisected from their
    # scan ends, and every root still matches the tight reference.
    cell = default_cell(-13.3e-6)
    scan = bs.scan_frequencies(cell, 10.0 * bs.default_omega_max(cell))
    proxy_roots, bisect, bisected = bs._proxy_roots, bs._bisect, []

    def wrong(scan, interval, target, positive):
        root, slope = proxy_roots(scan, interval, target, positive)
        if move == "shift":
            return root * (1.0 + 1e-6), slope
        lo, hi = scan.nodes[interval], scan.nodes[interval + 1]
        return np.where(root - lo < hi - root, hi, lo), slope

    def spy(func, lo, *args, **kwargs):
        bisected.append(lo.size)
        return bisect(func, lo, *args, **kwargs)

    monkeypatch.setattr(bs, "_proxy_roots", wrong)
    monkeypatch.setattr(bs, "_bisect", spy)
    assert_roots_near_tight_reference(scan, K_TARGETS)
    assert sum(bisected) > 7_000


@pytest.mark.parametrize("factor", [10.0, 50.0])
def test_roots_do_not_depend_on_other_targets(factor):
    # A root depends on its own bracket alone: every seventh K target, or
    # every fiftieth, gets the roots it gets among all 200, bit for bit.
    # The refiner is chosen per scan: a rule by the size of the bracket set
    # would bisect the smaller search and locate the larger one. At the
    # flat-band C* of branch 1 every target has a g_t root in a blocked
    # interval, next to the located h - t roots.
    for cell in (default_cell(-16.7e-6), default_cell(flat_band_capacitances()[0])):
        scan = bs.scan_frequencies(cell, factor * bs.default_omega_max(cell))
        roots, counts = bs._scan_roots_batch(scan, K_TARGETS)
        groups = np.split(roots, np.cumsum(counts)[:-1])
        for stride in (7, 50):
            subset, subset_counts = bs._scan_roots_batch(scan, K_TARGETS[::stride])
            assert subset_counts.tolist() == counts[::stride].tolist()
            assert subset.tobytes() == np.concatenate(groups[::stride]).tobytes()
    # The last scan, at C*, holds a g_t bracket for every target.
    (interval, _, _), _ = bs._target_hits(scan, K_TARGETS)
    assert np.count_nonzero(scan.blocked[interval]) >= K_TARGETS.size


def test_blocked_brackets_are_never_located(monkeypatch):
    # Every bracket of a blocked interval is bisected on g_t, on every
    # scan: the four flat-band C* traces on the 10x and 50x windows hold 200
    # each, one a K target, and no _proxy_roots call is handed one.
    proxy_roots, handed, blocked = bs._proxy_roots, [], 0

    def spy(*args):
        handed.append(np.count_nonzero(scan.blocked[args[1]]))
        return proxy_roots(*args)

    monkeypatch.setattr(bs, "_proxy_roots", spy)
    for c_over_s in flat_band_capacitances():
        cell = default_cell(c_over_s)
        for factor in (10.0, 50.0):
            scan = bs.scan_frequencies(cell, factor * bs.default_omega_max(cell))
            (interval, _, _), _ = bs._target_hits(scan, K_TARGETS)
            blocked += np.count_nonzero(scan.blocked[interval])
            bs._scan_roots_batch(scan, K_TARGETS)
    assert blocked == 8 * K_TARGETS.size
    assert len(handed) == 8 and sum(handed) == 0


def test_speculative_levels_evaluate_every_plain_mid(monkeypatch):
    # 799 brackets take 6 levels a call: the calls hold every mid of the
    # plain loop, and the levels that went against their prediction cost
    # under a tenth more points than the plain loop evaluates.
    cell = default_cell(-11e-6)
    scan = bs.scan_frequencies(cell)
    targets = np.cos(np.linspace(0.0, math.pi, bs.DEFAULT_K_POINTS))
    func, lo, hi, f_lo = plain_brackets(scan, targets)
    assert lo.size == 799
    plain = lambda x: func(x, np.arange(lo.size))
    kwargs = dict(rtol=bs.ROOT_RTOL, residual_tol=bs.RESIDUAL_TOL)
    distinct = plain_mids(plain, lo, hi, f_lo, **kwargs)
    plain_points = sum(size for size, _ in mids_per_pass(plain, lo, hi, f_lo, **kwargs))
    expected = reference_roots(scan, targets)
    points = counted(monkeypatch, "half_trace_values")
    assert_roots_match_reference(scan, targets, expected)
    evaluated = np.concatenate(points)
    assert np.isin(distinct, evaluated).all()
    assert evaluated.size < 1.1 * plain_points
    assert len(points) < 10


def test_flat_band_roots_in_shuffled_bracket_order(monkeypatch):
    # The 200 brackets of the blocked interval at the flat-band C* of
    # branch 1, in shuffled order. At C* every target converges on omega*;
    # at 1e-9 relative off C* the targets part after about ten passes. The
    # roots are the plain loop's either way: each depends on its own
    # bracket alone, not on where it sits among the others.
    target_hits, rng = bs._target_hits, np.random.default_rng(12)

    def shuffled(scan, targets):
        (interval, owner, f_lo), zeros = target_hits(scan, targets)
        at_pole = scan.blocked[interval]
        assert np.count_nonzero(at_pole) == targets.size
        order = np.concatenate([np.flatnonzero(~at_pole), rng.permutation(np.flatnonzero(at_pole))])
        return (interval[order], owner[order], f_lo[order]), zeros

    monkeypatch.setattr(bs, "_target_hits", shuffled)
    for delta in (0.0, 1e-9):
        scan = bs.scan_frequencies(default_cell(-1.631192105104345e-05 * (1.0 + delta)))
        assert_roots_match_reference(scan, K_TARGETS, reference_roots(scan, K_TARGETS))


def recorded_bisections(solve):
    """(func, lo, hi, f_lo, f_hi, residual_tol) of every _bisect call of solve(),
    with the root searches of every scan bisected."""
    calls, bisect = [], bs._bisect

    def record(func, lo, hi, f_lo, f_hi, **kwargs):
        calls.append((func, lo, hi, f_lo, f_hi, kwargs.get("residual_tol")))
        return bisect(func, lo, hi, f_lo, f_hi, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "_bisect", record)
        patch.setattr(bs, "_bisected", lambda scan: True)
        solve()
    return calls


SPECULATION_RTOLS = [bs.ROOT_RTOL, 1e-14, 1e-17, 0.0]


@pytest.fixture(scope="module")
def random_cell_bisections():
    """The _bisect calls of 300 random cells, by rtol they are checked at.

    Each cell is scanned on the default or the 10x window, its roots of
    awkward targets searched (h - t in free intervals, g_t in blocked ones,
    with _locate's sign-verified pairs at the poles) and the roots of r
    located (_locate's pairs again). Only the pairs that _locate had to
    widen past _POLE_RTOL reach _bisect. Cell i goes to rtol i % 4,
    and each group of four cells alternates the window. At ROOT_RTOL come
    also the K targets of the shipped cell at its four flat-band C* values.
    """
    draws, rng = np.random.default_rng(17), np.random.default_rng(18)
    calls = {rtol: [] for rtol in SPECULATION_RTOLS}
    for i in range(300):
        cell = shunted_cell(draws)
        omega_max = (10.0 if i // 4 % 2 else 1.0) * bs.default_omega_max(cell)

        def solve():
            scan = bs.scan_frequencies(cell, omega_max, base_points=400)
            targets = awkward_targets(scan, rng)
            bs._scan_roots_batch(scan, targets[: rng.integers(8, targets.size + 1)])
            bs._flat_band_candidates(cell, omega_max)

        calls[SPECULATION_RTOLS[i % 4]] += recorded_bisections(solve)
    for c_over_s in flat_band_capacitances():
        scan = bs.scan_frequencies(default_cell(c_over_s))
        calls[bs.ROOT_RTOL] += recorded_bisections(lambda: bs._scan_roots_batch(scan, K_TARGETS))
    return calls


@pytest.mark.parametrize("rtol", SPECULATION_RTOLS)
def test_speculative_bisection_matches_plain_loop_on_random_cells(
    rtol, random_cell_bisections, monkeypatch
):
    # Every root bit matches the plain loop, whatever the predictions, on
    # brackets of every kind, from 2 to 6 levels a call. _locate's pairs
    # reach _bisect only when widened, too few to count on here; the pairs
    # it does not bisect are held to an always-bisecting reference below.
    seen = dict.fromkeys(["h - t", "g_t", "locate"], 0)
    for i, (func, lo, hi, f_lo, f_hi, residual_tol) in enumerate(random_cell_bisections[rtol]):
        kind = "locate" if "_locate" in func.__qualname__ else "g_t"
        seen["h - t" if residual_tol is not None else kind] += 1
        monkeypatch.setattr(bs, "_MAX_LEVELS", 2 + i % 5)
        kwargs = dict(rtol=rtol, residual_tol=residual_tol, check_mids=False)
        assert_bisection_matches_plain_loop(func, lo, hi, f_lo, f_hi, **kwargs)
    assert min(seen["h - t"], seen["g_t"]) >= 10


def flatness_verdicts(cell, omega_max, k_points, pick=slice(None), scales=()):
    """(verdict, refined, expected) of each flat-band candidate in pick of cell, at each tolerance.

    The tolerances are DEFAULT_FLATNESS_TOL and, inside the
    negative-stiffness interval, where no branch holds the origin, each
    scale times the candidate's own spread, which tends to fall between its
    bracket bounds. verdict is _first_branch_is_flat's on the candidate's
    scan, refined whether it called trace_branches, and expected the
    flatness test of branch 1 of the full trace on that scan.
    """
    verdicts, trace = [], bs.trace_branches
    c_inf, c_zero = special_capacitances(cell) if cell.piezo.e else (0.0, 0.0)
    for gamma in bs._flat_band_candidates(cell, omega_max)[1][pick].tolist():
        scan = bs.scan_frequencies(cell.with_c_over_s(gamma), omega_max)
        branches = bs.trace_branches(scan.cell, k_points, scan=scan)
        spread = bs.branch_flatness(branches[0]) if branches else math.inf
        scaled = [s * spread for s in scales if c_zero < gamma < c_inf and 0.0 < s * spread < math.inf]
        for tol in [bs.DEFAULT_FLATNESS_TOL, *scaled]:
            calls = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bs, "trace_branches", lambda *args, **kwargs: calls.append(1) or trace(*args, **kwargs))
                verdict = bs._first_branch_is_flat(scan, k_points, tol)
            verdicts.append((verdict, bool(calls), spread < tol))
    return verdicts


@pytest.mark.parametrize("factor, candidates, refined", [(1.0, 4, 0), (10.0, 39, 1)])
def test_flatness_verdicts_of_the_shipped_cell(factor, candidates, refined):
    # Every candidate C*/S of the shipped cell, inside the negative-stiffness
    # interval or not, is judged on the brackets of each K's lowest root as
    # branch 1 of the full trace is; on the 10x window one candidate's
    # brackets leave the verdict open and its roots are refined.
    cell = default_cell()
    verdicts = flatness_verdicts(cell, factor * bs.default_omega_max(cell), bs.DEFAULT_K_POINTS)
    assert len(verdicts) == candidates
    assert [v for v, _, _ in verdicts] == [e for _, _, e in verdicts]
    assert sum(r for _, r, _ in verdicts) == refined and sum(v for v, _, _ in verdicts) == 1


def test_flatness_verdicts_of_random_cells():
    # Up to five candidates of each of 120 random cells, on the default or
    # the 10x window, at the default tolerance and, inside the
    # negative-stiffness interval, at 0.9, 1 -+ 1e-6 and 1.1 times the
    # candidate's own spread (near 1 the bracket bounds leave the verdict
    # open): decided on brackets or refined, each verdict is the full
    # trace's.
    draws = np.random.default_rng(23)
    verdicts = []
    for i in range(120):
        cell = shunted_cell(draws)
        factor, step = (10.0, 8) if i % 2 else (1.0, 1)
        omega_max, pick = factor * bs.default_omega_max(cell), slice(None, 5 * step, step)
        verdicts += flatness_verdicts(cell, omega_max, 40, pick, (0.9, 1.0 - 1e-6, 1.0 + 1e-6, 1.1))
    assert [v for v, _, _ in verdicts] == [e for _, _, e in verdicts]
    flat, refined = sum(v for v, _, _ in verdicts), sum(r for _, r, _ in verdicts)
    # Measured: 595 verdicts on the 106 cells with candidates, 176 flat, 125 refined.
    assert 0 < refined < len(verdicts) / 2 and 0 < flat < len(verdicts) / 2


def reference_locate(func, x, lo, hi):
    """_locate's sign-verified pairs around the Newton estimates x, every pair then bisected.

    The pairs are refined by the plain loop to _POLE_RTOL, whether or not
    both halves are already within it.
    """
    a, b, f_a = (np.empty_like(x) for _ in range(3))
    todo, delta = np.arange(x.size), bs._POLE_RTOL / 4
    while todo.size:
        pair = np.clip(np.outer([1.0 - delta, 1.0 + delta], x[todo]), lo[todo], hi[todo])
        f = func(pair.ravel()).reshape(pair.shape)
        zero = f == 0.0
        a[todo] = np.where(zero[1] & ~zero[0], pair[1], pair[0])
        b[todo], f_a[todo] = np.where(zero[0], pair[0], pair[1]), f[0]
        done = np.sign(f[0]) * np.sign(f[1]) <= 0.0
        todo, delta = todo[~done], 16.0 * delta
    return reference_bisect(func, a, b, f_a, rtol=bs._POLE_RTOL)[0]


def array_newton(model, u, lo, hi, positive):
    """_float_newton's run as _newton makes it, on 1-element arrays of the float model."""
    wrapped = lambda x, run: tuple(np.array([v]) for v in model(float(x[0])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bs, "_NEWTON_STOP", bs._POLE_RTOL / 4 * abs(u))
        patch.setattr(bs, "_NEWTON_STEPS", 60)
        u = np.array([u])
        bs._newton(wrapped, u, np.array([lo]), np.array([hi]), np.array([positive]))
    return float(u[0])


def test_located_roots_match_always_bisecting_reference(monkeypatch):
    # The poles and flat-band candidates of the 300 cells and windows of
    # random_cell_bisections, and the poles of the 50x window, bit for bit,
    # whether _locate bisected a pair or returned the mid of one already
    # within _POLE_RTOL. Each float Newton run, of a pole or of a
    # candidate's phase, must also be _newton's, step for step, on its
    # bracket alone.
    draws, bisect = np.random.default_rng(17), bs._bisect
    located = widened = 0

    def counted(func, lo, hi, f_lo, f_hi, **kwargs):
        nonlocal widened
        widened += lo.size
        return bisect(func, lo, hi, f_lo, f_hi, **kwargs)

    def search(cell, omega_max):
        wide = 50.0 * bs.default_omega_max(cell)
        return [bs._find_poles(cell, omega_max), *bs._flat_band_candidates(cell, omega_max), bs._find_poles(cell, wide)]

    for i in range(300):
        cell = shunted_cell(draws)
        omega_max = (10.0 if i // 4 % 2 else 1.0) * bs.default_omega_max(cell)
        with monkeypatch.context() as patch:
            patch.setattr(bs, "_bisect", counted)
            found = search(cell, omega_max)
        with monkeypatch.context() as patch:
            patch.setattr(bs, "_locate", reference_locate)
            patch.setattr(bs, "_float_newton", array_newton)
            expected = search(cell, omega_max)
        assert [a.tobytes() for a in found] == [a.tobytes() for a in expected]
        located += found[0].size + found[1].size + found[3].size
    assert 0 < widened < located / 10


def test_float_newton_takes_the_midpoint_at_a_zero_derivative():
    # Where p' == 0, whether p is 0 or not, the step is the narrowed
    # bracket's midpoint, and no ZeroDivisionError escapes. A flat model is
    # bisected.
    for p, root in ((lambda u: u - 0.3, 0.3), (lambda u: 0.0, 1.0)):
        seen = []

        def model(u):
            seen.append(u)
            return p(u), 0.0

        u = bs._float_newton(model, 0.7, 0.0, 1.0, False)
        assert seen[1] == (0.35 if root < 0.7 else 0.85)
        assert abs(u - root) <= 1e-14 and len(seen) <= 60


def test_newton_takes_the_midpoint_at_a_zero_derivative(monkeypatch):
    # Regression: the arithmetic select mid + 0.0*(inf - mid) made a step
    # with p' == 0 nan, and u, lo and hi stayed nan for every later step.
    # Called as _proxy_roots calls it, with p / 0 silenced, the run bisects.
    monkeypatch.setattr(bs, "_NEWTON_STOP", 1e-15)
    monkeypatch.setattr(bs, "_NEWTON_STEPS", 3)
    u, lo, hi = np.array([0.3]), np.array([0.0]), np.array([1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        bs._newton(lambda x, run: (x - 0.5, np.zeros_like(x)), u, lo, hi, np.array([False]))
    assert (u[0], lo[0], hi[0]) == (0.5625, 0.475, 0.65)


@pytest.mark.parametrize("newton", ["array", "float"])
def test_newton_moves_the_bracket_end_exactly_onto_its_iterate(newton):
    # Regression: hi += (1 - below)*(u - hi) rounds. From u 9e-18 above the
    # root, hi = 0.38268343236508984 + (u - 0.38268343236508984) came out
    # 2.1e-17 below u and below the root, so every later Newton step left
    # the bracket and became its midpoint: _newton spent all 8 evaluations
    # and ended 5.3e-5 from the root, _float_newton spent 49. With hi = u
    # itself the first step lands on the root and the run stops.
    root, start, seen = 0.013564786650260075, 0.013564786650260084, []

    def model(s, run=None):
        seen.append(s)
        return -1.35e-3 * (s - root), -1.35e-3 + 0.0 * s  # p' of s's type

    lo, hi = -6.123233995736766e-17, 0.38268343236508984
    if newton == "array":
        u = np.array([start])
        bs._newton(model, u, np.array([lo]), np.array([hi]), np.array([True]))
        u = float(u[0])
    else:
        u = bs._float_newton(model, start, lo, hi, True)
    assert abs(u - root) <= math.ulp(root) and len(seen) <= 2


def test_proxy_newton_runs_stop_on_the_wide_window(monkeypatch):
    # Regression: with the arithmetic selects, 3 proxy Newton runs of the
    # -11 uF/m^2 trace on the 10x window (200 K points) did not stop within
    # _NEWTON_STEPS. A run has stopped once a step d moved its u by at most
    # the stop, or by d^3*1e4 <= stop*d_prev^2 after its previous step
    # d_prev: u stays put from then on.
    newton, stop, unstopped = bs._newton, bs._NEWTON_STOP, []

    def recorded(model, u, lo, hi, positive):
        rows, seen = np.arange(u.size), []

        def spy(s, run):
            seen.append((rows[run], s.copy()))
            return model(s, run)

        slope = newton(spy, u, lo, hi, positive)
        # Each run's iterates, then where it ended.
        paths = [[] for _ in rows]
        for run, s in [*seen, (rows, u)]:
            for i, x in zip(run.tolist(), s.tolist()):
                paths[i].append(x)
        for path in paths:
            d = np.abs(np.diff(path))
            d_prev = np.concatenate([[0.0], d[:-1]])
            unstopped.append(not np.any((d <= stop) | (d * d * d * 1e4 <= stop * d_prev * d_prev)))
        return slope

    monkeypatch.setattr(bs, "_newton", recorded)
    cell = default_cell(-11e-6)
    bs.trace_branches(cell, omega_max=10.0 * bs.default_omega_max(cell))
    assert len(unstopped) > 7_900 and sum(unstopped) == 0


# The fallback brackets of the wide-window benchmark's searches, as
# (scan interval, K target index): only -16.7 uF/m^2 on the 50x window has
# any, 60 of the 64 brackets of one scan interval, where the degree-8
# proxy is off.
WIDE_WINDOW_FALLBACKS = {
    (-16.7e-6, 50.0): {(38, i) for i in range(24, 88) if i not in (27, 58, 69, 85)},
}


@pytest.mark.parametrize("factor", [10.0, 50.0])
@pytest.mark.parametrize("c_over_s", [0.0, -11e-6, -16.7e-6])
def test_proxy_roots_take_two_evaluations(c_over_s, factor, monkeypatch):
    # Each proxy's Newton run takes its first two Horner evaluations with
    # every other run of its block; the few runs still open go on alone, so
    # a located root costs at most 2.1 evaluations (3.0-4.0 when every run
    # stepped until the slowest of its block stopped). The brackets whose
    # verification pair fails, and so reach _bisect, stay those above.
    cell = default_cell(c_over_s)
    scan = bs.scan_frequencies(cell, factor * bs.default_omega_max(cell))
    horner, proxy_roots, bisect = bs._horner, bs._proxy_roots, bs._bisect
    evaluations, located, fallbacks = [], [], set()

    def counted_horner(coef, s):
        evaluations.append(s.size)
        return horner(coef, s)

    def counted_roots(scan, interval, *args):
        located.append(interval.size)
        return proxy_roots(scan, interval, *args)

    def spy(func, lo, hi, f_lo, *args, **kwargs):
        iv = np.searchsorted(scan.nodes, lo)
        t = scan.values[iv] - f_lo
        fallbacks.update(zip(iv.tolist(), np.abs(K_TARGETS - t[:, None]).argmin(axis=1).tolist()))
        return bisect(func, lo, hi, f_lo, *args, **kwargs)

    monkeypatch.setattr(bs, "_horner", counted_horner)
    monkeypatch.setattr(bs, "_proxy_roots", counted_roots)
    monkeypatch.setattr(bs, "_bisect", spy)
    bs._scan_roots_batch(scan, K_TARGETS)
    assert sum(located) > 7_700
    assert sum(evaluations) <= 2.1 * sum(located)
    assert fallbacks == WIDE_WINDOW_FALLBACKS.get((c_over_s, factor), set())


def test_proxy_roots_do_not_depend_on_their_block():
    # The brackets of the -11 uF/m^2 50x search, whole and in a random
    # permutation cut into odd-sized chunks: every root and slope keeps its
    # bits, whichever runs share its block and its Newton steps.
    cell = default_cell(-11e-6)
    scan = bs.scan_frequencies(cell, 50.0 * bs.default_omega_max(cell))
    (interval, owner, f_lo), _ = bs._target_hits(scan, K_TARGETS)
    free = ~scan.blocked[interval]
    interval, target, positive = interval[free], K_TARGETS[owner[free]], f_lo[free] > 0.0
    root, slope = bs._proxy_roots(scan, interval, target, positive)
    assert root.size > 39_900
    rng = np.random.default_rng(30)
    order = rng.permutation(root.size)
    cuts = np.cumsum(2 * rng.integers(0, 2_000, 60) + 1)
    for chunk in np.split(order, cuts[cuts < order.size]):
        got = bs._proxy_roots(scan, interval[chunk], target[chunk], positive[chunk])
        assert got[0].tobytes() == root[chunk].tobytes()
        assert got[1].tobytes() == slope[chunk].tobytes()


def test_segment_search_is_the_first_sign_change(monkeypatch):
    # The three-level search on the sample index finds, for every bracket of
    # the random-cell awkward-target searches, the first sign change of its
    # 9 samples of h - t (f > 0 against f <= 0), also where an inner sample
    # is an exact zero: each search also targets the values of some inner
    # samples of its bracketed intervals.
    draws, rng = np.random.default_rng(23), np.random.default_rng(24)
    proxy_roots, newton = bs._proxy_roots, bs._newton
    found, expected, zeros = [], [], 0

    def plain(scan, interval, target, positive):
        nonlocal zeros
        h, inverse, _ = proxy_samples(scan, interval)
        for column, t in zip(inverse.tolist(), target.tolist()):
            f = h[:, column] - t
            zeros += bool(np.any(f[1:-1] == 0.0))
            expected.append(next(j for j in range(8) if (f[j] > 0.0) != (f[j + 1] > 0.0)))
        return proxy_roots(scan, interval, target, positive)

    def segments(model, u, lo, hi, positive, **kwargs):
        found.extend(np.searchsorted(bs._LOBATTO, lo).tolist())
        return newton(model, u, lo, hi, positive, **kwargs)

    monkeypatch.setattr(bs, "_proxy_roots", plain)
    monkeypatch.setattr(bs, "_newton", segments)
    for _ in range(30):
        cell = shunted_cell(draws)
        scan = bs.scan_frequencies(cell, 10.0 * bs.default_omega_max(cell), base_points=400)
        targets = awkward_targets(scan, rng)
        (interval, _, _), _ = bs._target_hits(scan, targets)
        h, _, _ = proxy_samples(scan, interval[~scan.blocked[interval]])
        inner = h[rng.integers(1, 8, 6), rng.integers(0, h.shape[1], 6)]
        bs._scan_roots_batch(scan, np.concatenate([targets, inner]))
    assert found == expected and zeros > 0


def test_index_ranges_match_a_plain_loop():
    # Empty and reversed ranges yield nothing; the rest in order.
    rng = np.random.default_rng(29)
    first = rng.integers(0, 20, 500)
    for stop in (first + rng.integers(-3, 4, 500), first, first - 1):
        row, position = bs._index_ranges(first, stop)
        expected = [(i, p) for i in range(500) for p in range(first[i], stop[i])]
        assert list(zip(row.tolist(), position.tolist())) == expected


@pytest.mark.parametrize("seed", [5, 30, 31])
def test_flat_band_candidates_do_not_depend_on_the_window(seed):
    # Regression: _locate stepped every bracket until all of them had
    # stopped, so a candidate's bits depended on the other brackets of its
    # call: for 6-9 of these 100 draws a seed, the candidates of the default
    # window differed from the same ones among the 10x window's, and
    # find_flat_capacitance's C* could change with omega_max.
    draws = np.random.default_rng(seed)
    for _ in range(100):
        cell = shunted_cell(draws)
        omega_max = bs.default_omega_max(cell)
        narrow = bs._flat_band_candidates(cell, omega_max)
        wide = bs._flat_band_candidates(cell, 10.0 * omega_max)
        assert [a.tobytes() for a in narrow] == [b[: narrow[0].size].tobytes() for b in wide]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("start", [-0.95, 0.95])
def test_newton_narrows_each_bracket_toward_its_root(sign, start, monkeypatch):
    # One flag for every caller of _newton: positive marks a model that is
    # > 0 at its bracket's low end, as in _bisect and _checked_roots. A
    # rising (sign 1) and a falling cubic with roots across (-1, 1), from
    # a start next to either end: with the flag every run ends at its own
    # root, inside its narrowed bracket. With the flag inverted, as when a
    # caller passes "rising" for a rising model, the first iterate moves
    # the wrong end, the root leaves the bracket and no run comes near it.
    root = np.linspace(-0.9, 0.9, 7)
    monkeypatch.setattr(bs, "_NEWTON_STOP", 1e-15)
    monkeypatch.setattr(bs, "_NEWTON_STEPS", 60)

    def model(u, run):
        r = root[run]
        return sign * (u * u * u + u - (r * r * r + r)), sign * (3.0 * u * u + 1.0)

    for positive in (sign < 0.0, sign > 0.0):
        u, lo, hi = np.full(7, start), np.full(7, -1.0), np.full(7, 1.0)
        slope = bs._newton(model, u, lo, hi, np.full(7, positive))
        if positive == (sign < 0.0):
            assert np.all(np.abs(u - root) <= 1e-15)
            assert np.all((lo <= u) & (u <= hi))
            assert np.all(np.sign(slope) == sign)
        else:
            assert np.all(np.abs(u - root) >= 0.04)


@pytest.mark.parametrize("levels", [1, 6])
@pytest.mark.parametrize("rtol", [bs.ROOT_RTOL, 1e-14])
@pytest.mark.parametrize("f_mid", [1.0, -1.0, 0.0])
def test_bracket_within_rtol_returns_its_mid(f_mid, rtol, levels, monkeypatch):
    # Both halves within rtol*|mid| and no residual test: the first pass
    # converges whichever way f(mid) moves the bracket, or hits a zero, so
    # _bisect returns 0.5*(lo + hi) from one func call. _locate relies on it.
    monkeypatch.setattr(bs, "_MAX_LEVELS", levels)
    lo = np.array([1.0, -3.0, 7e5, 2e-3, -4e-7, 5.0, 1e300])
    hi = lo + np.array([1.99, 1.5, 1.0, 0.5, 0.01, 0.0, 1.99]) * rtol * np.abs(lo)
    mid = 0.5 * (lo + hi)
    assert np.all(np.maximum(mid - lo, hi - mid) <= rtol * np.abs(mid))
    calls = []

    def func(x, live):
        calls.append(x.size)
        return np.full(x.size, f_mid)

    roots = bs._bisect(func, lo, hi, np.ones(lo.size), -np.ones(lo.size), rtol=rtol)
    assert roots.tobytes() == mid.tobytes()
    assert calls == [lo.size * levels]


@pytest.mark.parametrize("levels", [1, 6])
@pytest.mark.parametrize("rtol", [bs.ROOT_RTOL, 1e-14])
def test_convergence_reads_the_width_after_the_move(rtol, levels, monkeypatch):
    # Each bracket is 1.5*rtol*|lo| wide: wider than rtol*|mid| before the
    # first move and narrower after it, so the plain loop returns the first
    # mid. A test of the width before the move would take a second level.
    # (At rtol 1e-17 and 0 such a width is below one ulp.)
    monkeypatch.setattr(bs, "_MAX_LEVELS", levels)
    lo = np.array([1.0, -3.0, 7e5, 2e-3, -4e-7])
    hi = lo + 1.5 * rtol * np.abs(lo)
    assert np.all((hi - lo) > rtol * np.abs(0.5 * (lo + hi)))
    root = lo + 0.3 * (hi - lo)
    func = lambda x, live: x - root[live]
    assert assert_bisection_matches_plain_loop(func, lo, hi, lo - root, rtol=rtol) == 1
    roots = bs._bisect(func, lo, hi, lo - root, hi - root, rtol=rtol)
    assert roots.tobytes() == (0.5 * (lo + hi)).tobytes()


@pytest.mark.parametrize("rtol", SPECULATION_RTOLS)
def test_prediction_failing_at_the_first_level(rtol):
    # f = +-(exp(20*(x - 0.55)) - 1) on [0, 1]: regula falsi puts the root
    # near 1e-4, so the first call predicts the path down from 0.5, while
    # the root lies above it. The bracket then starts again from [0.5, 1].
    sign = np.array([1.0, -1.0])
    func = lambda x, live: sign[live] * np.expm1(20.0 * (x - 0.55))
    lo, hi = np.zeros(2), np.ones(2)
    calls = []

    def logged(x, live):
        calls.append(x.reshape(-1, 2)[:, 0])
        return func(x, live)

    bs._bisect(logged, lo, hi, func(lo, [0, 1]), func(hi, [0, 1]), rtol=rtol)
    assert calls[0].tolist() == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    assert calls[1][0] == 0.75
    assert_bisection_matches_plain_loop(func, lo, hi, func(lo, [0, 1]), rtol=rtol)


@pytest.mark.parametrize("rtol", [bs.ROOT_RTOL, 1e-14, 0.0, 1e-17])
@pytest.mark.parametrize("degenerate", [False, True])
def test_bisection_passes_before_any_bracket_can_converge(rtol, degenerate, monkeypatch):
    # Brackets at least 0.5 wide with ends of at most 1000 take 20 or more
    # passes before any can converge or run out of floats. Exact zeros end a
    # bracket in those early passes: at the first mid ([0, 2], [-8, -1]) and
    # at the second ([0, 4], [-5, -1]). At rtol = 0 and 1e-17 only the float
    # grid or an exact zero ends a bracket: (x - 999) - 0.4 has no float
    # zero, and [999, 999.5] runs out of floats after 42 passes. A
    # zero-width bracket ends at its first pass.
    lo = np.array([0.0, 0.0, 0.0, -8.0, -5.0, -1000.0, 999.0, 0.5, 0.0, 10.0])
    hi = np.array([2.0, 4.0, 1.0, -1.0, -1.0, -999.0, 999.5, 1.0, 1000.0, 11.0])
    offset = np.array([1.0, 3.0, 0.3, 3.5, 3.0, 0.877, 0.4, 0.4999, 1e-3, 0.6])
    if degenerate:
        lo, hi, offset = np.append(lo, 7.0), np.append(hi, 7.0), np.append(offset, 0.0)
    sign = np.where(np.arange(lo.size) % 2 == 0, 1.0, -1.0)
    func = lambda x, live: sign[live] * ((x - lo[live]) - offset[live])
    f_lo = -sign * offset
    # The same brackets one level a call and six: six take fewer calls.
    for residual_tol in (None, 1e-6):
        calls = []
        for levels in (1, 6):
            monkeypatch.setattr(bs, "_MAX_LEVELS", levels)
            calls.append(assert_bisection_matches_plain_loop(
                func, lo, hi, f_lo, rtol=rtol, residual_tol=residual_tol
            ))
        assert calls[1] < calls[0]


def test_batched_roots_match_per_target_lists():
    draws = np.random.default_rng(5)
    rng = np.random.default_rng(6)
    seen_poles = 0
    for _ in range(40):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        targets = awkward_targets(scan, rng)
        roots, counts = bs._scan_roots_batch(scan, targets)
        groups = np.split(roots, np.cumsum(counts)[:-1])
        expected = reference_roots(scan, targets)
        assert [g.tobytes() for g in groups] == [e.tobytes() for e in expected]
        seen_poles += bool(scan.blocked.any())
    assert seen_poles >= 10


def test_interval_classification_matches_per_interval_loop():
    # Boundaries mix scan nodes, points between two adjacent nodes (intervals
    # with no interior node, judged at their midpoint) and repeated values
    # (empty intervals, never stop intervals).
    draws = np.random.default_rng(7)
    rng = np.random.default_rng(8)
    midpoint_verdicts = set()
    for _ in range(300):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=200)
        nodes = scan.nodes
        pick = rng.choice(nodes.size - 1, 10)
        inner = nodes[pick] + rng.uniform(0.0, 1.0, (2, pick.size)) * np.diff(nodes)[pick]
        boundaries = np.sort(np.concatenate([
            [0.0, scan.omega_max], rng.choice(nodes, 20), inner.ravel(), inner[0, :3],
        ]))
        lo, hi = boundaries[:-1], boundaries[1:]
        got = bs._intervals_are_stop(scan, lo, hi)
        expected = [reference_interval_is_stop(scan, a, b) for a, b in zip(lo, hi)]
        assert got.tolist() == expected
        first = np.searchsorted(nodes, lo, side="right")
        no_interior = (np.searchsorted(nodes, hi, side="left") <= first) & (hi > lo)
        midpoint_verdicts |= set(got[no_interior].tolist())
    assert midpoint_verdicts == {False, True}


def test_bisection_out_of_passes_raises_instead_of_guessing(monkeypatch):
    # Regression: on exhausting its passes _bisect used to return the
    # unevaluated center of each open bracket. One bracket and 5000, both
    # speculative, stop after _MAX_PASSES passes: three levels in one call.
    func = lambda x, live: x - math.pi
    for brackets in (1, 5000):
        lo, hi = np.zeros(brackets), np.full(brackets, 4.0)
        f_lo, f_hi = func(lo, None), func(hi, None)
        with monkeypatch.context() as patch, pytest.raises(
            bs.NumericalError, match=f"{brackets} bracket.s. open after 3 passes"
        ):
            patch.setattr(bs, "_MAX_PASSES", 3)
            bs._bisect(func, lo, hi, f_lo, f_hi, rtol=1e-14)
        roots = bs._bisect(func, lo, hi, f_lo, f_hi, rtol=1e-14)
        assert roots == pytest.approx(np.full(brackets, math.pi))


class TestWholeBranchGroupVelocity:
    def test_matches_central_differences_on_random_cells(self):
        draws = np.random.default_rng(0)
        for _ in range(300):
            cell = random_cell(draws)
            for branch in bs.trace_branches(cell):
                v = bs.group_velocity(cell, branch.k, branch.omega)
                assert np.isfinite(v).all()
                moving = branch.omega > 0.0
                reference = central_group_velocity(cell, branch.k[moving], branch.omega[moving])
                assert np.abs(v[moving] - reference).max(initial=0.0) <= 1e-5 * np.abs(v).max()

    def test_finite_on_short_branch(self):
        # ROADMAP item 3 reproducer: draw 166 has a one-sample fifth branch.
        rng = np.random.default_rng(0)
        for _ in range(166):
            random_cell(rng)
        cell = random_cell(rng)
        branches = bs.trace_branches(cell)
        assert len(branches[4]) == 1
        for branch in branches:
            assert np.isfinite(bs.group_velocity(cell, branch.k, branch.omega)).all()

    def test_finite_on_non_uniform_k(self):
        # Each sample's v_g is its own: dropping a sample changes no other.
        cell = default_cell()
        branch = bs.trace_branches(cell, k_points=20)[0]
        whole = bs.group_velocity(cell, branch.k, branch.omega)
        gapped = bs.group_velocity(cell, np.delete(branch.k, 7), np.delete(branch.omega, 7))
        assert np.isfinite(whole).all()
        assert gapped.tobytes() == np.delete(whole, 7).tobytes()
