"""Array root search against the plain loops it replaced.

The bracket search, the compacting bisection and the whole-branch group
velocity stencil must reproduce, bit for bit, the per-target bracket loop,
the uncompacted bisection loop and the per-sample stencil kept below as
references.
"""

import math

import numpy as np
import pytest

from piezoband import band_structure as bs
from piezoband.cli import DEFAULT_SWEEP_UF
from piezoband.materials import default_cell
from piezoband.quasistatic import special_capacitances

from conftest import random_cell


def reference_hits(scan, targets):
    """Per-target loop: (interval, target, f_lo) brackets and (node, target) zeros."""
    brackets, zeros = set(), set()
    for j, target in enumerate(targets):
        f = scan.values - target
        zeros |= {(int(i), j) for i in np.nonzero(f == 0.0)[0]}
        idx = np.nonzero((f[:-1] * f[1:] < 0.0) & ~scan.blocked)[0]
        brackets |= {(int(i), j, float(f[i])) for i in idx}
    return brackets, zeros


def reference_bisect(func, lo, hi, f_lo, *, rtol, residual_tol=None, max_iter=200):
    """Uncompacted bisection: every pass evaluates func on every bracket."""
    lo, hi, f_lo = (np.array(a, dtype=float) for a in (lo, hi, f_lo))
    result = 0.5 * (lo + hi)
    done = np.zeros(lo.shape, dtype=bool)
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
        done |= newly_done
        lo, hi, f_lo = new_lo, new_hi, new_f_lo
        if done.all():
            break
    return result, passes


def reference_roots(scan, targets):
    """Per-target bracket lists refined in one uncompacted bisection run."""
    lo, hi, f_lo, tgt, owner = [], [], [], [], []
    exact = []
    for j, target in enumerate(targets):
        f = scan.values - target
        exact.append(scan.nodes[f == 0.0])
        idx = np.nonzero((f[:-1] * f[1:] < 0.0) & ~scan.blocked)[0]
        lo.append(scan.nodes[idx])
        hi.append(scan.nodes[idx + 1])
        f_lo.append(f[idx])
        tgt.append(np.full(idx.size, target))
        owner.append(np.full(idx.size, j))
    tgt, owner = np.concatenate(tgt), np.concatenate(owner)
    roots, _ = reference_bisect(
        lambda x: bs.half_trace_values(scan.cell, x) - tgt,
        np.concatenate(lo), np.concatenate(hi), np.concatenate(f_lo),
        rtol=bs.ROOT_RTOL, residual_tol=bs.RESIDUAL_TOL,
    )
    return [np.sort(np.concatenate([exact[j], roots[owner == j]])) for j in range(len(targets))]


def reference_group_velocity(branch, i):
    """Per-sample 5-point stencil at sample i; nan where it cannot apply."""
    n, w = len(branch), branch.omega
    dk = np.diff(branch.k)
    if n < 5 or not np.allclose(dk, dk[0], rtol=1e-9, atol=0.0):
        return math.nan
    dk = float(dk[0])
    if 2 <= i <= n - 3:
        return float((w[i - 2] - 8 * w[i - 1] + 8 * w[i + 1] - w[i + 2]) / (12 * dk))
    if i == 0:
        return float((-25 * w[0] + 48 * w[1] - 36 * w[2] + 16 * w[3] - 3 * w[4]) / (12 * dk))
    if i == 1:
        return float((-3 * w[0] - 10 * w[1] + 18 * w[2] - 6 * w[3] + w[4]) / (12 * dk))
    if i == n - 2:
        return float((3 * w[-1] + 10 * w[-2] - 18 * w[-3] + 6 * w[-4] - w[-5]) / (12 * dk))
    return float((25 * w[-1] - 48 * w[-2] + 36 * w[-3] - 16 * w[-4] + 3 * w[-5]) / (12 * dk))


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
    """Unsorted targets with duplicates, scan values and pole-straddling values."""
    cos_grid = np.cos(np.linspace(0.0, math.pi, 24))
    node_values = rng.choice(scan.values[np.abs(scan.values) <= 1.0], 6)
    blocked = np.nonzero(scan.blocked)[0]
    across_poles = 0.5 * (scan.values[blocked] + scan.values[blocked + 1])
    targets = np.concatenate([
        cos_grid, cos_grid[:5], node_values, node_values[:2], across_poles, rng.uniform(-1, 1, 8),
    ])
    return rng.permutation(targets)


def test_bracket_search_matches_per_target_loop():
    rng = np.random.default_rng(11)
    draws = np.random.default_rng(0)
    seen_poles = seen_zeros = 0
    for _ in range(300):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        targets = awkward_targets(scan, rng)
        (interval, owner, f_lo), (node, zero_owner) = bs._target_hits(scan, targets)
        got = set(zip(interval.tolist(), owner.tolist(), f_lo.tolist()))
        expected_brackets, expected_zeros = reference_hits(scan, targets)
        assert got == expected_brackets
        assert len(got) == interval.size
        assert set(zip(node.tolist(), zero_owner.tolist())) == expected_zeros
        # Pole safety: a blocked interval never yields a bracket.
        assert not scan.blocked[interval].any()
        seen_poles += bool(scan.blocked.any())
        seen_zeros += bool(node.size)
    assert seen_poles >= 50 and seen_zeros >= 250


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


def test_compacting_bisection_matches_plain_loop():
    draws = np.random.default_rng(3)
    rng = np.random.default_rng(4)
    for _ in range(40):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        targets = awkward_targets(scan, rng)
        (interval, owner, f_lo), _ = bs._target_hits(scan, targets)
        lo, hi = scan.nodes[interval], scan.nodes[interval + 1]
        calls = []

        def live_func(x, live):
            calls.append(x.size)
            return bs.half_trace_values(scan.cell, x) - targets[owner[live]]

        kwargs = dict(rtol=bs.ROOT_RTOL, residual_tol=bs.RESIDUAL_TOL)
        roots = bs._bisect(live_func, lo, hi, f_lo, **kwargs)
        expected, passes = reference_bisect(
            lambda x: bs.half_trace_values(scan.cell, x) - targets[owner], lo, hi, f_lo, **kwargs
        )
        assert roots.tobytes() == expected.tobytes()
        if interval.size:
            assert len(calls) == passes
            assert sum(calls) <= passes * interval.size


def test_batched_roots_match_per_target_lists():
    draws = np.random.default_rng(5)
    rng = np.random.default_rng(6)
    for _ in range(40):
        scan = bs.scan_frequencies(shunted_cell(draws), base_points=400)
        targets = awkward_targets(scan, rng)
        roots, counts = bs._scan_roots_batch(scan, targets)
        groups = np.split(roots, np.cumsum(counts)[:-1])
        expected = reference_roots(scan, targets)
        assert [g.tobytes() for g in groups] == [e.tobytes() for e in expected]


def test_bisection_out_of_passes_raises_instead_of_guessing():
    # Regression: on max_iter exhaustion _bisect used to return the
    # unevaluated center of each open bracket.
    func = lambda x, live: x - math.pi
    with pytest.raises(bs.NumericalError, match="3 passes"):
        bs._bisect(func, [0.0], [4.0], [-math.pi], rtol=1e-14, max_iter=3)
    assert bs._bisect(func, [0.0], [4.0], [-math.pi], rtol=1e-14)[0] == pytest.approx(math.pi)


class TestWholeBranchGroupVelocity:
    def test_equals_per_sample_stencil_on_default_sweep(self):
        cell = default_cell()
        for uf in DEFAULT_SWEEP_UF:
            for branch in bs.trace_branches(cell.with_c_over_s(uf * 1e-6)):
                whole = bs._group_velocities(branch)
                for i, k in enumerate(branch.k):
                    expected = np.float64(reference_group_velocity(branch, i)).tobytes()
                    assert whole[i].tobytes() == expected
                    if len(branch) >= 5:
                        assert np.float64(bs.group_velocity(branch, float(k))).tobytes() == expected

    def test_nan_on_short_branch(self):
        # ROADMAP item 3 reproducer: draw 166 has a one-sample fifth branch.
        rng = np.random.default_rng(0)
        for _ in range(166):
            random_cell(rng)
        branches = bs.trace_branches(random_cell(rng))
        assert len(branches[4]) == 1
        assert np.isnan(bs._group_velocities(branches[4])).all()
        assert not np.isnan(bs._group_velocities(branches[0])).any()

    def test_nan_on_non_uniform_k(self):
        branch = bs.trace_branches(default_cell(), k_points=20)[0]
        gapped = bs.Branch(
            index=1, k=np.delete(branch.k, 7), omega=np.delete(branch.omega, 7)
        )
        assert np.isnan(bs._group_velocities(gapped)).all()
        with pytest.raises(bs.InsufficientSamplesError, match="uniformly"):
            bs.group_velocity(gapped, float(gapped.k[3]))
