"""Floquet-Bloch spectrum: branch tracing, stopbands, anomaly detectors.

The dispersion relation is cos(K*T) = half-trace of the unit-cell matrix.
Everything here is driven by one adaptive frequency scan per cell: the
scan samples the half-trace, locates shunt resonance poles from sign
changes of the correction denominator, inserts guarded breakpoints around
them so that no root bracket ever spans a pole, and refines locally near
band edges.

Root search is array code throughout. The targets cos(K*T) of all K are
sorted once; each unblocked scan interval finds its candidate targets by
binary search on its two end values and keeps those that pass the strict
sign-change test, so the cost is O(nodes * log targets + brackets) with no
targets x nodes temporary. Root refinement is bisection only: the
half-trace has poles for C < 0 and bisection inside pole-free
sub-intervals is unconditionally safe. The bisection drops finished
brackets from its working arrays each pass, which saves kernel points
without moving any root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import ShuntedCell
from .quasistatic import Regime, effective_model, special_capacitances
from .transfer_matrix import (
    ResonancePoleError,
    has_shunt_correction,
    monodromy_entries,
    pole_threshold,
    shunt_denominator,
)

__all__ = [
    "PASS",
    "STOP",
    "POLE",
    "BracketError",
    "NumericalError",
    "InsufficientSamplesError",
    "DispersionSample",
    "Branch",
    "StopbandInterval",
    "FrequencyScan",
    "default_omega_max",
    "half_trace",
    "half_trace_values",
    "bloch_wavenumber",
    "scan_frequencies",
    "trace_branches",
    "stopbands",
    "group_velocity",
    "origin_slope",
    "branch_flatness",
    "detect_flat_bands",
    "find_flat_capacitance",
    "half_trace_curvature",
]

PASS = "pass"
STOP = "stop"
POLE = "pole"

# Solver defaults: 200 K-points and a 2000-point base scan with 16x local
# refinement resolve the spectral features of mm-scale cells comfortably.
DEFAULT_K_POINTS = 200
DEFAULT_BASE_POINTS = 2000
DEFAULT_REFINE_FACTOR = 16
ROOT_RTOL = 1e-10
RESIDUAL_TOL = 1e-9
DEFAULT_FLATNESS_TOL = 1e-3


class BracketError(ValueError):
    """A root/continuation bracket does not satisfy its sign precondition."""


class NumericalError(RuntimeError):
    """The solver could not complete (unbracketable root, bad topology)."""


class InsufficientSamplesError(ValueError):
    """Too few branch samples for the requested stencil."""


@dataclass(frozen=True)
class DispersionSample:
    """Half-trace of the cell matrix at one frequency, with its status."""

    omega: float
    half_trace: float
    status: str  # PASS iff |half_trace| <= 1, POLE if the matrix diverged


@dataclass(frozen=True)
class Branch:
    """One dispersion branch omega(K), sampled on the scanned K grid.

    Attributes:
        index: 1-based ordinal; 1 is the lowest branch at each K.
        k: Floquet wavenumbers (rad/m), strictly increasing in [0, pi/T].
        omega: Angular frequencies (rad/s), one per K sample.
    """

    index: int
    k: np.ndarray
    omega: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


@dataclass(frozen=True)
class StopbandInterval:
    """Maximal frequency interval with no propagating Bloch solution.

    Attributes:
        omega_lo: Lower edge (rad/s).
        omega_hi: Upper edge (rad/s).
        absolute: Always True for this scalar 1D problem.
        quasistatic: True when the interval starts at omega = 0.
    """

    omega_lo: float
    omega_hi: float
    absolute: bool = True
    quasistatic: bool = False


def default_omega_max(cell: ShuntedCell) -> float:
    """Four times the open-circuit first-gap center frequency.

    The first Bragg gap of the bilayer is centered where the accumulated
    phase omega*(t1 + t2) reaches pi (t_j are one-way travel times, the
    piezo one on the stiffened modulus).
    """
    t1 = cell.elastic.d * cell.elastic.slowness
    t2 = cell.piezo.d * cell.piezo.slowness
    return 4.0 * math.pi / (t1 + t2)


def half_trace_values(cell: ShuntedCell, omega) -> np.ndarray:
    """Half-trace of the cell matrix, elementwise over omega (unchecked)."""
    t11, _, _, t22 = monodromy_entries(cell, omega)
    return 0.5 * (t11 + t22)


def half_trace(cell: ShuntedCell, omega: float) -> DispersionSample:
    """Half-trace at one frequency with pass/stop/pole classification."""
    if has_shunt_correction(cell):
        denom = float(shunt_denominator(cell, omega))
        if abs(denom) < pole_threshold(cell):
            with np.errstate(divide="ignore", invalid="ignore"):
                value = float(half_trace_values(cell, omega))
            return DispersionSample(float(omega), value, POLE)
    value = float(half_trace_values(cell, omega))
    return DispersionSample(float(omega), value, PASS if abs(value) <= 1.0 else STOP)


def bloch_wavenumber(cell: ShuntedCell, omega: float) -> tuple[float, float]:
    """Real and imaginary parts of the Floquet wavenumber at omega.

    In a pass band K is real in [0, pi/T]; in a stopband the wave is
    evanescent and Im K > 0, with Re K pinned to 0 or pi/T by the sign of
    the half-trace.

    Raises:
        ResonancePoleError: At a flagged shunt resonance.
    """
    sample = half_trace(cell, omega)
    if sample.status == POLE:
        denom = float(shunt_denominator(cell, omega))
        raise ResonancePoleError(float(omega), denom, pole_threshold(cell))
    h = sample.half_trace
    period = cell.period
    if abs(h) <= 1.0:
        return math.acos(h) / period, 0.0
    if h > 1.0:
        return 0.0, math.acosh(h) / period
    return math.pi / period, math.acosh(-h) / period


# --- adaptive frequency scan -----------------------------------------------


@dataclass(frozen=True)
class FrequencyScan:
    """Shared half-trace samples over [0, omega_max] for one cell.

    Attributes:
        cell: The scanned cell.
        omega_max: Upper end of the scan window (rad/s).
        nodes: Sorted sample frequencies; nodes[0] == 0.
        values: Half-trace at the nodes (finite everywhere; pole
            neighborhoods are bounded away by guard nodes).
        poles: Located shunt resonance frequencies in (0, omega_max).
        blocked: Per-interval mask, True when (nodes[i], nodes[i+1])
            contains a pole and must never be used as a root bracket.
    """

    cell: ShuntedCell
    omega_max: float
    nodes: np.ndarray
    values: np.ndarray
    poles: np.ndarray
    blocked: np.ndarray


def _bisect(func, lo, hi, f_lo, *, rtol, residual_tol=None, max_iter=200):
    """Vectorized bisection on 1-D arrays of brackets with f(lo)*f(hi) < 0.

    ``func(x, live)`` evaluates the residual at the points x of the
    brackets whose input positions are ``live``. A bracket finishes when
    its interval is relatively tight (and, if requested, the residual at
    the returned point is small), when it hits an exact zero, or when the
    floating-point grid is exhausted. Finished brackets leave the working
    arrays in the pass they finish, so ``func`` sees only live brackets.
    Each bracket's arithmetic is that of plain bisection, so dropping
    finished ones changes no root and no pass count.

    The returned point is always one whose residual was actually
    evaluated, never an unchecked interval center.

    Raises:
        NumericalError: If a bracket is still open after max_iter passes.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = np.array(f_lo, dtype=float)
    result = np.empty_like(lo)
    live = np.arange(lo.size)
    for _ in range(max_iter):
        if not live.size:
            return result
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        f_mid = func(mid, live)
        exact = f_mid == 0.0
        same_side = (f_mid > 0) == (f_lo > 0)
        move_lo = same_side & ~exact
        move_hi = ~same_side & ~exact
        lo = np.where(move_lo, mid, lo)
        f_lo = np.where(move_lo, f_mid, f_lo)
        hi = np.where(move_hi, mid, hi)
        converged = (hi - lo) <= rtol * np.abs(mid)
        if residual_tol is not None:
            converged &= np.abs(f_mid) <= residual_tol
        finished = stuck | converged | exact
        if finished.any():
            result[live[finished]] = mid[finished]
            open_ = ~finished
            live, lo, hi, f_lo = live[open_], lo[open_], hi[open_], f_lo[open_]
    if live.size:
        raise NumericalError(
            f"bisection left {live.size} bracket(s) open after {max_iter} passes; "
            f"first open bracket [{lo[0]!r}, {hi[0]!r}]"
        )
    return result


def _find_poles(cell: ShuntedCell, omega_max: float, probe_points: int) -> np.ndarray:
    """Locate zeros of the shunt denominator in (0, omega_max)."""
    if not has_shunt_correction(cell):
        return np.empty(0)
    grid = np.linspace(0.0, omega_max, probe_points)
    den = shunt_denominator(cell, grid)
    prod = den[:-1] * den[1:]
    idx = np.nonzero(prod < 0.0)[0]
    func = lambda x, live: shunt_denominator(cell, x)
    located = _bisect(func, grid[idx], grid[idx + 1], den[idx], rtol=1e-14)
    # Exact zeros at probe nodes are poles themselves.
    poles = np.unique(np.concatenate([located, grid[den == 0.0]]))
    return poles[(poles > 0.0) & (poles < omega_max)]


def _pole_guards(cell: ShuntedCell, poles: np.ndarray, omega_max: float):
    """Guard interval (lo, hi) around each pole with safely finite values."""
    threshold = pole_threshold(cell)
    guards = []
    for i, p in enumerate(poles):
        room = p if i == 0 else p - poles[i - 1]
        room = min(room, (poles[i + 1] - p) if i + 1 < len(poles) else omega_max - p)
        g = max(1e-12 * omega_max, 1e-10 * p)
        for _ in range(80):
            lo, hi = p - g, p + g
            if lo <= 0.0 or g > 0.25 * room:
                break
            vals = np.abs(shunt_denominator(cell, np.array([lo, hi])))
            if vals.min() > 10.0 * threshold:
                break
            g *= 4.0
        guards.append((max(p - g, p * 0.5), min(p + g, omega_max)))
    return guards


def scan_frequencies(
    cell: ShuntedCell,
    omega_max: float | None = None,
    *,
    base_points: int = DEFAULT_BASE_POINTS,
    refine_factor: int = DEFAULT_REFINE_FACTOR,
) -> FrequencyScan:
    """Build the adaptive half-trace scan for a cell.

    The base grid is uniform; cells where the half-trace crosses +-1 and
    cells adjacent to pole guards are subdivided by ``refine_factor``.
    """
    if omega_max is None:
        omega_max = default_omega_max(cell)
    if omega_max <= 0.0:
        raise ValueError("omega_max must be positive")

    nodes = np.linspace(0.0, omega_max, base_points + 1)
    poles = _find_poles(cell, omega_max, 4 * base_points + 1)
    if poles.size:
        guards = _pole_guards(cell, poles, omega_max)
        guard_pts = np.array([x for lo_hi in guards for x in lo_hi])
        keep = np.ones(nodes.shape, dtype=bool)
        for lo, hi in guards:
            keep &= ~((nodes > lo) & (nodes < hi))
        nodes = np.unique(np.concatenate([nodes[keep], guard_pts]))
        nodes = nodes[(nodes >= 0.0) & (nodes <= omega_max)]

    values = half_trace_values(cell, nodes)
    blocked = _blocked_mask(nodes, poles)

    # One local refinement pass near band edges and pole guards.
    lower = values - 1.0
    upper = values + 1.0
    cross = (lower[:-1] * lower[1:] < 0.0) | (upper[:-1] * upper[1:] < 0.0)
    near_pole = np.zeros_like(cross)
    if poles.size:
        near_pole[:-1] |= blocked[1:]
        near_pole[1:] |= blocked[:-1]
    refine = (cross | near_pole) & ~blocked
    if refine.any():
        extra = []
        ratios = np.arange(1, refine_factor) / refine_factor
        for i in np.nonzero(refine)[0]:
            extra.append(nodes[i] + (nodes[i + 1] - nodes[i]) * ratios)
        extra = np.concatenate(extra)
        extra_values = half_trace_values(cell, extra)
        order = np.argsort(np.concatenate([nodes, extra]), kind="stable")
        nodes = np.concatenate([nodes, extra])[order]
        values = np.concatenate([values, extra_values])[order]
        nodes, unique_idx = np.unique(nodes, return_index=True)
        values = values[unique_idx]
        blocked = _blocked_mask(nodes, poles)

    return FrequencyScan(
        cell=cell,
        omega_max=float(omega_max),
        nodes=nodes,
        values=values,
        poles=poles,
        blocked=blocked,
    )


def _blocked_mask(nodes: np.ndarray, poles: np.ndarray) -> np.ndarray:
    blocked = np.zeros(len(nodes) - 1, dtype=bool)
    if poles.size:
        idx = np.searchsorted(nodes, poles) - 1
        idx = np.clip(idx, 0, len(blocked) - 1)
        blocked[idx] = True
    return blocked


def _index_ranges(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges [first[i], stop[i]) into (i, position) pairs."""
    count = np.maximum(stop - first, 0)
    row = np.repeat(np.arange(count.size), count)
    position = np.arange(row.size) + np.repeat(first - (np.cumsum(count) - count), count)
    return row, position


def _target_hits(scan: FrequencyScan, targets: np.ndarray):
    """Brackets and exact node zeros of half_trace(omega) = t for all targets.

    The targets are sorted once. Each unblocked scan interval finds the
    targets strictly between its two end values by binary search, and
    each node finds the targets equal to its value. The candidates are
    then held to the tests of ``f = values - t`` themselves: f_lo*f_hi < 0
    for a bracket, f == 0 for an exact zero. Work and memory scale with
    nodes * log(targets) plus the number of hits.

    Returns:
        (interval, owner, f_lo) of every bracket and (node, owner) of every
        exact zero, where owner indexes ``targets``.
    """
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    values = scan.values
    low = np.minimum(values[:-1], values[1:])
    high = np.maximum(values[:-1], values[1:])
    first = np.searchsorted(ordered, low, side="right")
    stop = np.where(scan.blocked, first, np.searchsorted(ordered, high, side="left"))
    interval, position = _index_ranges(first, stop)
    owner = order[position]
    f_lo = values[interval] - targets[owner]
    keep = f_lo * (values[interval + 1] - targets[owner]) < 0.0

    node, position = _index_ranges(
        np.searchsorted(ordered, values, side="left"),
        np.searchsorted(ordered, values, side="right"),
    )
    zero_owner = order[position]
    exact = values[node] - targets[zero_owner] == 0.0
    return (interval[keep], owner[keep], f_lo[keep]), (node[exact], zero_owner[exact])


def _scan_roots_batch(
    scan: FrequencyScan, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of half_trace(omega) = t for every target t, one bisection run.

    Brackets come from ``_target_hits`` (sorted-target binary search, never
    across a blocked interval) and are refined together by bisection, the
    only refinement used; exact zeros at scan nodes are roots as they are.

    Returns:
        (roots, counts): the roots grouped by target in target order and
        sorted within each group, and the number of roots of each target.
    """
    cell = scan.cell
    (interval, owner, f_lo), (node, zero_owner) = _target_hits(scan, targets)
    func = lambda x, live: half_trace_values(cell, x) - targets[owner[live]]
    refined = _bisect(
        func,
        scan.nodes[interval],
        scan.nodes[interval + 1],
        f_lo,
        rtol=ROOT_RTOL,
        residual_tol=RESIDUAL_TOL,
    )
    roots = np.concatenate([scan.nodes[node], refined])
    owners = np.concatenate([zero_owner, owner])
    order = np.lexsort((roots, owners))
    return roots[order], np.bincount(owners, minlength=len(targets))


# --- branches ----------------------------------------------------------------


def trace_branches(
    cell: ShuntedCell,
    k_points: int = DEFAULT_K_POINTS,
    omega_max: float | None = None,
    *,
    scan: FrequencyScan | None = None,
) -> list[Branch]:
    """Trace all dispersion branches omega_n(K) on a uniform K grid.

    For each K in [0, pi/T] the roots of half_trace(omega) = cos(K*T) are
    bracketed on the shared scan and refined by bisection; the n-th lowest
    root at each K forms branch n. The trivial solution (K, omega) = (0, 0)
    belongs to the first branch exactly when the quasistatic stiffness
    c_eff is positive or infinite (at C/S = Cinf/S the branch leaves the
    origin with infinite slope); in the negative-stiffness regime the
    first branch detaches from the origin.

    Args:
        cell: Unit cell.
        k_points: Number of K samples (>= 2).
        omega_max: Scan ceiling (rad/s); defaults to ``default_omega_max``.
        scan: Optional pre-built scan to reuse; its window then wins over
            omega_max.

    Returns:
        Branches ordered by index; empty list if no roots exist below
        omega_max.
    """
    if k_points < 2:
        raise ValueError("k_points must be at least 2")
    if scan is None:
        scan = scan_frequencies(cell, omega_max)
    period = cell.period
    k_grid = np.linspace(0.0, math.pi / period, k_points)
    include_origin = effective_model(cell).regime in (Regime.POSITIVE, Regime.POLE)

    roots, counts = _scan_roots_batch(scan, np.cos(k_grid * period))
    # At K = 0 the node omega = 0 is an exact root; it is kept, as the
    # trivial solution, only where c_eff is positive or infinite.
    trivial = int(np.searchsorted(roots[: counts[0]], 0.0, side="right"))
    roots = roots[trivial:]
    counts[0] -= trivial
    if include_origin:
        roots = np.concatenate([[0.0], roots])
        counts[0] += 1

    # Padded (K, branch) table: the n-th lowest root at each K is branch n.
    n_branches = int(counts.max(initial=0))
    present = np.arange(n_branches) < counts[:, None]
    table = np.zeros((k_points, n_branches))
    table[present] = roots
    return [
        Branch(index=j + 1, k=k_grid[present[:, j]], omega=table[present[:, j], j])
        for j in range(n_branches)
    ]


def stopbands(
    cell: ShuntedCell,
    omega_max: float | None = None,
    *,
    scan: FrequencyScan | None = None,
) -> list[StopbandInterval]:
    """Maximal stop/pole intervals in [0, omega_max].

    Edges are refined by bisection on |half_trace| - 1; an interval whose
    closure reaches omega = 0 carries the quasistatic flag.
    """
    if scan is None:
        scan = scan_frequencies(cell, omega_max)
    cell_ = scan.cell
    g = np.abs(scan.values) - 1.0
    prod = g[:-1] * g[1:]
    idx = np.nonzero((prod < 0.0) & ~scan.blocked)[0]
    func = lambda x, live: np.abs(half_trace_values(cell_, x)) - 1.0
    edges = _bisect(func, scan.nodes[idx], scan.nodes[idx + 1], g[idx], rtol=ROOT_RTOL)
    interior_zeros = scan.nodes[(g == 0.0) & (scan.nodes > 0.0) & (scan.nodes < scan.omega_max)]
    edges = np.unique(np.concatenate([edges, interior_zeros]))

    boundaries = np.concatenate([[0.0], edges, [scan.omega_max]])
    lo, hi = boundaries[:-1], boundaries[1:]
    is_stop = _intervals_are_stop(scan, lo, hi)
    raw = list(zip(lo[is_stop].tolist(), hi[is_stop].tolist()))

    # Roundoff near |half_trace| = 1 (e.g. impedance-matched cells) can
    # produce sliver intervals at the noise floor; merge across sliver
    # gaps and drop sliver stopbands.
    sliver = 1e-12 * scan.omega_max
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo - merged[-1][1] < sliver:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [
        StopbandInterval(omega_lo=lo, omega_hi=hi, absolute=True, quasistatic=(lo == 0.0))
        for lo, hi in merged
        if hi - lo >= sliver
    ]


def _intervals_are_stop(scan: FrequencyScan, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Classify the open intervals (lo[i], hi[i]) by their sampled interior.

    An interval is a stop interval when the largest |half_trace| over the
    scan nodes strictly inside it exceeds 1. Intervals without interior
    nodes are judged at their midpoints, all in one kernel call.
    """
    magnitude = np.append(np.abs(scan.values), 0.0)
    first = np.searchsorted(scan.nodes, lo, side="right")
    stop = np.searchsorted(scan.nodes, hi, side="left")
    has_interior = stop > first
    # Over the interleaved bounds (first[0], stop[0], first[1], ...) the even
    # slots reduce [first, stop); the appended 0 keeps stop == len(nodes) valid.
    peak = np.maximum.reduceat(magnitude, np.column_stack([first, stop]).ravel())[::2]
    is_stop = has_interior & (peak > 1.0)
    empty = ~has_interior & (hi > lo)
    if empty.any():
        mid = 0.5 * (lo[empty] + hi[empty])
        is_stop[empty] = np.abs(half_trace_values(scan.cell, mid)) > 1.0
    return is_stop


# --- derived branch quantities ------------------------------------------------


def _uniform_spacing(k: np.ndarray) -> float | None:
    """Common K step of the samples, or None if they are not uniform."""
    dk = np.diff(k)
    if dk.size and np.allclose(dk, dk[0], rtol=1e-9, atol=0.0):
        return float(dk[0])
    return None


def _group_velocities(branch: Branch) -> np.ndarray:
    """``group_velocity`` at every sample of a branch, in one pass (m/s).

    Samples where ``group_velocity`` would raise InsufficientSamplesError
    (fewer than 5 samples, non-uniform K) get nan.
    """
    n = len(branch)
    dk = _uniform_spacing(branch.k) if n >= 5 else None
    if dk is None:
        return np.full(n, np.nan)
    w = branch.omega
    v = np.empty(n)
    v[2:-2] = (w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:]) / (12 * dk)
    v[0] = (-25 * w[0] + 48 * w[1] - 36 * w[2] + 16 * w[3] - 3 * w[4]) / (12 * dk)
    v[1] = (-3 * w[0] - 10 * w[1] + 18 * w[2] - 6 * w[3] + w[4]) / (12 * dk)
    v[-2] = (3 * w[-1] + 10 * w[-2] - 18 * w[-3] + 6 * w[-4] - w[-5]) / (12 * dk)
    v[-1] = (25 * w[-1] - 48 * w[-2] + 36 * w[-3] - 16 * w[-4] + 3 * w[-5]) / (12 * dk)
    return v


def group_velocity(branch: Branch, k: float) -> float:
    """d omega / d K at the branch sample nearest to k (m/s).

    Fourth-order central differences in the interior, one-sided stencils
    of the same order at the edges.

    Raises:
        InsufficientSamplesError: With fewer than 5 samples, or samples
            not uniformly spaced in K.
        ValueError: If k lies outside the branch sample range.
    """
    if len(branch) < 5:
        raise InsufficientSamplesError("group velocity needs at least 5 branch samples")
    dk = _uniform_spacing(branch.k)
    if dk is None:
        raise InsufficientSamplesError("branch samples are not uniformly spaced in K")
    if k < branch.k[0] - 0.5 * dk or k > branch.k[-1] + 0.5 * dk:
        raise ValueError("k outside the branch sample range")
    i = int(np.argmin(np.abs(branch.k - k)))
    return float(_group_velocities(branch)[i])


def origin_slope(branch: Branch) -> float:
    """Branch slope at K -> 0 from the three smallest positive-K samples.

    The squared slowness (K/omega)^2 is an analytic, even function of
    omega along an origin-passing branch and stays well conditioned even
    where the slope diverges, so it is what gets extrapolated (through a
    quadratic in omega^2) rather than omega/K itself.
    """
    mask = branch.k > 0.0
    if mask.sum() < 3:
        raise InsufficientSamplesError("need three positive-K samples for the origin slope")
    ks = branch.k[mask][:3]
    ws = branch.omega[mask][:3]
    if np.any(ws <= 0.0):
        raise NumericalError("origin slope needs positive-frequency samples")
    slowness_sq = (ks / ws) ** 2
    vander = np.column_stack([np.ones(3), ws**2, ws**4])
    coeffs = np.linalg.solve(vander, slowness_sq)
    if coeffs[0] <= 0.0:
        raise NumericalError("squared-slowness extrapolation left the physical region")
    return float(1.0 / math.sqrt(coeffs[0]))


def branch_flatness(branch: Branch) -> float:
    """Relative spread (max - min)/mean of the branch frequencies."""
    mean = float(np.mean(branch.omega))
    if mean == 0.0:
        return math.inf
    return float((np.max(branch.omega) - np.min(branch.omega)) / mean)


def detect_flat_bands(
    cell: ShuntedCell,
    omega_max: float | None = None,
    flatness_tol: float = DEFAULT_FLATNESS_TOL,
    *,
    k_points: int = DEFAULT_K_POINTS,
    scan: FrequencyScan | None = None,
) -> list[Branch]:
    """Branches whose relative frequency spread is below flatness_tol."""
    if flatness_tol <= 0.0:
        raise ValueError("flatness_tol must be positive")
    branches = trace_branches(cell, k_points, omega_max, scan=scan)
    return [b for b in branches if branch_flatness(b) < flatness_tol]


def find_flat_capacitance(
    cell: ShuntedCell,
    bracket: tuple[float, float],
    *,
    k_points: int = DEFAULT_K_POINTS,
    omega_max: float | None = None,
    flatness_tol: float = DEFAULT_FLATNESS_TOL,
) -> float:
    """C/S at which the first branch is flat, by bisection on its end slope.

    Args:
        cell: Template cell (its own c_over_s is ignored).
        bracket: (c_lo, c_hi) in F/m^2, both strictly inside the
            negative-stiffness interval, with opposite first-branch
            end-to-end slopes.

    Returns:
        The flat-band capacitance per area C*/S.

    Raises:
        BracketError: If the bracket leaves the negative-stiffness interval
            or both ends give the same slope sign.
        NumericalError: If bisection exhausts the bracket without reaching
            the requested flatness.
    """
    c_lo, c_hi = sorted(bracket)
    c_inf, c_zero = special_capacitances(cell)
    if not (c_zero < c_lo < c_inf and c_zero < c_hi < c_inf):
        raise BracketError(
            "bracket must lie strictly inside the negative-stiffness interval "
            f"({c_zero:.6e}, {c_inf:.6e}) F/m^2"
        )

    def first_branch(gamma: float) -> Branch:
        branches = trace_branches(cell.with_c_over_s(gamma), k_points, omega_max)
        if not branches:
            raise NumericalError(f"no branches found at C/S = {gamma!r}")
        return branches[0]

    def end_slope(branch: Branch) -> float:
        return float(branch.omega[-1] - branch.omega[0])

    b_lo, b_hi = first_branch(c_lo), first_branch(c_hi)
    s_lo, s_hi = end_slope(b_lo), end_slope(b_hi)
    if s_lo == 0.0:
        return c_lo
    if s_hi == 0.0:
        return c_hi
    if (s_lo > 0) == (s_hi > 0):
        raise BracketError("first-branch end slope has the same sign at both bracket ends")

    best = None
    for _ in range(200):
        mid = 0.5 * (c_lo + c_hi)
        if mid <= c_lo or mid >= c_hi:
            break
        branch = first_branch(mid)
        flatness = branch_flatness(branch)
        if best is None or flatness < best[1]:
            best = (mid, flatness)
        if flatness < 0.1 * flatness_tol:
            return mid
        s_mid = end_slope(branch)
        if s_mid == 0.0:
            return mid
        if (s_mid > 0) == (s_lo > 0):
            c_lo, s_lo = mid, s_mid
        else:
            c_hi, s_hi = mid, s_mid
        if (c_hi - c_lo) <= 1e-12 * abs(mid):
            break
    if best is not None and best[1] < flatness_tol:
        return best[0]
    raise NumericalError("bisection exhausted the bracket without reaching the flatness tolerance")


def half_trace_curvature(cell: ShuntedCell) -> float:
    """Richardson-extrapolated d^2(half_trace)/d omega^2 at omega = 0.

    In the quasistatic limit this equals -T^2 * rho_eff / c_eff, which
    links the cell matrices to the closed-form effective model without
    external data. The probe step adapts to stay well below both the
    first shunt resonance and the curvature scale itself.
    """
    omega_ref = 0.25 * default_omega_max(cell)  # first-gap center scale
    step = omega_ref / 64.0
    if has_shunt_correction(cell):
        poles = _find_poles(cell, omega_ref, 8001)
        if poles.size:
            step = min(step, poles[0] / 64.0)

    def second_difference(s: float) -> float:
        # half_trace is even in omega with value exactly 1 at 0.
        return 2.0 * (float(half_trace_values(cell, s)) - 1.0) / (s * s)

    # Keep the probe deviation small enough for the quartic term to be a
    # correction, but large enough to dominate roundoff in 1 - h.
    for _ in range(8):
        deviation = abs(second_difference(step)) * step * step
        if deviation <= 2e-2:
            break
        step *= 0.25

    d1 = second_difference(step)
    d2 = second_difference(step / 2.0)
    d3 = second_difference(step / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return float((16.0 * r2 - r1) / 15.0)
