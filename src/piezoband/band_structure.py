"""Floquet-Bloch spectrum: branch tracing, stopbands, anomaly detectors.

The dispersion relation is cos(K*T) = half-trace of the unit-cell matrix.
Everything here is driven by one adaptive frequency scan per cell: the
scan samples the half-trace, locates shunt resonance poles in closed-form
brackets (between consecutive extrema of the piezo-layer sin(q)/q, each
holding at most one pole), and refines locally near band edges and poles.
Branches and stopband edges come from one root search on that scan: a
stopband edge is a K = 0 or K = pi/T branch sample.

The pole rule: no root is ever bisected on a function with a pole inside
its bracket. A scan interval that holds a pole is searched on the
pole-free numerator g_t = (S/C - M3)*(h - t) = (S/C - M3)*(h0 - t) + r
instead of h - t (see ``transfer_matrix._cell_parts``). Where r vanishes
at the pole too, g_t vanishes there for every target t: the frequency is
a flat band, a root at every K. ``group_velocity`` differentiates g_t
implicitly, by one complex step of the parts, so a flat band has v_g = 0.

The flat-band frequencies, where r changes sign, solve theta(omega) = k*pi
for a rising phase theta: one in each (k*pi/T, (k + 2)*pi/T) (see
``_flat_band_candidates``). Poles (``_float_newton``) and flat bands
(``_newton``) alike take safeguarded Newton on the closed form, then
``_locate``'s sign-verified bracket of the kernel's own function around
it, bisected only if it had to be widened past the pole tolerance.
``find_flat_capacitance`` judges each candidate on the scan brackets of
each K's lowest root, refined only where they leave the verdict open.

Root search is array code throughout. The targets cos(K*T) of all K are
sorted once; each pole-free scan interval finds its candidate targets by
binary search on its two end values and keeps those that pass the strict
sign-change test, so the cost is O(nodes * log targets + brackets) with no
targets x nodes temporary. The refiner is chosen per scan (``_bisected``),
so a root never depends on the other targets of its search. A scan of any
window but the default locates each h - t root on a Chebyshev proxy of
its scan interval (three index bisections to the sign change, then about
two Newton evaluations) that a kernel pair around it verifies; the
brackets a pair fails, and every g_t bracket of a blocked interval, are
bisected. A scan of exactly the default window is bisected throughout.
``stopbands`` reuses a trace's h = +-1 roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .materials import ShuntedCell
from .quasistatic import Regime, _matches, effective_model, special_capacitances
from .transfer_matrix import (
    _BLOCK,
    _cell_parts,
    has_shunt_correction,
    monodromy,
    monodromy_entries,
    shunt_denominator,
)

__all__ = [
    "BracketError",
    "NumericalError",
    "InsufficientSamplesError",
    "Branch",
    "StopbandInterval",
    "FrequencyScan",
    "default_omega_max",
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

# Solver defaults: 200 K-points and a 2000-point base scan with 16x local
# refinement resolve the spectral features of mm-scale cells comfortably.
DEFAULT_K_POINTS = 200
DEFAULT_BASE_POINTS = 2000
DEFAULT_REFINE_FACTOR = 16
ROOT_RTOL = 1e-10
RESIDUAL_TOL = 1e-9
DEFAULT_FLATNESS_TOL = 1e-3
# Relative width at which a pole (or a root of r) is located.
_POLE_RTOL = 1e-14
# Bisection passes a kernel call; one a call is 1.8x slower on the 9 default panels.
_MAX_LEVELS = 6
# Each scan interval with brackets is interpolated at the 9
# Chebyshev-Lobatto points s_j = -cos(j*pi/8) of [-1, 1] (Boyd, SIAM J.
# Numer. Anal. 40(5), 2002), in powers of s for Horner: coefficients a =
# _POWERS @ samples.
_LOBATTO = -np.cos(np.arange(9) * (math.pi / 8))
# Column j holds the Lagrange basis polynomial of s_j, from its roots (no
# BLAS or LAPACK call, which would start their thread buffers at import).
_POWERS = np.array([
    np.poly(np.delete(_LOBATTO, j))[::-1] / np.prod(_LOBATTO[j] - np.delete(_LOBATTO, j))
    for j in range(9)
]).T
# A proxy's Newton run stops once its step, or 1e4 times the next step that
# quadratic convergence predicts, is at most this fraction of its half-width.
_NEWTON_STOP = 1e-9
# Newton evaluations of each proxy at most, from regula falsi across its sign change: on the
# wide-window benchmark's cells two stop all but 4 252 of 143 524 runs, three all but 20, four all.
_NEWTON_STEPS = 8


class BracketError(ValueError):
    """A root/continuation bracket does not satisfy its sign precondition."""


class NumericalError(RuntimeError):
    """The solver could not complete (unbracketable root, bad topology)."""


class InsufficientSamplesError(ValueError):
    """Too few branch samples for ``origin_slope``, the one function that raises it."""


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
        quasistatic: True when the interval starts at omega = 0.
    """

    omega_lo: float
    omega_hi: float
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
    """Half-trace of the cell matrix, elementwise over omega (unchecked).

    One half-trace-only kernel call: 0.5*(t11 + t22) of ``monodromy_entries``
    bit for bit, with no t12 or t21 formed.
    """
    return monodromy_entries(cell, omega, half_trace=True)


def bloch_wavenumber(cell: ShuntedCell, omega: float) -> tuple[float, float]:
    """Real and imaginary parts of the Floquet wavenumber at omega.

    In a pass band K is real in [0, pi/T]; in a stopband the wave is
    evanescent and Im K > 0, with Re K pinned to 0 or pi/T by the sign of
    the half-trace.

    Raises:
        ValueError: If omega is not finite.
        ResonancePoleError: At a flagged shunt resonance.
    """
    t = monodromy(cell, omega)
    h = 0.5 * (t[0, 0] + t[1, 1])
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
        values: Half-trace at the nodes.
        poles: Shunt resonance frequencies in (0, omega_max), ascending:
            zeros of S/C - M3, each located by ``_locate`` in its bracket
            between consecutive extrema of the piezo sin(q)/q, and
            bisected only where its sign-verified pair had to be widened.
        blocked: Per-interval mask, True when (nodes[i], nodes[i+1])
            contains a pole: its roots are bracketed and bisected on the
            pole-free numerator g_t, never on the half-trace.

    ``trace_branches`` keeps its roots of h = +-1 (K = 0 and pi/T) in a
    private field outside init, equality and repr; ``stopbands`` reuses them.
    """

    cell: ShuntedCell
    omega_max: float
    nodes: np.ndarray
    values: np.ndarray
    poles: np.ndarray
    blocked: np.ndarray
    _edges: tuple | None = field(default=None, init=False, compare=False, repr=False)


def _bisect(func, lo, hi, f_lo, f_hi, *, rtol, residual_tol=None, max_iter=200):
    """Vectorized bisection on 1-D arrays of brackets with f(lo)*f(hi) < 0.

    ``func(x, live)`` evaluates the residual at the points x of the
    brackets whose input positions are ``live``. Each pass sets mid =
    0.5*(lo + hi) and moves lo there where f(mid) has the sign of f(lo),
    else hi. A bracket finishes at mid when the width after the move is
    relatively tight (and, if requested, |f(mid)| is small), when f(mid) is
    an exact zero, or when the floating-point grid is exhausted. It refines
    every root search of a default-window scan (``_bisected``), the g_t
    brackets of every other scan and the h - t brackets whose proxy roots it
    could not verify, and the pole pairs that ``_locate`` had to widen.

    ``_MAX_LEVELS`` passes share a func call, whatever the number of
    brackets, so the kernel's fixed cost is paid once a round. A round
    predicts each bracket's path from the secant g through its last two
    evaluated points, at first its two ends (regula falsi): mid_k = 0.5*(lo_k
    + hi_k) as in a pass, and lo moves where mid_k < g. The mids go to func
    level by level, so brackets that share a mid keep it next to each other.
    The replay takes level k where levels 0..k-1 went as predicted and did
    not finish the bracket; the level that finishes it, or moves it against
    the prediction, or the round's last, ends its round. Each test is the
    pass's own, on the width after the move, so no bit of a root depends on
    a prediction: a wrong one costs points. Passes are counted per bracket,
    and no round takes one past max_iter. The returned point is always one
    whose residual was actually evaluated.

    Raises:
        NumericalError: If a bracket is still open after max_iter passes.
    """
    lo, hi = np.array([lo, hi], dtype=float)
    f_lo, f_hi = np.asarray(f_lo, dtype=float), np.asarray(f_hi, dtype=float)
    positive = f_lo > 0.0
    result = np.empty(lo.size)
    live = np.arange(lo.size)
    passes = np.zeros(lo.size, dtype=int)
    x, f_x, x_prev, f_prev = lo, f_lo, hi, f_hi
    while live.size:
        top = int(passes.max())
        depth = min(_MAX_LEVELS, max_iter - top)
        if depth < 1:
            open_ = np.flatnonzero(passes >= max_iter)
            raise NumericalError(
                f"bisection left {open_.size} bracket(s) open after {max_iter} passes; "
                f"first open bracket [{lo[open_[0]]!r}, {hi[open_[0]]!r}]"
            )
        with np.errstate(all="ignore"):
            guess = x - (x - x_prev) * f_x / (f_x - f_prev)
        # The predicted path: the ends before each level, and its mid.
        m = live.size
        lows, highs = [], []
        mids, up = np.empty((depth, m)), np.empty((depth, m), dtype=bool)
        for k in range(depth):
            lows.append(lo)
            highs.append(hi)
            mid = np.multiply(0.5, lo + hi, out=mids[k])
            np.less(mid, guess, out=up[k])
            lo, hi = np.where(up[k], mid, lo), np.where(up[k], hi, mid)
        f = func(mids.reshape(-1), np.concatenate([live] * depth)).reshape(depth, m)
        lows, highs = np.array(lows), np.array(highs)
        moves_lo = (f > 0.0) == positive
        converged = np.where(moves_lo, highs - mids, mids - lows) <= rtol * np.abs(mids)
        if residual_tol is not None:
            converged &= np.abs(f) <= residual_tol
        finished = converged | (f == 0.0) | (mids <= lows) | (mids >= highs)
        stop = finished | (moves_lo != up)
        stop[-1] = True
        last = stop.argmax(axis=0)
        pick = last * m + np.arange(m)
        done = finished.take(pick)
        if done.any():
            result[live[done]] = mids.take(pick[done])
            keep = np.flatnonzero(~done)
            live, positive, passes = live[keep], positive[keep], passes[keep]
            last, pick, x, f_x = last[keep], pick[keep], x[keep], f_x[keep]
        # The last two evaluated points: the level before the last, or the previous round's.
        later = last > 0
        x_prev = np.where(later, mids.take(pick - m), x)
        f_prev = np.where(later, f.take(pick - m), f_x)
        # An open bracket takes its last level's move, predicted or not.
        x, f_x, move = mids.take(pick), f.take(pick), moves_lo.take(pick)
        lo, hi = np.where(move, x, lows.take(pick)), np.where(move, highs.take(pick), x)
        passes = passes + last + 1
    return result


def _sinc_extrema(q_max: float) -> np.ndarray:
    """The roots of tan q = q in (0, q_max), where sin(q)/q has its extrema."""
    n = np.arange(1, int(q_max / math.pi) + 1)
    q = (n + 0.5) * math.pi
    q -= 1.0 / q
    for _ in range(4):
        # Newton on sin q - q*cos q, whose derivative is q*sin q.
        q -= (np.sin(q) - q * np.cos(q)) / (q * np.sin(q))
    return q[q < q_max]


def _find_poles(cell: ShuntedCell, omega_max: float) -> np.ndarray:
    """Locate zeros of the shunt denominator D = S/C - M3 in (0, omega_max).

    D = S/C + d/eps - h^2*(d/cD)*sin(q)/q depends on omega only through the
    piezo phase q = alpha*omega, alpha = d*sqrt(rho/cD). sin(q)/q is
    monotone between consecutive roots of tan q = q, so each segment of
    [0, omega_max] between them holds at most one pole, bracketed where D
    changes sign across it; ``_float_newton`` on this closed form and ``_locate`` find each.
    Exact zeros of D at segment ends are poles themselves.
    """
    if not has_shunt_correction(cell):
        return np.empty(0)
    pz = cell.piezo
    alpha = pz.d * pz.slowness
    level, weight = 1.0 / cell.c_over_s + pz.d / pz.eps, pz.h * pz.h * (pz.d / pz.cD)

    def model(x):
        # D and D' = -h^2*(d/cD)*alpha*(cos q - sin(q)/q)/q, on floats.
        q = alpha * x
        sinc = math.sin(q) / q
        return level - weight * sinc, (weight * alpha) * (sinc - math.cos(q)) / q

    ends = np.concatenate([[0.0], _sinc_extrema(alpha * omega_max) / alpha, [omega_max]])
    d_ends = shunt_denominator(cell, ends)
    poles = ends[1:-1][d_ends[1:-1] == 0.0]
    idx = np.nonzero(d_ends[:-1] * d_ends[1:] < 0.0)[0]
    if idx.size:
        lo, hi, d_lo, d_hi = ends[idx], ends[idx + 1], d_ends[idx], d_ends[idx + 1]
        # Start where a half cosine through both ends, flat at both like D, is 0.
        x = lo + (hi - lo) / math.pi * np.arccos((d_lo + d_hi) / (d_hi - d_lo))
        # About ten poles a scan: a float run takes 3 us, a _newton step 19 us at any size.
        brackets = zip(x.tolist(), lo.tolist(), hi.tolist(), (d_lo > 0.0).tolist())
        x = np.array([_float_newton(model, *bracket) for bracket in brackets])
        located = _locate(lambda x: shunt_denominator(cell, x), x, lo, hi)
        # One a segment, so ascending and distinct; only exact zeros need merging.
        poles = np.unique(np.concatenate([poles, located])) if poles.size else located
    return poles[(poles > 0.0) & (poles < omega_max)]


def _locate(func, x, lo, hi) -> np.ndarray:
    """The zero of the kernel's func in each bracket [lo, hi], next to its Newton estimate x.

    Each x stopped on its own step of at most ``_POLE_RTOL``/4 of its start
    |x|. func is called once a round at x*(1 -+ delta) in [lo, hi], delta =
    ``_POLE_RTOL``/4 up 16x, until the values differ in sign or one is 0
    (``NumericalError`` if not even at lo and hi). A pair within
    ``_POLE_RTOL``*|mid| gives its mid 0.5*(a + b), as ``_bisect``'s first
    pass would, so only widened pairs are bisected.
    """
    a, b, f_a, f_b = (np.empty_like(x) for _ in range(4))
    todo, delta = np.arange(x.size), _POLE_RTOL / 4
    while todo.size:
        pair = np.clip(np.outer([1.0 - delta, 1.0 + delta], x[todo]), lo[todo], hi[todo])
        f = func(pair.ravel()).reshape(pair.shape)
        zero = f == 0.0
        # An exact zero closes its bracket on itself.
        a[todo] = np.where(zero[1] & ~zero[0], pair[1], pair[0])
        b[todo], f_a[todo], f_b[todo] = np.where(zero[0], pair[0], pair[1]), f[0], f[1]
        done = np.sign(f[0]) * np.sign(f[1]) <= 0.0
        if np.any(~done & (pair[0] <= lo[todo]) & (pair[1] >= hi[todo])):
            raise NumericalError(f"no sign change next to the roots {x[todo][~done]!r}")
        todo, delta = todo[~done], 16.0 * delta
    mid = 0.5 * (a + b)
    wide = np.maximum(mid - a, b - mid) > _POLE_RTOL * np.abs(mid)
    if wide.any():
        mid[wide] = _bisect(
            lambda x, live: func(x), a[wide], b[wide], f_a[wide], f_b[wide], rtol=_POLE_RTOL
        )
    return mid


def scan_frequencies(
    cell: ShuntedCell,
    omega_max: float | None = None,
    *,
    base_points: int = DEFAULT_BASE_POINTS,
) -> FrequencyScan:
    """Build the adaptive half-trace scan for a cell.

    The base grid is uniform; the intervals where the half-trace crosses
    +-1 and the interval that holds each located pole are subdivided by
    ``DEFAULT_REFINE_FACTOR``, so that ``blocked`` marks a short interval.

    Raises:
        ValueError: If omega_max is not positive and finite, or the window
            holds more bands than ``base_points`` can resolve.
    """
    omega_max = _window(cell, omega_max, base_points)
    nodes = np.linspace(0.0, omega_max, base_points + 1)
    poles = _find_poles(cell, omega_max)
    # Where S/C - M3 rounds to 0 next to a pole the half-trace is not finite;
    # such nodes are dropped at the end, and the pole's interval spans them.
    with np.errstate(invalid="ignore"):
        values = half_trace_values(cell, nodes)

        # One local refinement pass near band edges and poles.
        lower, upper = values - 1.0, values + 1.0
        refine = (lower[:-1] * lower[1:] < 0.0) | (upper[:-1] * upper[1:] < 0.0)
        refine |= _blocked_mask(nodes, poles)
        if refine.any():
            i = np.nonzero(refine)[0]
            ratios = np.arange(1, DEFAULT_REFINE_FACTOR) / DEFAULT_REFINE_FACTOR
            extra = (nodes[i, None] + (nodes[i + 1] - nodes[i])[:, None] * ratios).ravel()
            extra_values = half_trace_values(cell, extra)
            # A node and an inserted point can coincide; np.unique keeps the
            # first occurrence, so the node's own value wins.
            nodes, unique_idx = np.unique(np.concatenate([nodes, extra]), return_index=True)
            values = np.concatenate([values, extra_values])[unique_idx]
    finite = np.isfinite(values)
    nodes, values = nodes[finite], values[finite]

    return FrequencyScan(
        cell=cell,
        omega_max=float(omega_max),
        nodes=nodes,
        values=values,
        poles=poles,
        blocked=_blocked_mask(nodes, poles),
    )


def _window(cell: ShuntedCell, omega_max: float | None, base_points: int) -> float:
    """omega_max, or ``default_omega_max``, checked against a base grid of base_points.

    The window holds about 4*omega_max/default_omega_max(cell) bands; above
    base_points/4 of them a band gets fewer than four base intervals, and
    far above the kernel overflows.
    """
    default = default_omega_max(cell)
    if omega_max is None:
        omega_max = default
    if not (math.isfinite(omega_max) and omega_max > 0.0):
        raise ValueError(f"omega_max must be positive and finite, got {omega_max!r}")
    bands = 4.0 * omega_max / default
    if bands > base_points / 4:
        raise ValueError(
            f"omega_max={omega_max!r} spans about {bands:.3g} bands, more than the "
            f"{base_points / 4:g} that {base_points} base points resolve"
        )
    return float(omega_max)


def _scan_of(cell: ShuntedCell, omega_max: float | None, scan: FrequencyScan | None):
    """The given scan, checked to be of ``cell``, or a new scan of ``cell``."""
    if scan is None:
        return scan_frequencies(cell, omega_max)
    if scan.cell != cell:
        raise ValueError("scan was built for a different cell")
    return scan


def _blocked_mask(nodes: np.ndarray, poles: np.ndarray) -> np.ndarray:
    blocked = np.zeros(len(nodes) - 1, dtype=bool)
    if poles.size:
        idx = np.searchsorted(nodes, poles) - 1
        idx = np.clip(idx, 0, len(blocked) - 1)
        blocked[idx] = True
    return blocked


def _index_ranges(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges [first[i], stop[i]) into (i, position) pairs, expanding only nonempty ones."""
    held = np.flatnonzero(stop > first)
    count = stop[held] - first[held]
    row = np.repeat(held, count)
    position = np.arange(row.size) + np.repeat(first[held] - (np.cumsum(count) - count), count)
    return row, position


def _target_hits(scan: FrequencyScan, targets: np.ndarray, *, lowest: bool = False):
    """Brackets and exact node zeros of the half-trace h(omega) = t for all targets.

    The targets are sorted once, and two binary searches of the node
    values give the targets below and those not above each node. From
    them each unblocked scan interval takes the targets strictly between
    its two end values, and each node those equal to its value. The
    candidates are then held to the tests of ``f = values - t``
    themselves: f_lo*f_hi < 0 for a bracket, f == 0 for an exact zero.
    Work and memory scale with nodes * log(targets) plus the hits.

    A blocked interval tries every target on the pole-free numerator
    g_t = (S/C - M3)*(h - t) instead, whose sign at a node is
    sign(S/C - M3)*(h - t): its brackets pass g_lo*g_hi < 0, carry g_lo as
    f_lo and come after all others. With ``lowest``, each target keeps its
    lowest hit above omega = 0: a zero at node i lies below the root of
    interval j exactly when i <= j.

    Returns:
        (interval, owner, f_lo) of every bracket and (node, owner) of every
        exact zero, where owner indexes ``targets``.
    """
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    values = scan.values
    # The targets below each node value, and those not above it. An interval
    # takes those above its lower end value and below its upper one.
    left = np.searchsorted(ordered, values, side="left")
    right = np.searchsorted(ordered, values, side="right")
    rising = values[:-1] <= values[1:]
    first = np.where(rising, right[:-1], right[1:])
    stop = np.where(scan.blocked, first, np.where(rising, left[1:], left[:-1]))
    interval, position = _index_ranges(first, stop)
    owner = order[position]
    f_lo = values[interval] - targets[owner]
    keep = f_lo * (values[interval + 1] - targets[owner]) < 0.0
    brackets = (interval[keep], owner[keep], f_lo[keep])

    pole_interval = np.nonzero(scan.blocked)[0]
    if pole_interval.size:
        ends = np.stack([pole_interval, pole_interval + 1])
        sign = np.sign(shunt_denominator(scan.cell, scan.nodes[ends]))
        g_lo, g_hi = sign[:, :, None] * (values[ends][:, :, None] - targets)
        hit, pole_owner = np.nonzero(g_lo * g_hi < 0.0)
        if hit.size:
            at_pole = (pole_interval[hit], pole_owner, g_lo[hit, pole_owner])
            brackets = tuple(map(np.concatenate, zip(brackets, at_pole)))

    node, position = _index_ranges(left, right)
    zero_owner = order[position]
    exact = values[node] - targets[zero_owner] == 0.0
    node, zero_owner = node[exact], zero_owner[exact]
    if lowest:
        node, zero_owner = node[node > 0], zero_owner[node > 0]
        rank = np.concatenate([2 * node, 2 * brackets[0] + 1])
        key = np.full(len(targets), np.iinfo(np.intp).max)
        np.minimum.at(key, hit := np.concatenate([zero_owner, brackets[1]]), rank)
        first = key[hit] == rank
        brackets = tuple(a[first[node.size :]] for a in brackets)
        node, zero_owner = node[first[: node.size]], zero_owner[first[: node.size]]
    return brackets, (node, zero_owner)


def _proxy_roots(scan, interval, target, positive):
    """The proxy root (root, slope) of each h - t bracket, for ``_checked_roots``.

    Each scan interval that holds brackets is sampled at the 9
    Chebyshev-Lobatto points, its ends from ``scan.values`` and the 7 inner
    points in one kernel call; a bracket's proxy p interpolates its 9
    values f of h - t. Three bisection levels on the sample index find
    samples j, j + 1 where f leaves the sign of f(lo) (f > 0 or f <= 0):
    the sign change if f changes sign once, one of them if several times.
    Newton from regula falsi between them gives the root x and slope |p'|
    in omega, stopped or not: the verification pair judges x, and a bracket
    it fails is bisected. Brackets go in blocks of ``_BLOCK``.
    """
    nodes, values = scan.nodes, scan.values
    held = np.zeros(nodes.size, dtype=bool)
    held[interval] = True
    iv = np.flatnonzero(held)
    inverse = (np.cumsum(held) - 1)[interval]
    a, b = nodes[iv], nodes[iv + 1]
    inner = half_trace_values(scan.cell, a + (b - a) * (0.5 + 0.5 * _LOBATTO[1:-1, None]))
    h = np.concatenate([values[iv][None], inner, values[iv + 1][None]])
    # einsum, not matmul: a BLAS call on these (9, 9) @ (9, n) can cost milliseconds.
    # Rows k >= 1 of _POWERS sum to up to 3e-14, not 0: interpolated itself,
    # h = 1 - O(omega^2) next to the origin would leak its 1 into every
    # power and move the proxy root out of its verification pair.
    first = h[0]
    power = np.einsum("kj,jn->kn", _POWERS, h - first)
    # Sample j of interval k is flat[j*m + k]; i walks those indices.
    flat, m = h.ravel(), iv.size
    root, slope = np.empty(target.size), np.empty(target.size)
    for start in range(0, target.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        k, t, pos = inverse[block], target[block], positive[block]
        i = k.copy()
        for width in (4 * m, 2 * m, m):
            np.add(i, width, out=i, where=(flat.take(i + width) - t > 0.0) == pos)
        f_lo, f_hi = flat.take(i) - t, flat.take(i + m) - t
        lo_s, hi_s = _LOBATTO[i // m], _LOBATTO[i // m + 1]
        coef = power.take(k, axis=1)
        coef[0] += first[k] - t
        with np.errstate(divide="ignore", invalid="ignore"):
            u = lo_s - f_lo * (hi_s - lo_s) / (f_hi - f_lo)
            dp = _newton(lambda s, run: _horner(coef[:, run], s), u, lo_s, hi_s, pos)
        half = 0.5 * (b - a)[k]
        slope[block] = np.abs(dp) / half
        root[block] = a[k] + half * (1.0 + u)
    return root, slope


def _checked_roots(cell, x, slope, target, lo, hi, positive):
    """(roots, found): the proxy roots x of h = target that the kernel verifies.

    Each bracket gets a pair x -+ dx, clipped to [lo, hi], with dx =
    min(``ROOT_RTOL``/4*x, ``RESIDUAL_TOL``/(4*slope)); all pairs go to one
    kernel call, which evaluates them in blocks of ``_BLOCK``. The pair
    must change sign the way f = h - target does from lo to hi (an exact 0
    counts as either sign), and its end with the smaller |f| must meet
    ``RESIDUAL_TOL``: then that end is the root, within 2*dx <=
    ``ROOT_RTOL``/2*x of a root of f whatever the proxy's error.
    """
    with np.errstate(divide="ignore"):
        dx = np.minimum(ROOT_RTOL / 4 * x, RESIDUAL_TOL / (4.0 * slope))
    pair = np.multiply.outer((-1.0, 1.0), dx)
    pair += x
    np.minimum(np.maximum(pair, lo, out=pair), hi, out=pair)
    f = half_trace_values(cell, pair.ravel()).reshape(pair.shape) - target
    np.negative(f, out=f, where=~positive)
    size = np.abs(f)
    found = (f[0] >= 0.0) & (f[1] <= 0.0) & (np.minimum(*size) <= RESIDUAL_TOL)
    return np.where(size[1] < size[0], pair[1], pair[0]), found


def _newton(model, u, lo, hi, positive, stop=_NEWTON_STOP, steps=_NEWTON_STEPS):
    """Safeguarded Newton on each model(u, run) = (p, p') from u, in place, kept inside (lo, hi).

    ``positive`` marks the models that are > 0 at lo, as in ``_bisect``;
    each iterate's sign moves lo or hi onto it, exactly. A step out of the
    bracket, or a nan one where p' = 0, becomes its midpoint; a step onto u
    is taken. A run stops once its step d is at most ``stop``, or d^3*1e4
    <= stop*d_prev^2 after its step d_prev (quadratic convergence predicts
    the next below stop/1e4), or after ``steps`` evaluations. The first two
    take every model (run is ``slice(None)``), later ones the runs still
    open (run holds their positions). A stopped run keeps its u and the p'
    of its last step, which is returned, so each run's arithmetic is that
    of a loop on it alone. ``_proxy_roots`` runs it on its Chebyshev
    proxies, ``_flat_band_candidates`` on its phases; callers silence p / 0.
    """
    slope = np.empty_like(u)
    x, a, b, grad, last = u, lo, hi, slope, np.zeros_like(u)
    pos, tol = np.broadcast_to(positive, u.shape), np.broadcast_to(stop, u.shape)
    run, open_ = slice(None), np.ones(u.shape, dtype=bool)
    for i in range(steps):
        if i == 2:
            run = np.flatnonzero(open_)
            x, a, b, grad, last, pos, tol = (v[run] for v in (x, a, b, grad, last, pos, tol))
            open_ = open_[run]
        p, dp = model(x, run)
        below = (p > 0.0) == pos
        np.copyto(a, x, where=below)
        np.copyto(b, x, where=~below)
        step = x - p / dp
        step = np.where(((step > a) & (step < b)) | (step == x), step, 0.5 * (a + b))
        np.copyto(grad, dp, where=open_)
        d = np.abs(step - x)
        np.copyto(x, step, where=open_)
        open_ &= (d > tol) & (d * d * d * 1e4 > tol * last * last)
        last = d
        if not open_.any():
            break
    u[run], lo[run], hi[run], slope[run] = x, a, b, grad
    return slope


def _float_newton(model, u, lo, hi, positive):
    """``_newton``'s u on one float bracket (60 steps, stop ``_POLE_RTOL``/4*|u|); p' = 0 steps to its mid."""
    stop, d = _POLE_RTOL / 4 * abs(u), 0.0
    for _ in range(60):
        p, dp = model(u)
        if (p > 0.0) == positive:
            lo = u
        else:
            hi = u
        mid = 0.5 * (lo + hi)
        step = u - p / dp if dp else mid
        if not (lo < step < hi or step == u):
            step = mid
        u, last, d = step, d, abs(step - u)
        if d <= stop or d * d * d * 1e4 <= stop * last * last:
            break
    return u


def _horner(coef, s):
    """The polynomial sum coef[k]*s^k and its derivative, by Horner's rule."""
    p, dp = coef[-1].copy(), np.zeros_like(s)
    for row in coef[-2::-1]:
        dp *= s
        dp += p
        p *= s
        p += row
    return p, dp


def _bisected(scan: FrequencyScan) -> bool:
    """Whether the root searches of scan bisect, rather than locate, their roots.

    Only a scan of exactly the default window does: the default sweep's
    bytes, and the benchmark's digests of them, pin its root bits until the
    benchmark checks answers instead (ROADMAP item 9), which removes this
    exception. The rule is per scan, never per bracket set.
    """
    return scan.omega_max == default_omega_max(scan.cell)


def _scan_roots_batch(
    scan: FrequencyScan, targets: np.ndarray, *, lowest: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the half-trace h(omega) = t for every target t.

    Brackets come from ``_target_hits``. They are refined on h - t to
    ``ROOT_RTOL`` and ``RESIDUAL_TOL``, except in blocked intervals, where
    h - t has a pole (0/0 at a flat band) and g_t = (S/C - M3)*(h0 - t) + r
    is bisected, with no residual test. Exact zeros at scan nodes are roots
    as they are. With ``lowest``, each target keeps only its lowest hit
    above omega = 0 (``_target_hits``), and only those brackets are refined.

    A scan of the default window (``_bisected``) bisects h - t too, and
    g_t to ``ROOT_RTOL``. Any other scan, narrower or wider, takes the
    proxy roots of h - t (``_proxy_roots``) that the kernel verifies
    (``_checked_roots``): one kernel call for the proxies and one for the
    verification pairs. The h - t brackets left over, and every g_t
    bracket, are bisected to ``ROOT_RTOL``/4, so every root of such a scan
    lies within ``ROOT_RTOL``/2 of a root. Either way each root depends on
    its own bracket alone, never on the other targets of the search.

    Returns:
        (roots, counts): the roots grouped by target in target order and
        sorted within each group, and the number of roots of each target.
    """
    cell, nodes = scan.cell, scan.nodes
    (interval, owner, f_lo), (node, zero_owner) = _target_hits(scan, targets, lowest=lowest)
    # Brackets in blocked intervals come last, so both groups are views.
    split = interval.size - np.count_nonzero(scan.blocked[interval])
    target = targets[owner]
    bisected = _bisected(scan)

    def bisect(func, group, rtol, residual_tol=None):
        iv, f = interval[group], f_lo[group]
        # f(hi) only steers the speculative levels: sign-scaled values do for g_t.
        f_hi = np.copysign(scan.values[iv + 1] - target[group], -f)
        return _bisect(func, nodes[iv], nodes[iv + 1], f, f_hi, rtol=rtol, residual_tol=residual_tol)

    free = slice(None, split)
    h_minus_t = lambda x, live: half_trace_values(cell, x) - target[live]
    if bisected or not split:
        refined = bisect(h_minus_t, free, ROOT_RTOL, RESIDUAL_TOL)
    else:
        iv, positive = interval[free], f_lo[free] > 0.0
        x, slope = _proxy_roots(scan, iv, target[free], positive)
        refined, found = _checked_roots(cell, x, slope, target[free], nodes[iv], nodes[iv + 1], positive)
        if (rest := np.flatnonzero(~found)).size:
            # To ROOT_RTOL/4, so that these roots too lie within ROOT_RTOL/2.
            refined[rest] = bisect(lambda x, live: h_minus_t(x, rest[live]), rest, ROOT_RTOL / 4, RESIDUAL_TOL)
    if split < interval.size:
        pole_target = target[split:]

        def numerator(x, live):
            h0, r, M3 = _cell_parts(cell, x)
            return (1.0 / cell.c_over_s - M3) * (h0 - pole_target[live]) + r

        # Off the default window to ROOT_RTOL/4, as the fallback above.
        rtol = ROOT_RTOL if bisected else ROOT_RTOL / 4
        refined = np.concatenate([refined, bisect(numerator, slice(split, None), rtol)])
    roots = np.concatenate([nodes[node], refined])
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

    For each K in [0, pi/T] the roots of the half-trace h(omega) = cos(K*T) are
    bracketed on the shared scan and refined, by bisection on a scan of
    exactly the default window and from kernel-verified Chebyshev-proxy
    roots on any other; the n-th lowest root at each K forms branch n. The trivial
    solution (K, omega) = (0, 0) belongs to the first branch exactly when
    the quasistatic stiffness c_eff is positive or infinite (at C/S =
    Cinf/S the branch leaves the origin with infinite slope); in the
    negative-stiffness regime the first branch detaches from the origin.

    Args:
        cell: Unit cell.
        k_points: Number of K samples (>= 2).
        omega_max: Scan ceiling (rad/s); defaults to ``default_omega_max``.
        scan: Optional pre-built scan of ``cell`` to reuse; its window then
            wins over omega_max.

    Returns:
        Branches ordered by index; empty list if no roots exist below
        omega_max.

    Raises:
        ValueError: If k_points < 2 or ``scan`` is not a scan of ``cell``.
    """
    return _trace(cell, k_points, omega_max, scan)


def _trace(cell, k_points, omega_max, scan, *, lowest=False) -> list[Branch]:
    """``trace_branches``; with ``lowest``, branch 1 alone, from each K's lowest root."""
    if k_points < 2:
        raise ValueError("k_points must be at least 2")
    scan = _scan_of(cell, omega_max, scan)
    period = cell.period
    k_grid = np.linspace(0.0, math.pi / period, k_points)
    include_origin = effective_model(cell).regime in (Regime.POSITIVE, Regime.POLE)

    roots, counts = _scan_roots_batch(scan, targets := np.cos(k_grid * period), lowest=lowest)
    if not lowest and targets[0] == 1.0 and targets[-1] == -1.0:  # kept for stopbands
        edges = np.concatenate([roots[: counts[0]], roots[roots.size - counts[-1] :]])
        object.__setattr__(scan, "_edges", (edges, counts[[0, -1]]))
    # At K = 0 the node omega = 0 is an exact root; it is kept, as the
    # trivial solution, only where c_eff is positive or infinite.
    trivial = int(np.searchsorted(roots[: counts[0]], 0.0, side="right"))
    roots = roots[trivial:]
    counts[0] -= trivial
    if include_origin:
        roots = np.concatenate([[0.0], roots])
        counts[0] += 1

    # Padded (branch, K) table, filled through its transpose: branch n holds
    # each K's n-th root, and each branch reads one contiguous row.
    n_branches = int(counts.max(initial=0))
    present = np.arange(n_branches)[:, None] < counts
    table = np.zeros((n_branches, k_points))
    table.T[present.T] = roots
    branches = [Branch(index=j + 1, k=k_grid[present[j]], omega=table[j, present[j]]) for j in range(n_branches)]
    # With the origin kept, K = 0 holds 0.0 and its lowest positive root.
    return branches[:1] if lowest else branches


def stopbands(
    cell: ShuntedCell,
    omega_max: float | None = None,
    *,
    scan: FrequencyScan | None = None,
) -> list[StopbandInterval]:
    """Maximal stop/pole intervals in [0, omega_max].

    Each edge is a root of h(omega) = +-1 from the branches' own root
    search, so it is the K = 0 or K = pi/T sample of ``trace_branches`` on
    the same scan, and taken from the scan once a trace has run. An interval
    whose closure reaches omega = 0 carries the quasistatic flag. An edge
    that is a root of both h = 1 and h = -1 is a flat band of zero width, so
    the two stop intervals it separates stay apart. A given ``scan`` of
    ``cell`` is used as it is: its window wins over omega_max, as in
    ``trace_branches``.

    Raises:
        ValueError: If ``scan`` is not a scan of ``cell``.
    """
    scan = _scan_of(cell, omega_max, scan)
    roots, counts = scan._edges or _scan_roots_batch(scan, np.array([1.0, -1.0]))
    edges = np.unique(roots[(roots > 0.0) & (roots < scan.omega_max)])
    flat = set(np.intersect1d(roots[: counts[0]], roots[counts[0] :]).tolist())

    boundaries = np.concatenate([[0.0], edges, [scan.omega_max]])
    lo, hi = boundaries[:-1], boundaries[1:]
    is_stop = _intervals_are_stop(scan, lo, hi)
    raw = list(zip(lo[is_stop].tolist(), hi[is_stop].tolist()))

    # Roundoff near |half-trace| = 1 (e.g. impedance-matched cells) can
    # produce sliver intervals at the noise floor; merge across sliver
    # gaps and drop sliver stopbands.
    sliver = 1e-12 * scan.omega_max
    merged: list[list[float]] = []
    for lo, hi in raw:
        if merged and lo - merged[-1][1] < sliver and lo not in flat:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [
        StopbandInterval(omega_lo=lo, omega_hi=hi, quasistatic=(lo == 0.0))
        for lo, hi in merged
        if hi - lo >= sliver
    ]


def _intervals_are_stop(scan: FrequencyScan, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Classify the open intervals (lo[i], hi[i]) by their sampled interior.

    An interval is a stop interval when the largest |half-trace| over the
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


def group_velocity(cell: ShuntedCell, k, omega) -> np.ndarray:
    """d omega / d K at dispersion samples (K, omega) of the cell, elementwise (m/s).

    The branches are the zeros of the pole-free G = (1 - gamma*M3)*(h0 - cos KT)
    + gamma*r, gamma = C/S (see ``_cell_parts``), so v_g = -T*sin(KT)*(1 -
    gamma*M3)/(dG/domega), and a flat-band sample gets 0. dG/domega comes from
    one complex step of the parts, at omega + i*1e-20*max(omega, 1), free of
    cancellation (Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003). Samples at
    omega == 0 take the quasistatic v_eff: inf at C/S = Cinf/S, nan where no
    branch leaves the origin.
    """
    k, omega = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(omega, dtype=float))
    gamma, period = cell.c_over_s, cell.period
    step = 1e-20 * np.maximum(omega, 1.0)
    h0, r, M3 = _cell_parts(cell, omega + 1j * step)
    shunt = 1.0 - gamma * M3
    dG = (shunt * (h0 - np.cos(k * period)) + gamma * r).imag / step
    with np.errstate(divide="ignore", invalid="ignore"):
        # + 0.0 turns the -0.0 of K = 0 samples into 0.0.
        v = -period * np.sin(k * period) * shunt.real / dG + 0.0
    if np.any(origin := omega == 0.0):
        em = effective_model(cell)
        v = np.where(origin, math.inf if em.regime is Regime.POLE else em.v_eff or math.nan, v)
    return v


def origin_slope(branch: Branch) -> float:
    """Branch slope at K -> 0 from the three smallest positive-K samples.

    The squared slowness (K/omega)^2 is an analytic, even function of
    omega along an origin-passing branch and stays well conditioned even
    where the slope diverges, so it is what gets extrapolated (through a
    quadratic in omega^2, in closed form) rather than omega/K itself.
    ``NumericalError`` if a sample frequency is not positive, two samples
    share omega^2, or the extrapolated squared slowness is not positive.
    """
    mask = branch.k > 0.0
    if mask.sum() < 3:
        raise InsufficientSamplesError("need three positive-K samples for the origin slope")
    ks, ws = branch.k[mask][:3].tolist(), branch.omega[mask][:3].tolist()
    if min(ws) <= 0.0:
        raise NumericalError("origin slope needs positive-frequency samples")
    x, y = [w * w for w in ws], [(k / w) ** 2 for k, w in zip(ks, ws)]
    if len(set(x)) < 3:
        raise NumericalError("origin slope needs three distinct sample frequencies")
    # The quadratic through the (x, y) at x = 0, by Lagrange's formula.
    c0 = sum(y[i] * (x[i - 1] * x[i - 2]) / ((x[i] - x[i - 1]) * (x[i] - x[i - 2])) for i in range(3))
    if c0 <= 0.0:
        raise NumericalError("squared-slowness extrapolation left the physical region")
    return 1.0 / math.sqrt(c0)


def branch_flatness(branch: Branch) -> float:
    """Relative spread (max - min)/mean of the branch frequencies."""
    mean = float(np.mean(branch.omega))
    if mean == 0.0:
        return math.inf
    return float((np.max(branch.omega) - np.min(branch.omega)) / mean)


def detect_flat_bands(
    branches: list[Branch], flatness_tol: float = DEFAULT_FLATNESS_TOL
) -> list[Branch]:
    """The traced branches whose relative frequency spread is below flatness_tol.

    Only a branch with a sample at every K of the trace, as many samples
    as the longest branch, is judged: one that misses K samples, such as a
    top branch cut by omega_max, can have a small spread without being flat.

    Raises:
        ValueError: If flatness_tol is not positive and finite.
    """
    _check_flatness_tol(flatness_tol)
    full = max(map(len, branches), default=0)
    return [b for b in branches if len(b) == full and branch_flatness(b) < flatness_tol]


def _check_flatness_tol(flatness_tol: float) -> None:
    """Raise ValueError unless flatness_tol is positive and finite."""
    if not (math.isfinite(flatness_tol) and flatness_tol > 0.0):
        raise ValueError(f"flatness_tol must be positive and finite, got {flatness_tol!r}")


def _flat_band_candidates(cell: ShuntedCell, omega_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(omega*, C*/S) of the flat bands of the cell's shunt family, ascending omega*.

    At fixed omega the half-trace h0 + gamma*r/(1 - gamma*M3) is a
    linear-fractional function of gamma = C/S. A branch can only hold one
    frequency over the whole zone where the +-1 capacitance curves meet,
    which forces r(omega*) = 0 and gamma* = 1/M3(omega*): there the pole at
    omega* cancels. Each such omega* is a candidate, to be confirmed by a
    trace.

    With travel times t1, t2 (T = t1 + t2), s, c = sin, cos(t2*omega/2) and
    zeta = Z2/Z1 (piezo impedance on cD over elastic), r = 2h^2*s^2*(c^2 +
    zeta^2*s^2)*sin(theta)/(zeta*omega*Z2) with the phase theta = T*omega -
    pi - 2*atan2((1 - zeta)*s*c, c^2 + zeta*s^2), whose slope t1 +
    t2*zeta/(c^2 + zeta^2*s^2) is positive. So r changes sign once per level
    k = 0, ..., floor(theta(omega_max)/pi), where theta = k*pi, inside
    (k*pi/T, (k + 2)*pi/T), as |atan2| < pi/2.
    """
    if cell.piezo.e == 0.0:
        return np.empty(0), np.empty(0)
    el, pz = cell.elastic, cell.piezo
    t1, t2, zeta = el.d * el.slowness, pz.d * pz.slowness, pz.impedance / el.impedance

    def theta(x, k=0.0):
        s, c = np.sin(0.5 * t2 * x), np.cos(0.5 * t2 * x)
        arc = np.arctan2((1.0 - zeta) * s * c, c * c + zeta * (s * s))
        slope = t1 + t2 * zeta / (c * c + zeta * zeta * (s * s))
        return (t1 + t2) * x - (k + 1.0) * math.pi - 2.0 * arc, slope

    k = np.arange(math.floor(theta(omega_max)[0] / math.pi) + 1.0)
    lo, hi = k * (math.pi / (t1 + t2)), (k + 2.0) * (math.pi / (t1 + t2))
    omega = 0.5 * (lo + hi)
    # 4/39/200 levels on the 1x/10x/50x windows, so arrays: a float Newton
    # took 0.18/0.48/1.88 ms, _newton 0.51/0.54/0.41.
    _newton(lambda x, run: theta(x, k[run]), omega, lo.copy(), hi.copy(), False, stop=_POLE_RTOL / 4 * omega, steps=60)
    omega = _locate(lambda x: _cell_parts(cell, x)[1], omega, lo, hi)
    omega = omega[(omega > 0.0) & (omega < omega_max)]
    return omega, 1.0 / _cell_parts(cell, omega)[2]


def _first_branch_is_flat(scan: FrequencyScan, k_points: int, flatness_tol: float) -> bool:
    """Whether branch 1's spread is below flatness_tol, where no branch holds the origin.

    Each K's lowest root lies between the nodes lo, hi of its lowest hit, so
    the spread lies in [(max lo - min hi)/mean hi, (max hi - min lo)/mean lo];
    the roots are refined (``_trace``) only where flatness_tol falls inside.
    """
    period = scan.cell.period
    targets = np.cos(np.linspace(0.0, math.pi / period, k_points) * period)
    (interval, _, _), (node, _) = _target_hits(scan, targets, lowest=True)
    lo = scan.nodes[np.concatenate([node, interval])]
    hi = scan.nodes[np.concatenate([node, interval + 1])]
    if lo.size and hi.max() - lo.min() < flatness_tol * lo.mean():
        return True
    if not lo.size or lo.max() - hi.min() >= flatness_tol * hi.mean():
        return False
    return branch_flatness(_trace(scan.cell, k_points, None, scan, lowest=True)[0]) < flatness_tol


def find_flat_capacitance(
    cell: ShuntedCell,
    bracket: tuple[float, float],
    *,
    k_points: int = DEFAULT_K_POINTS,
    omega_max: float | None = None,
    flatness_tol: float = DEFAULT_FLATNESS_TOL,
) -> float:
    """C/S in the bracket at which the first branch is flat, in closed form.

    The candidates C*/S = 1/M3(omega*) at the roots omega* of r (see
    ``_flat_band_candidates``) that lie in the bracket are tried in
    ascending omega*; the first whose first branch has a relative spread
    below flatness_tol is returned. At C* the pole at omega* cancels, so
    that branch holds omega* at every K. Each candidate takes one scan,
    and ``_first_branch_is_flat`` judges ``trace_branches(...)[0]`` on it.

    Args:
        cell: Template cell (its own c_over_s is ignored).
        bracket: (c_lo, c_hi) in F/m^2, both strictly inside the
            negative-stiffness interval and out of its ends' snap windows.

    Returns:
        The flat-band capacitance per area C*/S.

    Raises:
        BracketError: If the bracket is not inside the interval above or
            holds no candidate C*/S = 1/M3(omega*) with r(omega*) = 0.
        NumericalError: If no candidate in the bracket gives a first branch
            flat to flatness_tol.
        ValueError: If flatness_tol is not positive and finite or
            k_points < 2 (both checked before any scan), or if omega_max is
            not positive and finite or spans more bands than the base scan
            resolves.
    """
    _check_flatness_tol(flatness_tol)
    if k_points < 2:
        raise ValueError("k_points must be at least 2")
    c_lo, c_hi = sorted(bracket)
    c_inf, c_zero = special_capacitances(cell)
    inside = lambda c: c_zero < c < c_inf and not (_matches(c, c_inf) or _matches(c, c_zero))
    if not (inside(c_lo) and inside(c_hi)):
        raise BracketError(
            "bracket must lie strictly inside the negative-stiffness interval "
            f"({c_zero:.6e}, {c_inf:.6e}) F/m^2"
        )
    omega_max = _window(cell, omega_max, DEFAULT_BASE_POINTS)
    _, c_star = _flat_band_candidates(cell, omega_max)
    c_star = c_star[(c_star >= c_lo) & (c_star <= c_hi)]
    if not c_star.size:
        raise BracketError(
            "no flat-band capacitance in the bracket: no C*/S = 1/M3(omega*) with "
            "r(omega*) = 0 lies in it"
        )
    for gamma in c_star.tolist():
        if _first_branch_is_flat(scan_frequencies(cell.with_c_over_s(gamma), omega_max), k_points, flatness_tol):
            return gamma
    raise NumericalError(
        f"none of the {c_star.size} flat-band candidate(s) in the bracket gives a first "
        f"branch flat to {flatness_tol!r}"
    )


def half_trace_curvature(cell: ShuntedCell) -> float:
    """Richardson-extrapolated d^2(half-trace)/d omega^2 at omega = 0.

    In the quasistatic limit this equals -T^2 * rho_eff / c_eff, which
    links the cell matrices to the closed-form effective model without
    external data. The probe step adapts to stay well below both the
    first shunt resonance and the curvature scale itself.
    """
    omega_ref = 0.25 * default_omega_max(cell)  # first-gap center scale
    step = omega_ref / 64.0
    poles = _find_poles(cell, omega_ref)
    if poles.size:
        step = min(step, poles[0] / 64.0)

    def second_difference(s: float) -> float:
        # The half-trace is even in omega with value exactly 1 at 0.
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
