"""Output checks for the benchmark workloads.

Every check returns a list of human-readable problems; an empty list means
the op's output is correct. The half-trace used here is written out from
the layer constants in this file, so a residual check does not reuse the
solver's kernel.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Equal to the solver's root residual tolerance at the commit that defined
# this benchmark; fixed here so that loosening the solver cannot loosen it.
RESIDUAL_TOL = 1e-9
# Allowance for rounding differences between this half-trace and the
# solver's: up to 1.4e-13 on the 50x window, where phases reach hundreds of
# radians.
H_EVAL_TOL = 1e-12
# A stopband edge is accepted when ||h| - 1| is below this, or when |h| - 1
# changes sign within EDGE_RTOL of the edge (bisection on a steep h stops
# at a relative width of 1e-10, where the residual can be larger).
EDGE_TOL = 1e-9
EDGE_RTOL = 4e-10
# Interior probes per stopband for the stop-region check.
INTERIOR_PROBES = 16
# CSV group velocity against the half-trace estimate, as a share of the
# panel's largest |v_g|.
GV_TOL = 1e-3
# Acceptance c07 and c08.
FLATNESS_TOL = 1e-3
POWER_LAW = -0.5
POWER_LAW_TOL = 0.05


def half_trace(cell, omega) -> np.ndarray:
    """Half-trace of the unit-cell matrix from the layer constants.

    Elastic layer A and shunted piezo layer B are written with sin/cos and
    the layer wavenumbers; the shunt adds f * [[M1 M2, M1^2], [M2^2, M2 M1]]
    to B with f = 1 / (S/C - M3). Values at shunt poles come out non-finite.
    """
    el, pz = cell.elastic, cell.piezo
    w = np.asarray(omega, dtype=float)
    cD = pz.cE + pz.e * pz.e / pz.eps
    k1 = w * math.sqrt(el.rho / el.c)
    k2 = w * math.sqrt(pz.rho / cD)
    q1, q2 = k1 * el.d, k2 * pz.d
    c1, s1, c2, s2 = np.cos(q1), np.sin(q1), np.cos(q2), np.sin(q2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # sin(k d) / (k c) tends to d / c as omega -> 0.
        a12 = np.where(k1 == 0.0, el.d / el.c, s1 / np.where(k1 == 0.0, 1.0, k1 * el.c))
        b12 = np.where(k2 == 0.0, pz.d / cD, s2 / np.where(k2 == 0.0, 1.0, k2 * cD))
        a21 = -k1 * el.c * s1
        b21 = -k2 * cD * s2
        b11, b22 = c2, c2
        if pz.e != 0.0 and cell.c_over_s != 0.0:
            hp = pz.e / pz.eps
            m1 = hp * b12
            m2 = hp * (c2 - 1.0)
            m3 = hp * m1 - pz.d / pz.eps
            f = 1.0 / (1.0 / cell.c_over_s - m3)
            b11 = b11 + f * m1 * m2
            b12 = b12 + f * m1 * m1
            b21 = b21 + f * m2 * m2
            b22 = b22 + f * m2 * m1
        return 0.5 * (b11 * c1 + b12 * a21 + b21 * a12 + b22 * c1)


# --- wide_window -----------------------------------------------------------


def check_branches(cell, branches) -> tuple[list[str], float]:
    """Root residuals and K ordering; returns (problems, max residual)."""
    problems = []
    worst = 0.0
    period = cell.period
    for b in branches:
        k = np.asarray(b.k, dtype=float)
        w = np.asarray(b.omega, dtype=float)
        if k.size > 1 and not np.all(np.diff(k) > 0.0):
            problems.append(f"branch {b.index}: K not strictly increasing")
        if k.size == 0:
            continue
        residual = np.abs(half_trace(cell, w) - np.cos(k * period))
        # A non-finite residual is a root on a pole: always a failure.
        residual = np.where(np.isfinite(residual), residual, np.inf)
        worst = max(worst, float(residual.max()))
        bad = int(np.count_nonzero(residual > RESIDUAL_TOL + H_EVAL_TOL))
        if bad:
            problems.append(
                f"branch {b.index}: {bad} roots with |h - cos KT| > {RESIDUAL_TOL:g} "
                f"(max {float(residual.max()):.3e})"
            )
    return problems, worst


def _edge_ok(cell, edge: float) -> bool:
    g = abs(float(half_trace(cell, edge))) - 1.0
    if abs(g) <= EDGE_TOL:
        return True
    lo, hi = np.abs(half_trace(cell, [edge * (1 - EDGE_RTOL), edge * (1 + EDGE_RTOL)])) - 1.0
    return bool(lo * hi <= 0.0)


def check_stopbands(cell, intervals, omega_max: float) -> list[str]:
    """Edges sit on |h| = 1 and each interior is a stop region.

    An upper edge equal to the scan ceiling is the window end, not an edge.
    """
    problems = []
    for s in intervals:
        if not s.omega_lo < s.omega_hi:
            problems.append(f"stopband ({s.omega_lo!r}, {s.omega_hi!r}) is empty")
            continue
        for edge in (s.omega_lo, s.omega_hi):
            if edge in (0.0, omega_max):
                continue
            if not _edge_ok(cell, edge):
                problems.append(f"stopband edge {edge!r}: |h| - 1 is not zero there")
        frac = (np.arange(INTERIOR_PROBES) + 0.5) / INTERIOR_PROBES
        probes = s.omega_lo + (s.omega_hi - s.omega_lo) * frac
        h = half_trace(cell, probes)
        # A shunt pole inside a stopband evaluates to +-inf or nan.
        passing = np.isfinite(h) & (np.abs(h) <= 1.0)
        if passing.any():
            problems.append(
                f"stopband ({s.omega_lo!r}, {s.omega_hi!r}): "
                f"{int(passing.sum())} interior probes pass"
            )
    return problems


# --- sweep_csv ---------------------------------------------------------------


def solver_columns_digest(text: str) -> str:
    """sha256 of the CSV with the group_velocity column removed."""
    lines = text.split("\n")
    kept = "\n".join(line.rsplit(",", 1)[0] if line else line for line in lines)
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


def reference_group_velocity(cell, rows: np.ndarray, half_trace_values) -> np.ndarray:
    """v_g = -T sin(KT) / h'(omega) with h' from central differences.

    ``rows`` holds the CSV's (K*T/pi, omega) columns. At the origin sample
    the formula is 0/0; there the slope omega/K is taken from
    cos(K T) = h(omega) at a frequency far below the first sample.
    """
    period = cell.period
    kt, w = rows[:, 0] * math.pi, rows[:, 1]
    step = 1e-6 * np.maximum(w, 1.0)
    dh = (half_trace_values(cell, w + step) - half_trace_values(cell, w - step)) / (2 * step)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -period * np.sin(kt) / dh
    origin = w == 0.0
    if origin.any():
        positive = w[w > 0.0]
        probe = 1e-4 * (positive.min() if positive.size else 1.0)
        v[origin] = period * probe / math.acos(float(half_trace_values(cell, probe)))
    return v


def check_bands_csv(text: str, expected_digest: str, cell, half_trace_values) -> list[str]:
    """Solver columns byte-exact; group_velocity within GV_TOL of the estimate."""
    problems = []
    digest = solver_columns_digest(text)
    if digest != expected_digest:
        problems.append(f"solver columns digest {digest[:12]} != recorded {expected_digest[:12]}")
    body = [line.split(",") for line in text.rstrip("\n").split("\n")[1:]]
    if not body or any(len(f) != 5 for f in body):
        return problems + ["malformed CSV body"]
    index = np.array([int(f[0]) for f in body])
    rows = np.array([[float(f[1]), float(f[2])] for f in body])
    gv = np.array([float(f[4]) for f in body])
    ref = reference_group_velocity(cell, rows, half_trace_values)
    tol = GV_TOL * float(np.max(np.abs(ref[np.isfinite(ref)]), initial=0.0))
    counts = dict(zip(*np.unique(index, return_counts=True)))
    short = np.array([counts[i] < 5 for i in index])
    bad_nan = np.isnan(gv) & ~short
    off = ~np.isnan(gv) & ~(np.abs(gv - ref) <= tol)
    if bad_nan.any():
        problems.append(f"{int(bad_nan.sum())} group velocities are nan on branches with >= 5 samples")
    if off.any():
        problems.append(
            f"{int(off.sum())} group velocities differ from the half-trace estimate by more than "
            f"{tol:.3g} m/s (max {float(np.nanmax(np.abs(gv - ref)[off])):.3g})"
        )
    return problems


# --- capacitance_study ---------------------------------------------------------


def check_flat_branch(omega: np.ndarray) -> list[str]:
    """Acceptance c07: relative spread of the first branch at C* below tolerance."""
    omega = np.asarray(omega, dtype=float)
    spread = (omega.max() - omega.min()) / omega.mean()
    if not spread < FLATNESS_TOL:
        return [f"first-branch spread {spread:.3e} at C* is not below {FLATNESS_TOL:g}"]
    return []


def power_law_fit(deltas, slopes) -> float:
    """Slope of log(origin slope) against log(C/S - Cinf/S)."""
    return float(np.polyfit(np.log(deltas), np.log(slopes), 1)[0])


def check_power_law(deltas, slopes) -> list[str]:
    """Acceptance c08: the origin slope diverges as (C/S - Cinf/S)^(-1/2)."""
    fit = power_law_fit(deltas, slopes)
    if not abs(fit - POWER_LAW) <= POWER_LAW_TOL:
        return [f"log-log slope {fit:+.4f} outside {POWER_LAW} +- {POWER_LAW_TOL}"]
    return []
