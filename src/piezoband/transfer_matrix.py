"""Layer and unit-cell transfer matrices for the shunted bilayer.

The state vector is (displacement u, normal stress sigma). Each lossless
layer maps the state at its entry face to the state at its exit face
through a real unimodular 2x2 matrix. The electrical shunt adds a rank-1
correction to the bare piezo-layer matrix whose scalar denominator
S/C - M3(omega) can vanish for C < 0; those resonance poles are flagged,
never silently evaluated.

All functions are pure in (cell, omega) and accept scalar or ndarray
omega in the array helpers.

One set of private per-layer helpers serves every caller, scalar and
array alike: ``_phase_sinc`` forms the phase q = omega*d*sqrt(rho/c) and
sin(q)/q once, ``_layer`` adds the bare-layer entries, ``_coupling`` the
shunt coefficients M1, M2, M3 (sharing the piezo sinc), and ``_piezo``
the shunted piezo entries. ``monodromy_entries`` is the fused cell
kernel: it writes t11, t12, t21, t22 into one preallocated (4, n) array,
``_BLOCK`` frequencies at a time, with in-place ufuncs.

The per-element operation order is fixed: every entry is the same
sequence of correctly rounded float operations as the formulas in the
helpers' docstrings (for example a21 = (((-rho*d)*omega)*omega)*s and
b22 = cos q + (f*M2)*M1, kept apart from b11 = cos q + (f*M1)*M2). Only
commutations of a single product or sum are allowed, which are exact,
so every output bit is independent of the block size, of array shape and
of the scalar/array path; root positions and the CSV output depend on it.

Blocking keeps the working set of about twenty temporaries in cache: at
4096 points each is 32 KiB, so a block fits a core's 2 MiB L2, where a
whole 14k-48k point scan would spill to memory. Larger blocks spill and
smaller ones pay the per-call Python overhead more often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import ShuntedCell

__all__ = [
    "POLE_DENOM_RTOL",
    "ResonancePoleError",
    "TransferMatrix",
    "ShuntCoefficients",
    "m_elastic",
    "m_piezo_open",
    "m_piezo_shunted",
    "monodromy",
    "shunt_coefficients",
    "has_shunt_correction",
    "shunt_denominator",
    "m_elastic_entries",
    "m_piezo_shunted_entries",
    "monodromy_entries",
]

# |S/C - M3| below this fraction of d2/eps counts as a resonance pole.
POLE_DENOM_RTOL = 1e-9

# Frequencies per block of the cell kernel (see the module docstring).
_BLOCK = 4096


class ResonancePoleError(ArithmeticError):
    """The shunt denominator vanished; the layer matrix diverges here."""

    def __init__(self, omega: float, denom: float, threshold: float):
        self.omega = omega
        self.denom = denom
        self.threshold = threshold
        super().__init__(
            f"shunt resonance pole at omega={omega!r}: |S/C - M3|={abs(denom):.3e}"
            f" below threshold {threshold:.3e}"
        )


@dataclass(frozen=True)
class TransferMatrix:
    """Real 2x2 matrix mapping (u, sigma) at a layer entry to its exit."""

    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def trace(self) -> float:
        return self.a11 + self.a22

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(
            a11=self.a11 * other.a11 + self.a12 * other.a21,
            a12=self.a11 * other.a12 + self.a12 * other.a22,
            a21=self.a21 * other.a11 + self.a22 * other.a21,
            a22=self.a21 * other.a12 + self.a22 * other.a22,
        )

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)


@dataclass(frozen=True)
class ShuntCoefficients:
    """Coupling coefficients of the shunt correction at one frequency.

    Attributes:
        M1: Displacement-channel coupling, h*sin(k2*d2)/(Z2*omega).
        M2: h*(cos(k2*d2) - 1).
        M3: h*M1 - d2/eps.
        denom: S/C - M3; +inf for open circuit (c_over_s == 0), where the
            correction vanishes and callers must skip it.
        open_circuit: True when c_over_s == 0.
    """

    M1: float
    M2: float
    M3: float
    denom: float
    open_circuit: bool


def _phase_sinc(rho: float, c: float, d: float, omega: np.ndarray):
    """Phase q = omega*d*sqrt(rho/c) and sin(q)/q (1 where q == 0), 1-D omega."""
    q = omega * d
    q *= math.sqrt(rho / c)
    s = np.sin(q)
    with np.errstate(invalid="ignore"):
        s /= q
    s[q == 0.0] = 1.0
    return q, s


def _layer(rho: float, c: float, d: float, omega: np.ndarray):
    """q, s = sin(q)/q and the bare-layer entries cos q, a12, a21 (a22 = a11).

    a12 = (d/c)*s and a21 = (((-rho*d)*omega)*omega)*s: written through
    sin(q)/q, so the omega -> 0 limits [[1, d/c], [0, 1]] come out exactly.
    """
    q, s = _phase_sinc(rho, c, d, omega)
    a21 = omega * (-rho * d)
    a21 *= omega
    a21 *= s
    return q, s, np.cos(q), (d / c) * s, a21


def _coupling(pz, q: np.ndarray, s: np.ndarray):
    """Shunt coefficients M1, M2, M3 from the piezo phase q and sinc s.

    M1 = (h*(d/cD))*s and M3 = h*M1 - d/eps. M2 = h*(cos q - 1) is written
    cancellation-free as ((-2h)*sin(q/2))*sin(q/2).
    """
    h = pz.h
    M1 = (h * (pz.d / pz.cD)) * s
    half = np.sin(0.5 * q)
    M2 = (-2.0 * h) * half
    M2 *= half
    M3 = h * M1
    M3 -= pz.d / pz.eps
    return M1, M2, M3


def _piezo(cell: ShuntedCell, omega: np.ndarray):
    """Entries (b11, b12, b21, b22) of the shunted piezo layer, 1-D omega.

    With f = 1/(S/C - M3): b11 = cos q + (f*M1)*M2, b12 = a12 + (f*M1)*M1,
    b21 = a21 + (f*M2)*M2 and b22 = cos q + (f*M2)*M1. The diagonal
    entries round differently, so both are formed. Open circuit or e == 0
    gives the bare entries.
    """
    pz = cell.piezo
    q, s, cos_q, b12, b21 = _layer(pz.rho, pz.cD, pz.d, omega)
    if not has_shunt_correction(cell):
        return cos_q, b12, b21, cos_q
    M1, M2, f = _coupling(pz, q, s)
    # f = 1/(S/C - M3), overwriting M3.
    np.subtract(1.0 / cell.c_over_s, f, out=f)
    with np.errstate(divide="ignore"):
        np.divide(1.0, f, out=f)
    fM1 = f * M1
    fM2 = np.multiply(f, M2, out=f)
    b11 = fM1 * M2
    b11 += cos_q
    b22 = fM2 * M1
    b22 += cos_q
    fM1 *= M1
    b12 += fM1
    fM2 *= M2
    b21 += fM2
    return b11, b12, b21, b22


def _entries(fn, omega):
    """Apply a 1-D entries helper to omega of any shape; results shaped like omega."""
    omega = np.asarray(omega, dtype=float)
    return tuple(x.reshape(omega.shape) for x in fn(omega.reshape(-1)))


def has_shunt_correction(cell: ShuntedCell) -> bool:
    """Whether the rank-1 shunt correction is active (e != 0 and C/S != 0)."""
    return cell.piezo.e != 0.0 and cell.c_over_s != 0.0


def pole_threshold(cell: ShuntedCell) -> float:
    """Absolute denominator magnitude below which a pole is flagged."""
    return POLE_DENOM_RTOL * cell.piezo.d / cell.piezo.eps


def shunt_denominator(cell: ShuntedCell, omega):
    """S/C - M3(omega), elementwise; requires an active shunt correction."""
    if not has_shunt_correction(cell):
        raise ValueError("shunt correction inactive (e == 0 or open circuit)")
    pz = cell.piezo
    omega = np.asarray(omega, dtype=float)
    # S/C - (h*M1 - d/eps) with M1 = (h*(d/cD))*s, built in place on s.
    _, s = _phase_sinc(pz.rho, pz.cD, pz.d, omega.reshape(-1))
    s *= pz.h * (pz.d / pz.cD)
    s *= pz.h
    s -= pz.d / pz.eps
    np.subtract(1.0 / cell.c_over_s, s, out=s)
    return s.reshape(omega.shape)


def _matrix(entries) -> TransferMatrix:
    return TransferMatrix(*(x.item() for x in entries))


def m_elastic(cell: ShuntedCell, omega: float) -> TransferMatrix:
    """Transfer matrix of the elastic layer at angular frequency omega >= 0."""
    return _matrix(m_elastic_entries(cell, omega))


def m_piezo_open(cell: ShuntedCell, omega: float) -> TransferMatrix:
    """Bare (open-circuit) piezo-layer matrix, built on the stiffened modulus."""
    pz = cell.piezo
    _, _, cos_q, a12, a21 = _layer(pz.rho, pz.cD, pz.d, np.array([float(omega)]))
    return _matrix((cos_q, a12, a21, cos_q))


def shunt_coefficients(cell: ShuntedCell, omega: float) -> ShuntCoefficients:
    """Correction coefficients M1, M2, M3 and the denominator S/C - M3."""
    pz = cell.piezo
    q, s = _phase_sinc(pz.rho, pz.cD, pz.d, np.array([float(omega)]))
    M1, M2, M3 = (x.item() for x in _coupling(pz, q, s))
    if cell.c_over_s == 0.0:
        return ShuntCoefficients(M1, M2, M3, math.inf, True)
    return ShuntCoefficients(M1, M2, M3, 1.0 / cell.c_over_s - M3, False)


def m_piezo_shunted(cell: ShuntedCell, omega: float) -> TransferMatrix:
    """Piezo-layer matrix including the shunt correction.

    Returns the bare matrix exactly for open circuit or e == 0.

    Raises:
        ResonancePoleError: When the correction is active and the
            denominator magnitude falls below ``pole_threshold(cell)``.
    """
    if has_shunt_correction(cell):
        denom = float(shunt_denominator(cell, omega))
        threshold = pole_threshold(cell)
        if abs(denom) < threshold:
            raise ResonancePoleError(float(omega), denom, threshold)
    return _matrix(m_piezo_shunted_entries(cell, omega))


def monodromy(cell: ShuntedCell, omega: float) -> TransferMatrix:
    """Unit-cell matrix m2 @ m1 (piezo after elastic, in propagation order).

    Raises:
        ResonancePoleError: Propagated from the shunted piezo matrix.
    """
    return m_piezo_shunted(cell, omega) @ m_elastic(cell, omega)


def m_elastic_entries(cell: ShuntedCell, omega):
    """Entries (a11, a12, a21, a22) of the elastic layer, elementwise."""
    el = cell.elastic

    def elastic(w):
        _, _, cos_q, a12, a21 = _layer(el.rho, el.c, el.d, w)
        return cos_q, a12, a21, cos_q

    return _entries(elastic, omega)


def m_piezo_shunted_entries(cell: ShuntedCell, omega):
    """Entries of the shunted piezo layer, elementwise over omega.

    Unchecked array path: no pole flagging, entries blow up smoothly near
    shunt resonances. Callers working near poles must consult
    ``shunt_denominator`` themselves (the frequency scanner does).
    """
    return _entries(lambda w: _piezo(cell, w), omega)


def _cell_block(cell: ShuntedCell, omega: np.ndarray, out: np.ndarray) -> None:
    """Write t = b @ a for one block of 1-D omega into the rows of out.

    t11 = b11*a11 + b12*a21, t12 = b11*a12 + b12*a22, t21 = b21*a11 + b22*a21
    and t22 = b21*a12 + b22*a22.
    """
    el = cell.elastic
    _, _, a11, a12, a21 = _layer(el.rho, el.c, el.d, omega)
    b11, b12, b21, b22 = _piezo(cell, omega)
    t11, t12, t21, t22 = out
    # t = b @ a, where a22 is a11.
    np.multiply(b11, a11, out=t11)
    np.multiply(b11, a12, out=t12)
    np.multiply(b21, a11, out=t21)
    np.multiply(b21, a12, out=t22)
    tmp = b12 * a21
    t11 += tmp
    np.multiply(b12, a11, out=tmp)
    t12 += tmp
    np.multiply(b22, a21, out=tmp)
    t21 += tmp
    np.multiply(b22, a11, out=tmp)
    t22 += tmp


def monodromy_entries(cell: ShuntedCell, omega):
    """Entries (t11, t12, t21, t22) of m2 @ m1, elementwise over omega.

    Evaluated in blocks of ``_BLOCK`` frequencies into one (4, n) array.
    Same unchecked-near-poles contract as ``m_piezo_shunted_entries``.
    """
    omega = np.asarray(omega, dtype=float)
    flat = omega.reshape(-1)
    out = np.empty((4, flat.size))
    for start in range(0, flat.size, _BLOCK):
        stop = start + _BLOCK
        _cell_block(cell, flat[start:stop], out[:, start:stop])
    return tuple(out.reshape((4,) + omega.shape))
