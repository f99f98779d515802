"""Layer and unit-cell transfer matrices for the shunted bilayer.

The state vector is (displacement u, normal stress sigma). Each lossless
layer maps the state at its entry face to the state at its exit face
through a real unimodular 2x2 matrix. The electrical shunt adds a rank-1
correction to the bare piezo-layer matrix whose scalar denominator
S/C - M3(omega) can vanish for C < 0; those resonance poles are flagged,
never silently evaluated.

All functions are pure in (cell, omega). The array functions take omega
of any shape, evaluate it unchecked and leave poles to their callers;
``monodromy`` is the one checked scalar entry point: it raises
``ResonancePoleError`` at a pole and otherwise returns the kernel's
entries as a 2x2 array.

One set of private per-layer helpers serves every array function:
``_phase_sinc`` forms the phase q = omega*d*sqrt(rho/c) and sin(q)/q
once, ``_layer`` adds the bare-layer entries, ``_coupling`` the shunt
coefficients M1, M2 and h*M1 (sharing the piezo sinc), and ``_piezo`` the
shunted piezo entries. ``_piezo`` and ``shunt_denominator`` form the
denominator as D = (S/C + d/eps) - h*M1, the order of
``band_structure._find_poles``' closed form: in the negative-stiffness
interval S/C is close to -d/eps, and S/C - M3 with M3 = h*M1 - d/eps
rounded first would cancel the two after rounding. ``monodromy_entries``
is the cell kernel. With ``half_trace`` it forms only 0.5*(t11 + t22),
the one value the spectrum reads, into one n-array (no t12 or t21
formed), ``_BLOCK`` frequencies at a time, with in-place ufuncs
(``_cell_block``). Without it, ``_cell`` forms t11, t12, t21, t22 in one
pass over omega; in the package only the scalar ``monodromy`` (through
``bloch_wavenumber``) reads them, never a spectral query.
``_cell_parts`` splits the half-trace into the parts h0, r, M3 that do
not depend on C/S; it serves flat bands, the pole-free root search next
to poles and, at complex omega, the group velocity, and defines no root
bit.

The per-element operation order is fixed: every entry is the same
sequence of correctly rounded float operations as the formulas in the
helpers' docstrings (for example a21 = (((-rho*d)*omega)*omega)*s and
b22 = cos q + (f*M2)*M1, kept apart from b11 = cos q + (f*M1)*M2). Only
commutations of a single product or sum are allowed, which are exact,
so every output bit is independent of the block size and of array
shape; root positions and the CSV output depend on it.

Blocking keeps about twenty 64 KiB temporaries (8192 points) in a core's
2 MiB L2. A 40 000-point half-trace call on the 50x window takes 3.13,
2.95, 2.96 and 3.19 ms in blocks of 2048, 4096, 8192 and 16384 (medians
of 60, shared 2-core AMD EPYC).
"""

from __future__ import annotations

import math

import numpy as np

from .materials import ShuntedCell

__all__ = [
    "POLE_DENOM_RTOL",
    "ResonancePoleError",
    "monodromy",
    "has_shunt_correction",
    "shunt_denominator",
    "m_elastic_entries",
    "m_piezo_shunted_entries",
    "monodromy_entries",
]

# |S/C - M3| below this fraction of d2/eps counts as a resonance pole.
POLE_DENOM_RTOL = 1e-9

# Frequencies per block of the cell kernel (see the module docstring).
_BLOCK = 8192


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
    """Shunt coefficients M1, M2 and h*M1 from the piezo phase q and sinc s.

    M1 = (h*(d/cD))*s, and M3 = h*M1 - d/eps. M2 = h*(cos q - 1) is written
    cancellation-free as ((-2h)*sin(q/2))*sin(q/2).
    """
    h = pz.h
    M1 = (h * (pz.d / pz.cD)) * s
    half = np.sin(0.5 * q)
    M2 = (-2.0 * h) * half
    M2 *= half
    return M1, M2, h * M1


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
    # f = 1/((S/C + d/eps) - h*M1), overwriting h*M1 (see the module docstring).
    np.subtract(1.0 / cell.c_over_s + pz.d / pz.eps, f, out=f)
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
    """Apply a 1-D entries helper to omega of any shape (complex stays complex)."""
    omega = np.asarray(omega)
    omega = omega.astype(np.result_type(omega, float), copy=False)
    return tuple(x.reshape(omega.shape) for x in fn(omega.reshape(-1)))


def has_shunt_correction(cell: ShuntedCell) -> bool:
    """Whether the rank-1 shunt correction is active (e != 0 and C/S != 0)."""
    return cell.piezo.e != 0.0 and cell.c_over_s != 0.0


def pole_threshold(cell: ShuntedCell) -> float:
    """Absolute denominator magnitude below which a pole is flagged."""
    return POLE_DENOM_RTOL * cell.piezo.d / cell.piezo.eps


def shunt_denominator(cell: ShuntedCell, omega):
    """S/C - M3 = (S/C + d/eps) - h*M1, elementwise; requires an active shunt correction."""
    if not has_shunt_correction(cell):
        raise ValueError("shunt correction inactive (e == 0 or open circuit)")
    pz = cell.piezo

    def denominator(w):
        hM1 = _coupling(pz, *_phase_sinc(pz.rho, pz.cD, pz.d, w))[2]
        return (np.subtract(1.0 / cell.c_over_s + pz.d / pz.eps, hM1, out=hM1),)

    return _entries(denominator, omega)[0]


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


def _cell_parts(cell: ShuntedCell, omega):
    """(h0, r, M3) of a cell, elementwise over omega; none depends on C/S.

    With gamma = C/S the half-trace is h = h0 + gamma*r/(1 - gamma*M3):
    the shunt enters only through f = 1/(S/C - M3) times the rank-1 term,
    whose half-trace against the elastic layer is r. Here h0 = cos q2*a11 +
    (b12*a21 + b21*a12)/2 is the open-circuit half-trace and r = M1*M2*a11
    + (a12*M2^2 + a21*M1^2)/2, where a_ij are the elastic and b_ij the bare
    piezo entries.
    """
    el, pz = cell.elastic, cell.piezo

    def parts(w):
        _, _, a11, a12, a21 = _layer(el.rho, el.c, el.d, w)
        q, s, cos_q, b12, b21 = _layer(pz.rho, pz.cD, pz.d, w)
        M1, M2, hM1 = _coupling(pz, q, s)
        h0 = cos_q * a11 + 0.5 * (b12 * a21 + b21 * a12)
        return h0, M1 * M2 * a11 + 0.5 * a12 * M2 * M2 + 0.5 * a21 * M1 * M1, hM1 - pz.d / pz.eps

    return _entries(parts, omega)


def _cell(cell: ShuntedCell, omega: np.ndarray):
    """Entries (t11, t12, t21, t22) of t = b @ a, 1-D omega (a22 is a11)."""
    _, _, a11, a12, a21 = _layer(cell.elastic.rho, cell.elastic.c, cell.elastic.d, omega)
    b11, b12, b21, b22 = _piezo(cell, omega)
    return b11 * a11 + b12 * a21, b11 * a12 + b12 * a11, b21 * a11 + b22 * a21, b21 * a12 + b22 * a11


def _cell_block(cell: ShuntedCell, omega: np.ndarray, out: np.ndarray) -> None:
    """Write the half-trace 0.5*(t11 + t22) of t = b @ a for one block of 1-D omega into out.

    t11 = b11*a11 + b12*a21 and t22 = b21*a12 + b22*a22, as in ``_cell``;
    no t12 or t21 is formed.
    """
    el = cell.elastic
    _, _, a11, a12, a21 = _layer(el.rho, el.c, el.d, omega)
    b11, b12, b21, b22 = _piezo(cell, omega)
    # a22 is a11. b11 and b22 are one array on an open circuit or with
    # e == 0, so neither is written in place.
    np.multiply(b11, a11, out=out)
    b12 *= a21
    out += b12
    b21 *= a12
    a11 *= b22
    b21 += a11
    out += b21
    out *= 0.5


def monodromy_entries(cell: ShuntedCell, omega, *, half_trace: bool = False):
    """Entries (t11, t12, t21, t22) of m2 @ m1, elementwise over omega.

    With ``half_trace`` only 0.5*(t11 + t22) is formed, ``_BLOCK``
    frequencies at a time, into one array of omega's shape, bit for bit the
    sum of the two entries. Same unchecked-near-poles contract as
    ``m_piezo_shunted_entries``. Complex omega raises TypeError.
    """
    if np.iscomplexobj(omega):
        raise TypeError("monodromy_entries takes real omega; complex omega would drop its imaginary part")
    omega = np.asarray(omega, dtype=float)
    if not half_trace:
        return _entries(lambda w: _cell(cell, w), omega)
    flat = omega.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK):
        stop = start + _BLOCK
        _cell_block(cell, flat[start:stop], out[start:stop])
    return out.reshape(omega.shape)


def monodromy(cell: ShuntedCell, omega: float) -> np.ndarray:
    """Unit-cell matrix m2 @ m1 (piezo after elastic) at one frequency, 2x2.

    The checked scalar entry point: the same bits as ``monodromy_entries``.

    Raises:
        ValueError: If omega is not finite.
        ResonancePoleError: When the shunt correction is active and the
            magnitude of its denominator falls below ``pole_threshold(cell)``.
    """
    omega = float(omega)
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega!r}")
    if has_shunt_correction(cell):
        denom = float(shunt_denominator(cell, omega))
        threshold = pole_threshold(cell)
        if abs(denom) < threshold:
            raise ResonancePoleError(omega, denom, threshold)
    return np.array(monodromy_entries(cell, omega)).reshape(2, 2)
