"""Quasistatic (long-wavelength) effective model of the shunted bilayer.

In the low-frequency limit the periodic cell behaves as a homogeneous rod
with an arithmetically averaged density and a harmonically averaged
stiffness in which the piezo layer contributes the capacitance-dressed
modulus cE + e^2/(C*d2/S + eps). For e != 0 that stiffness has one pole
and one zero as a function of C/S, both negative; between them the
effective stiffness is negative and the crystal has no propagating
quasistatic branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .materials import ShuntedCell

__all__ = [
    "DegenerateShuntError",
    "Regime",
    "EffectiveModel",
    "special_capacitances",
    "effective_model",
]

# Relative window for snapping C/S onto the exact pole/zero capacitance.
_MATCH_RTOL = 1e-12


class DegenerateShuntError(ValueError):
    """The piezo constant is zero, so the shunt has no effect on stiffness."""


class Regime(Enum):
    """Sign regime of the quasistatic effective stiffness."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    POLE = "pole"
    ZERO = "zero"


@dataclass(frozen=True)
class EffectiveModel:
    """Quasistatic effective constants of one cell configuration.

    Attributes:
        c_eff: Effective stiffness (Pa); negative inside the anomalous
            capacitance interval, +inf at the pole capacitance.
        rho_eff: Effective density (kg/m^3), thickness-weighted average.
        v_eff: Quasistatic speed sqrt(c_eff/rho_eff) (m/s), or None when
            c_eff <= 0 or infinite.
        c_inf_over_s: Pole capacitance per area (F/m^2); None when e == 0.
        c0_over_s: Zero capacitance per area (F/m^2); None when e == 0.
        regime: Sign regime at the cell's C/S.
    """

    c_eff: float
    rho_eff: float
    v_eff: float | None
    c_inf_over_s: float | None
    c0_over_s: float | None
    regime: Regime


def special_capacitances(cell: ShuntedCell) -> tuple[float, float]:
    """Pole and zero of the effective stiffness as a function of C/S.

    Returns:
        ``(c_inf_over_s, c0_over_s)`` in F/m^2. Both are negative and
        satisfy c0_over_s < c_inf_over_s < -eps/d2 < 0.

    Raises:
        DegenerateShuntError: If e == 0 (both formulas collapse to -eps/d2
            and the stiffness has neither pole nor zero).
    """
    pz = cell.piezo
    el = cell.elastic
    if pz.e == 0.0:
        raise DegenerateShuntError("piezo.e is zero; effective stiffness does not depend on C/S")
    e2 = pz.e * pz.e
    c_inf = -e2 * el.d / ((el.c * pz.d + pz.cE * el.d) * pz.d) - pz.eps / pz.d
    c_zero = -e2 / (pz.d * pz.cE) - pz.eps / pz.d
    return c_inf, c_zero


def _matches(value: float, target: float) -> bool:
    return abs(value - target) <= _MATCH_RTOL * max(abs(value), abs(target))


def effective_model(cell: ShuntedCell) -> EffectiveModel:
    """Evaluate the closed-form quasistatic model at the cell's C/S."""
    el, pz = cell.elastic, cell.piezo
    period = cell.period
    rho_eff = (el.d * el.rho + pz.d * pz.rho) / period

    if pz.e == 0.0:
        c_eff = period / (el.d / el.c + pz.d / pz.cE)
        return EffectiveModel(
            c_eff=c_eff,
            rho_eff=rho_eff,
            v_eff=math.sqrt(c_eff / rho_eff),
            c_inf_over_s=None,
            c0_over_s=None,
            regime=Regime.POSITIVE,
        )

    c_inf, c_zero = special_capacitances(cell)
    gamma = cell.c_over_s

    if _matches(gamma, c_inf):
        return EffectiveModel(math.inf, rho_eff, None, c_inf, c_zero, Regime.POLE)
    if _matches(gamma, c_zero):
        return EffectiveModel(0.0, rho_eff, None, c_inf, c_zero, Regime.ZERO)

    # Dressed piezo compliance; C*d2/S + eps = 0 is a removable point where
    # the piezo layer is infinitely stiff and only the elastic layer flexes.
    dressed = gamma * pz.d + pz.eps
    inv_c_eff = el.d / el.c
    if dressed != 0.0:
        inv_c_eff += pz.d / (pz.cE + pz.e * pz.e / dressed)
    if inv_c_eff == 0.0:
        # Float coincidence just outside the matching window: still the pole.
        return EffectiveModel(math.inf, rho_eff, None, c_inf, c_zero, Regime.POLE)
    c_eff = period / inv_c_eff

    if c_zero < gamma < c_inf:
        return EffectiveModel(c_eff, rho_eff, None, c_inf, c_zero, Regime.NEGATIVE)
    return EffectiveModel(c_eff, rho_eff, math.sqrt(c_eff / rho_eff), c_inf, c_zero, Regime.POSITIVE)

