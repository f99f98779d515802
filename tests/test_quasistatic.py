import math

import numpy as np
import pytest
from scipy.optimize import brentq

from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell
from piezoband.quasistatic import (
    DegenerateShuntError,
    Regime,
    effective_model,
    special_capacitances,
)

from conftest import random_cell


def harmonic(cell, piezo_modulus):
    return cell.period / (cell.elastic.d / cell.elastic.c + cell.piezo.d / piezo_modulus)


class TestEffectiveModel:
    def test_zero_e_independent_of_capacitance(self):
        pz = PiezoLayer(rho=7500.0, cE=117e9, e=0.0, eps=1.302e-8, d=1e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        values = {effective_model(ShuntedCell(el, pz, g)).c_eff for g in (0.0, -11e-6, 40e-6)}
        assert len(values) == 1
        assert values.pop() == pytest.approx(harmonic(ShuntedCell(el, pz), pz.cE), rel=1e-15)

    def test_open_circuit_uses_stiffened_modulus(self, cell):
        em = effective_model(cell)
        assert em.c_eff == pytest.approx(harmonic(cell, cell.piezo.cD), rel=1e-15)
        # 40-digit evaluation of the same closed form.
        assert em.c_eff == pytest.approx(101860664600.53964696, rel=1e-15)
        assert em.rho_eff == 5000.0
        assert em.v_eff == pytest.approx(4513.5499244062792788, rel=1e-15)

    def test_short_circuit_limit_uses_ce(self, cell):
        for gamma in (1e9, -1e9):
            em = effective_model(cell.with_c_over_s(gamma))
            assert em.c_eff == pytest.approx(harmonic(cell, cell.piezo.cE), rel=1e-10)

    def test_negative_inside_the_interval(self, cell):
        c_inf, c_zero = special_capacitances(cell)
        em = effective_model(cell.with_c_over_s(0.5 * (c_inf + c_zero)))
        assert em.c_eff < 0.0
        assert em.v_eff is None
        assert em.regime is Regime.NEGATIVE

    def test_removable_point_value(self, cell):
        # At C*d2/S = -eps only the elastic layer flexes.
        gamma = -cell.piezo.eps / cell.piezo.d
        em = effective_model(cell.with_c_over_s(gamma))
        expected = cell.period * cell.elastic.c / cell.elastic.d
        assert em.c_eff == pytest.approx(expected, rel=1e-12)
        assert em.regime is Regime.POSITIVE

    def test_rho_eff_is_thickness_weighted_average(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = random_cell(rng)
            em = effective_model(c)
            expected = (c.elastic.d * c.elastic.rho + c.piezo.d * c.piezo.rho) / c.period
            assert em.rho_eff == pytest.approx(expected, rel=1e-14)


class TestSpecialCapacitances:
    def test_shipped_values_against_high_precision_evaluation(self, cell):
        c_inf, c_zero = special_capacitances(cell)
        assert c_inf == pytest.approx(-1.5847552083333333333e-05, rel=1e-14)
        assert c_zero == pytest.approx(-1.7660085470085470085e-05, rel=1e-14)

    def test_degenerate_at_zero_e(self):
        pz = PiezoLayer(rho=1.0, cE=1e9, e=0.0, eps=1e-8, d=1e-3)
        cell = ShuntedCell(ElasticLayer(rho=1.0, c=1e9, d=1e-3), pz, 0.0)
        with pytest.raises(DegenerateShuntError):
            special_capacitances(cell)

    def test_small_e_limit_collapses_to_eps_over_d(self, cell):
        limit = -cell.piezo.eps / cell.piezo.d
        previous_gap = math.inf
        for e in (1.0, 0.1, 0.01):
            pz = PiezoLayer(rho=cell.piezo.rho, cE=cell.piezo.cE, e=e,
                            eps=cell.piezo.eps, d=cell.piezo.d)
            c_inf, c_zero = special_capacitances(ShuntedCell(cell.elastic, pz, 0.0))
            gap = max(abs(c_inf - limit), abs(c_zero - limit))
            assert gap < previous_gap
            previous_gap = gap
        assert previous_gap < 1e-4 * abs(limit)

    def test_matches_numerically_located_pole_and_zero(self, cell):
        # Root-find on the evaluated model as the independent check.
        c_inf, c_zero = special_capacitances(cell)

        def inverse_c_eff(gamma):
            return cell.period / effective_model(cell.with_c_over_s(gamma)).c_eff

        def c_eff(gamma):
            return effective_model(cell.with_c_over_s(gamma)).c_eff

        located_pole = brentq(inverse_c_eff, c_inf - 1e-6, c_inf + 1e-6, xtol=1e-24, rtol=1e-15)
        located_zero = brentq(c_eff, c_zero - 1e-6, c_zero + 1e-6, xtol=1e-24, rtol=1e-15)
        assert located_pole == pytest.approx(c_inf, rel=1e-10)
        assert located_zero == pytest.approx(c_zero, rel=1e-10)

    def test_ordering_for_random_piezo_sets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            c = random_cell(rng, allow_zero_e=False)
            c_inf, c_zero = special_capacitances(c)
            assert c_zero < c_inf < -c.piezo.eps / c.piezo.d < 0.0

    def test_calibrated_cell_reproduces_reference_values(self, calibrated):
        c_inf, c_zero = special_capacitances(calibrated)
        assert c_inf == pytest.approx(-10.67e-6, rel=1e-3)
        assert c_zero == pytest.approx(-13.3e-6, rel=1e-3)


class TestRegimes:
    def test_open_circuit_positive(self, cell):
        assert effective_model(cell).regime is Regime.POSITIVE

    def test_midpoint_negative(self, cell):
        c_inf, c_zero = special_capacitances(cell)
        assert effective_model(cell.with_c_over_s(0.5 * (c_inf + c_zero))).regime is Regime.NEGATIVE

    def test_exact_pole_and_zero(self, cell):
        c_inf, c_zero = special_capacitances(cell)
        pole = effective_model(cell.with_c_over_s(c_inf))
        assert pole.regime is Regime.POLE
        assert math.isinf(pole.c_eff)
        assert pole.v_eff is None
        zero = effective_model(cell.with_c_over_s(c_zero))
        assert zero.regime is Regime.ZERO
        assert zero.c_eff == 0.0
        assert zero.v_eff is None

    def test_sign_chart(self, cell):
        c_inf, c_zero = special_capacitances(cell)
        span = c_inf - c_zero

        def c_eff(gamma):
            return effective_model(cell.with_c_over_s(gamma)).c_eff

        assert c_eff(c_zero - 0.5 * span) > 0.0
        assert c_eff(c_zero + 0.01 * span) < 0.0
        assert c_eff(c_inf - 0.01 * span) < 0.0
        assert c_eff(c_inf + 0.01 * span) > 0.0
        # Blow-up toward the pole from the positive side, vanishing at the zero.
        assert c_eff(c_inf + 0.001 * span) > c_eff(c_inf + 0.01 * span) > 0.0
        assert 0.0 > c_eff(c_zero + 0.001 * span) > c_eff(c_zero + 0.01 * span)
