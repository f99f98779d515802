import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from piezoband import transfer_matrix
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell, default_cell, derive_constants
from piezoband.oracle_bvp import oracle_layer_matrix
from piezoband.transfer_matrix import (
    ResonancePoleError,
    has_shunt_correction,
    m_elastic,
    m_elastic_entries,
    m_piezo_open,
    m_piezo_shunted,
    m_piezo_shunted_entries,
    monodromy,
    monodromy_entries,
    pole_threshold,
    shunt_coefficients,
    shunt_denominator,
)

from conftest import random_cell


def normalized_max_diff(a, b, z_omega):
    """Entrywise difference with the stress row/column made dimensionless."""
    weights = np.array([[1.0, z_omega], [1.0 / z_omega, 1.0]])
    scale = max(1.0, np.max(np.abs(a * weights)))
    return np.max(np.abs(a - b) * weights) / scale


def first_pole(cell, omega_max):
    grid = np.linspace(0.0, omega_max, 20001)
    den = shunt_denominator(cell, grid)
    idx = np.nonzero(den[:-1] * den[1:] < 0.0)[0]
    assert idx.size, "expected a shunt resonance in the window"
    lo, hi = grid[idx[0]], grid[idx[0] + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(shunt_denominator(cell, mid)) * float(shunt_denominator(cell, lo)) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestElasticMatrix:
    def test_static_limit_exact(self, cell):
        m = m_elastic(cell, 0.0)
        el = cell.elastic
        assert (m.a11, m.a12, m.a21, m.a22) == (1.0, el.d / el.c, 0.0, 1.0)

    def test_half_wave_layer(self, cell):
        el = cell.elastic
        omega = math.pi / (el.d * el.slowness)
        m = m_elastic(cell, omega)
        assert m.a11 == pytest.approx(-1.0, abs=1e-12)
        assert m.a22 == pytest.approx(-1.0, abs=1e-12)
        assert abs(m.a12) <= 1e-12 * el.d / el.c
        assert abs(m.a21) <= 1e-12 * el.rho * el.d * omega**2

    def test_generic_frequency_matches_oracle(self, cell):
        dc = derive_constants(cell)
        for omega in (4.1e5, 3.7e6, 2.9e7):
            closed = m_elastic(cell, omega).as_array()
            oracle = oracle_layer_matrix(cell.elastic, 0.0, omega)
            assert normalized_max_diff(closed, oracle, dc.Z1 * omega) < 1e-10


class TestPiezoOpenMatrix:
    def test_static_limit_exact(self, cell):
        m = m_piezo_open(cell, 0.0)
        pz = cell.piezo
        assert (m.a11, m.a12, m.a21, m.a22) == (1.0, pz.d / pz.cD, 0.0, 1.0)

    def test_full_wave_layer_is_identity(self, cell):
        pz = cell.piezo
        omega = 2.0 * math.pi / (pz.d * pz.slowness)
        m = m_piezo_open(cell, omega)
        assert m.a11 == pytest.approx(1.0, abs=1e-12)
        assert m.a22 == pytest.approx(1.0, abs=1e-12)
        assert abs(m.a12) <= 1e-12 * pz.d / pz.cD
        assert abs(m.a21) <= 1e-12 * pz.rho * pz.d * omega**2

    def test_matches_open_circuit_oracle(self, cell):
        dc = derive_constants(cell)
        for omega in (4.1e5, 3.7e6, 2.9e7):
            closed = m_piezo_open(cell, omega).as_array()
            oracle = oracle_layer_matrix(cell.piezo, 0.0, omega)
            assert normalized_max_diff(closed, oracle, dc.Z2 * omega) < 1e-10


class TestShuntCoefficients:
    def test_zero_e(self):
        pz = PiezoLayer(rho=7500.0, cE=117e9, e=0.0, eps=1.302e-8, d=1e-3)
        c = ShuntedCell(ElasticLayer(rho=2500.0, c=75e9, d=1e-3), pz, -11e-6)
        co = shunt_coefficients(c, 2.2e6)
        assert co.M1 == 0.0
        assert co.M2 == 0.0
        assert co.M3 == -pz.d / pz.eps

    def test_periodic_arguments(self, cell):
        pz = cell.piezo
        omega = 2.0 * math.pi / (pz.d * pz.slowness)
        co = shunt_coefficients(cell, omega)
        scale = pz.h * pz.d / pz.cD
        assert abs(co.M1) <= 1e-12 * scale
        assert abs(co.M2) <= 1e-12 * pz.h
        assert co.M3 == pytest.approx(-pz.d / pz.eps, rel=1e-12)

    def test_static_limits(self, cell):
        # Series limits cross-checked at omega = 1e-6 of the first-gap scale
        # against the 40-digit evaluation of h*d2/cD and -(d2/eps)*(cE/cD).
        omega = 1e-6 * 7.85e6
        co = shunt_coefficients(cell, omega)
        assert co.M1 == pytest.approx(1.1276576179805733147e-05, rel=1e-9)
        assert co.M3 == pytest.approx(-56624.867512329217948, rel=1e-9)
        exact_zero = shunt_coefficients(cell, 0.0)
        assert exact_zero.M1 == pytest.approx(1.1276576179805733147e-05, rel=1e-15)
        assert exact_zero.M2 == 0.0
        assert exact_zero.M3 == pytest.approx(-56624.867512329217948, rel=1e-15)

    def test_open_circuit_flag(self, cell):
        co = shunt_coefficients(cell, 1e6)
        assert co.open_circuit
        assert math.isinf(co.denom)
        shunted = shunt_coefficients(cell.with_c_over_s(-11e-6), 1e6)
        assert not shunted.open_circuit
        assert shunted.denom == pytest.approx(1.0 / -11e-6 - shunted.M3, rel=1e-15)


class TestShuntedMatrix:
    def test_open_circuit_returns_bare_matrix_exactly(self, cell):
        for omega in (0.0, 1.3e6, 2.9e7):
            assert m_piezo_shunted(cell, omega) == m_piezo_open(cell, omega)

    def test_zero_e_returns_bare_matrix_exactly(self):
        pz = PiezoLayer(rho=7500.0, cE=117e9, e=0.0, eps=1.302e-8, d=1e-3)
        c = ShuntedCell(ElasticLayer(rho=2500.0, c=75e9, d=1e-3), pz, -11e-6)
        for omega in (0.0, 1.3e6):
            assert m_piezo_shunted(c, omega) == m_piezo_open(c, omega)
        # Including C/S = -eps/d2, where the correction denominator vanishes
        # but the numerator is identically zero.
        inert = ShuntedCell(c.elastic, pz, -pz.eps / pz.d)
        assert not has_shunt_correction(inert)
        assert m_piezo_shunted(inert, 1.3e6) == m_piezo_open(inert, 1.3e6)

    def test_generic_negative_capacitance_matches_oracle(self, cell):
        dc = derive_constants(cell)
        for gamma in (-11e-6, -16.7e-6, -40e-6):
            c2 = cell.with_c_over_s(gamma)
            for omega in (4.1e5, 3.7e6, 2.9e7):
                closed = m_piezo_shunted(c2, omega).as_array()
                oracle = oracle_layer_matrix(cell.piezo, gamma, omega)
                assert normalized_max_diff(closed, oracle, dc.Z2 * omega) < 1e-8

    def test_continuity_at_open_circuit(self, cell):
        omega = 2.2e6
        bare = m_piezo_open(cell, omega).as_array()
        dc = derive_constants(cell)
        for gamma in (1e-15, -1e-15):
            shunted = m_piezo_shunted(cell.with_c_over_s(gamma), omega).as_array()
            assert normalized_max_diff(shunted, bare, dc.Z2 * omega) < 1e-9

    def test_short_circuit_limit_matches_constrained_oracle(self, cell):
        dc = derive_constants(cell)
        for omega in (4.1e5, 3.7e6):
            co = shunt_coefficients(cell, omega)
            base = m_piezo_open(cell, omega).as_array()
            rank1 = np.array([[co.M1 * co.M2, co.M1**2], [co.M2**2, co.M2 * co.M1]])
            closed = base - rank1 / co.M3
            oracle = oracle_layer_matrix(cell.piezo, 0.0, omega, short_circuit=True)
            assert normalized_max_diff(closed, oracle, dc.Z2 * omega) < 1e-10

    def test_resonance_pole_is_flagged(self, cell):
        c2 = cell.with_c_over_s(-16.7e-6)
        pole = first_pole(c2, 3.2e7)
        with pytest.raises(ResonancePoleError):
            m_piezo_shunted(c2, pole)
        with pytest.raises(ResonancePoleError):
            monodromy(c2, pole)
        # Just outside the flagged neighborhood the matrix is evaluable.
        threshold = pole_threshold(c2)
        offset = pole * 1e-6
        for side in (pole - offset, pole + offset):
            assert abs(float(shunt_denominator(c2, side))) > threshold
            m_piezo_shunted(c2, side)


class TestMonodromy:
    def test_static_open_circuit(self, cell):
        m = monodromy(cell, 0.0)
        expected = cell.elastic.d / cell.elastic.c + cell.piezo.d / cell.piezo.cD
        assert (m.a11, m.a21, m.a22) == (1.0, 0.0, 1.0)
        assert m.a12 == pytest.approx(expected, rel=1e-15)

    def test_half_trace_is_one_at_zero_frequency(self, cell):
        for gamma in (0.0, -11e-6, -16.7e-6, -40e-6, 5e-6):
            m = monodromy(cell.with_c_over_s(gamma), 0.0)
            assert 0.5 * m.trace() == 1.0

    def test_zero_e_reduces_to_elastic_bilayer(self):
        pz = PiezoLayer(rho=7500.0, cE=158696620583.71735, e=0.0, eps=1e-8, d=1e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        c = ShuntedCell(el, pz, -11e-6)
        omega = 2.2e6
        expected = m_piezo_open(c, omega) @ m_elastic(c, omega)
        assert monodromy(c, omega) == expected

    def test_vectorized_entries_match_scalar_path(self, cell):
        c2 = cell.with_c_over_s(-16.7e-6)
        omegas = np.array([0.0, 4.1e5, 3.7e6, 2.9e7])
        t11, t12, t21, t22 = monodromy_entries(c2, omegas)
        for i, omega in enumerate(omegas):
            m = monodromy(c2, float(omega))
            assert (t11[i], t12[i], t21[i], t22[i]) == (m.a11, m.a12, m.a21, m.a22)

    @settings(max_examples=150, deadline=None)
    @given(
        rho1=st.floats(min_value=500.0, max_value=2e4),
        c1=st.floats(min_value=1e9, max_value=5e11),
        e=st.floats(min_value=-40.0, max_value=40.0),
        gamma_uf=st.floats(min_value=-50.0, max_value=50.0),
        omega=st.floats(min_value=0.0, max_value=5e7),
    )
    def test_unimodularity_property(self, rho1, c1, e, gamma_uf, omega):
        c = ShuntedCell(
            ElasticLayer(rho=rho1, c=c1, d=1e-3),
            PiezoLayer(rho=7500.0, cE=117e9, e=e, eps=1.302e-8, d=1e-3),
            gamma_uf * 1e-6,
        )
        try:
            matrices = [m_elastic(c, omega), m_piezo_shunted(c, omega), monodromy(c, omega)]
        except ResonancePoleError:
            return
        for m in matrices:
            scale = max(1.0, abs(m.a11 * m.a22) + abs(m.a12 * m.a21))
            assert abs(m.det() - 1.0) <= 1e-12 * scale


# --- bitwise oracle: the unfused, unblocked kernel formulas as reference ------


def plain_sinc(q):
    """sin(q)/q, equal to 1 at q = 0 (elementwise)."""
    q = np.asarray(q, dtype=float)
    safe = np.where(q == 0.0, 1.0, q)
    return np.where(q == 0.0, 1.0, np.sin(safe) / safe)


def plain_m0_entries(rho, c, d, omega):
    omega = np.asarray(omega, dtype=float)
    q = omega * d * math.sqrt(rho / c)
    s = plain_sinc(q)
    cos_q = np.cos(q)
    a12 = (d / c) * s
    a21 = -rho * d * omega * omega * s
    return cos_q, a12, a21, cos_q


def plain_shunt_terms(cell, omega):
    pz = cell.piezo
    omega = np.asarray(omega, dtype=float)
    q = omega * pz.d * pz.slowness
    h = pz.h
    M1 = h * (pz.d / pz.cD) * plain_sinc(q)
    half = 0.5 * q
    M2 = -2.0 * h * np.sin(half) * np.sin(half)
    M3 = h * M1 - pz.d / pz.eps
    return M1, M2, M3


def plain_elastic_entries(cell, omega):
    el = cell.elastic
    return plain_m0_entries(el.rho, el.c, el.d, omega)


def plain_piezo_entries(cell, omega):
    pz = cell.piezo
    b11, b12, b21, b22 = plain_m0_entries(pz.rho, pz.cD, pz.d, omega)
    if has_shunt_correction(cell):
        M1, M2, M3 = plain_shunt_terms(cell, omega)
        with np.errstate(divide="ignore"):
            f = 1.0 / (1.0 / cell.c_over_s - M3)
        b11 = b11 + f * M1 * M2
        b12 = b12 + f * M1 * M1
        b21 = b21 + f * M2 * M2
        b22 = b22 + f * M2 * M1
    return b11, b12, b21, b22


def plain_monodromy_entries(cell, omega):
    a11, a12, a21, a22 = plain_elastic_entries(cell, omega)
    b11, b12, b21, b22 = plain_piezo_entries(cell, omega)
    return (
        b11 * a11 + b12 * a21,
        b11 * a12 + b12 * a22,
        b21 * a11 + b22 * a21,
        b21 * a12 + b22 * a22,
    )


def plain_monodromy(cell, omega):
    """Scalar path: Python floats combined as the 2x2 product m2 @ m1."""
    a11, a12, a21, a22 = (float(x) for x in plain_elastic_entries(cell, omega))
    b11, b12, b21, b22 = (float(x) for x in plain_m0_entries(
        cell.piezo.rho, cell.piezo.cD, cell.piezo.d, omega))
    if has_shunt_correction(cell):
        M1, M2, M3 = (float(x) for x in plain_shunt_terms(cell, omega))
        f = 1.0 / (1.0 / cell.c_over_s - M3)
        b11, b12 = b11 + f * M1 * M2, b12 + f * M1 * M1
        b21, b22 = b21 + f * M2 * M2, b22 + f * M2 * M1
    return (b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
            b21 * a11 + b22 * a21, b21 * a12 + b22 * a22)


def bits(values):
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in values]


def assert_kernels_match_plain(cell, omega):
    assert bits(monodromy_entries(cell, omega)) == bits(plain_monodromy_entries(cell, omega))
    assert bits(m_elastic_entries(cell, omega)) == bits(plain_elastic_entries(cell, omega))
    with np.errstate(divide="ignore", invalid="ignore"):
        got, expected = m_piezo_shunted_entries(cell, omega), plain_piezo_entries(cell, omega)
    assert bits(got) == bits(expected)
    if has_shunt_correction(cell):
        expected = 1.0 / cell.c_over_s - plain_shunt_terms(cell, omega)[2]
        assert bits([shunt_denominator(cell, omega)]) == bits([expected])


def oracle_cells():
    """The shipped cell open and shunted, an e = 0 cell, and 300 random draws."""
    base = default_cell()
    inert = ShuntedCell(base.elastic, PiezoLayer(7500.0, 117e9, 0.0, 1.302e-8, 1e-3), -11e-6)
    draws = np.random.default_rng(0)
    return [base.with_c_over_s(g) for g in (0.0, -11e-6, -16.7e-6, -40e-6)] + [inert] + [
        random_cell(draws) for _ in range(300)
    ]


class TestKernelBitsMatchPlainFormulas:
    """The blocked kernel must reproduce the unblocked formulas bit for bit."""

    @staticmethod
    def frequencies(cell, rng, n):
        omega_max = 3.0 * 4.0 * math.pi / (
            cell.elastic.d * cell.elastic.slowness + cell.piezo.d * cell.piezo.slowness
        )
        omega = rng.uniform(0.0, omega_max, n)
        omega[rng.integers(n)] = 0.0
        return omega

    def test_random_cells_across_a_block_boundary(self):
        rng = np.random.default_rng(1)
        cells = oracle_cells()
        assert sum(not has_shunt_correction(c) for c in cells) >= 30
        for cell in cells:
            assert_kernels_match_plain(cell, self.frequencies(cell, rng, transfer_matrix._BLOCK + 37))

    def test_block_edge_sizes_and_shapes(self):
        rng = np.random.default_rng(2)
        block = transfer_matrix._BLOCK
        for cell in oracle_cells()[:5]:
            for n in (1, block - 1, block, block + 1, 3 * block + 7):
                assert_kernels_match_plain(cell, self.frequencies(cell, rng, n))
            grid = self.frequencies(cell, rng, 6 * (block // 2 + 1)).reshape(2, -1, 3)
            assert_kernels_match_plain(cell, grid)
            for omega in (0.0, 2.2e6, np.float64(3.7e6), np.array(4.1e5), np.array(0.0)):
                assert_kernels_match_plain(cell, omega)
                t11, _, _, _ = monodromy_entries(cell, omega)
                assert np.shape(t11) == ()

    def test_scalar_path(self):
        rng = np.random.default_rng(3)
        for cell in oracle_cells()[:45]:
            for omega in self.frequencies(cell, rng, 8):
                try:
                    m = monodromy(cell, float(omega))
                except ResonancePoleError:
                    continue
                assert (m.a11, m.a12, m.a21, m.a22) == plain_monodromy(cell, float(omega))
                co = shunt_coefficients(cell, float(omega))
                assert (co.M1, co.M2, co.M3) == tuple(
                    float(x) for x in plain_shunt_terms(cell, float(omega))
                )
