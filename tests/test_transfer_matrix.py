import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from piezoband import transfer_matrix
from piezoband.band_structure import _find_poles, default_omega_max, half_trace_values
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell, default_cell
from piezoband.quasistatic import special_capacitances
from piezoband.transfer_matrix import (
    ResonancePoleError,
    has_shunt_correction,
    m_elastic_entries,
    m_piezo_shunted_entries,
    monodromy,
    monodromy_entries,
    pole_threshold,
    shunt_denominator,
)

from conftest import random_cell
from oracle_bvp import oracle_layer_matrix


def normalized_max_diff(a, b, z_omega):
    """Entrywise difference with the stress row/column made dimensionless."""
    weights = np.array([[1.0, z_omega], [1.0 / z_omega, 1.0]])
    scale = max(1.0, np.max(np.abs(a * weights)))
    return np.max(np.abs(a - b) * weights) / scale


def matrix(entries):
    """The four entries of a layer or cell at one frequency as a 2x2 array."""
    return np.reshape(entries, (2, 2))


def floats(entries):
    return tuple(np.asarray(x, dtype=float).item() for x in entries)


def bare_piezo(cell, omega):
    """Entries of the piezo layer without shunt correction, as floats."""
    pz = cell.piezo
    _, _, cos_q, a12, a21 = transfer_matrix._layer(pz.rho, pz.cD, pz.d, np.array([float(omega)]))
    return floats((cos_q, a12, a21, cos_q))


def coupling(cell, omega):
    """Shunt coefficients (M1, M2, M3) at one frequency, as floats, M3 = h*M1 - d/eps."""
    pz = cell.piezo
    q, s = transfer_matrix._phase_sinc(pz.rho, pz.cD, pz.d, np.array([float(omega)]))
    M1, M2, hM1 = transfer_matrix._coupling(pz, q, s)
    return floats((M1, M2, hM1 - pz.d / pz.eps))


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
        el = cell.elastic
        assert floats(m_elastic_entries(cell, 0.0)) == (1.0, el.d / el.c, 0.0, 1.0)

    def test_half_wave_layer(self, cell):
        el = cell.elastic
        omega = math.pi / (el.d * el.slowness)
        a11, a12, a21, a22 = floats(m_elastic_entries(cell, omega))
        assert a11 == pytest.approx(-1.0, abs=1e-12)
        assert a22 == pytest.approx(-1.0, abs=1e-12)
        assert abs(a12) <= 1e-12 * el.d / el.c
        assert abs(a21) <= 1e-12 * el.rho * el.d * omega**2

    def test_generic_frequency_matches_oracle(self, cell):
        for omega in (4.1e5, 3.7e6, 2.9e7):
            closed = matrix(m_elastic_entries(cell, omega))
            oracle = oracle_layer_matrix(cell.elastic, 0.0, omega)
            assert normalized_max_diff(closed, oracle, cell.elastic.impedance * omega) < 1e-10


class TestPiezoOpenMatrix:
    def test_static_limit_exact(self, cell):
        pz = cell.piezo
        assert floats(m_piezo_shunted_entries(cell, 0.0)) == (1.0, pz.d / pz.cD, 0.0, 1.0)

    def test_full_wave_layer_is_identity(self, cell):
        pz = cell.piezo
        omega = 2.0 * math.pi / (pz.d * pz.slowness)
        a11, a12, a21, a22 = floats(m_piezo_shunted_entries(cell, omega))
        assert a11 == pytest.approx(1.0, abs=1e-12)
        assert a22 == pytest.approx(1.0, abs=1e-12)
        assert abs(a12) <= 1e-12 * pz.d / pz.cD
        assert abs(a21) <= 1e-12 * pz.rho * pz.d * omega**2

    def test_matches_open_circuit_oracle(self, cell):
        for omega in (4.1e5, 3.7e6, 2.9e7):
            closed = matrix(m_piezo_shunted_entries(cell, omega))
            oracle = oracle_layer_matrix(cell.piezo, 0.0, omega)
            assert normalized_max_diff(closed, oracle, cell.piezo.impedance * omega) < 1e-10


class TestShuntCoefficients:
    def test_zero_e(self):
        pz = PiezoLayer(rho=7500.0, cE=117e9, e=0.0, eps=1.302e-8, d=1e-3)
        c = ShuntedCell(ElasticLayer(rho=2500.0, c=75e9, d=1e-3), pz, -11e-6)
        M1, M2, M3 = coupling(c, 2.2e6)
        assert M1 == 0.0
        assert M2 == 0.0
        assert M3 == -pz.d / pz.eps

    def test_periodic_arguments(self, cell):
        pz = cell.piezo
        omega = 2.0 * math.pi / (pz.d * pz.slowness)
        M1, M2, M3 = coupling(cell, omega)
        scale = pz.h * pz.d / pz.cD
        assert abs(M1) <= 1e-12 * scale
        assert abs(M2) <= 1e-12 * pz.h
        assert M3 == pytest.approx(-pz.d / pz.eps, rel=1e-12)

    def test_static_limits(self, cell):
        # Series limits cross-checked at omega = 1e-6 of the first-gap scale
        # against the 40-digit evaluation of h*d2/cD and -(d2/eps)*(cE/cD).
        omega = 1e-6 * 7.85e6
        M1, _, M3 = coupling(cell, omega)
        assert M1 == pytest.approx(1.1276576179805733147e-05, rel=1e-9)
        assert M3 == pytest.approx(-56624.867512329217948, rel=1e-9)
        M1, M2, M3 = coupling(cell, 0.0)
        assert M1 == pytest.approx(1.1276576179805733147e-05, rel=1e-15)
        assert M2 == 0.0
        assert M3 == pytest.approx(-56624.867512329217948, rel=1e-15)

    def test_open_circuit_flag(self, cell):
        # Open circuit switches the correction off; it has no denominator.
        assert not has_shunt_correction(cell)
        with pytest.raises(ValueError):
            shunt_denominator(cell, 1e6)
        shunted = cell.with_c_over_s(-11e-6)
        assert has_shunt_correction(shunted)
        M3 = coupling(shunted, 1e6)[2]
        assert float(shunt_denominator(shunted, 1e6)) == pytest.approx(1.0 / -11e-6 - M3, rel=1e-15)


class TestShuntedMatrix:
    def test_open_circuit_returns_bare_matrix_exactly(self, cell):
        for omega in (0.0, 1.3e6, 2.9e7):
            assert floats(m_piezo_shunted_entries(cell, omega)) == bare_piezo(cell, omega)

    def test_zero_e_returns_bare_matrix_exactly(self):
        pz = PiezoLayer(rho=7500.0, cE=117e9, e=0.0, eps=1.302e-8, d=1e-3)
        c = ShuntedCell(ElasticLayer(rho=2500.0, c=75e9, d=1e-3), pz, -11e-6)
        for omega in (0.0, 1.3e6):
            assert floats(m_piezo_shunted_entries(c, omega)) == bare_piezo(c, omega)
        # Including C/S = -eps/d2, where the correction denominator vanishes
        # but the numerator is identically zero.
        inert = ShuntedCell(c.elastic, pz, -pz.eps / pz.d)
        assert not has_shunt_correction(inert)
        assert floats(m_piezo_shunted_entries(inert, 1.3e6)) == bare_piezo(inert, 1.3e6)

    def test_generic_negative_capacitance_matches_oracle(self, cell):
        for gamma in (-11e-6, -16.7e-6, -40e-6):
            c2 = cell.with_c_over_s(gamma)
            for omega in (4.1e5, 3.7e6, 2.9e7):
                closed = matrix(m_piezo_shunted_entries(c2, omega))
                oracle = oracle_layer_matrix(cell.piezo, gamma, omega)
                assert normalized_max_diff(closed, oracle, cell.piezo.impedance * omega) < 1e-8

    def test_continuity_at_open_circuit(self, cell):
        omega = 2.2e6
        bare = matrix(m_piezo_shunted_entries(cell, omega))
        for gamma in (1e-15, -1e-15):
            shunted = matrix(m_piezo_shunted_entries(cell.with_c_over_s(gamma), omega))
            assert normalized_max_diff(shunted, bare, cell.piezo.impedance * omega) < 1e-9

    def test_short_circuit_limit_matches_constrained_oracle(self, cell):
        for omega in (4.1e5, 3.7e6):
            M1, M2, M3 = coupling(cell, omega)
            base = matrix(m_piezo_shunted_entries(cell, omega))
            rank1 = np.array([[M1 * M2, M1**2], [M2**2, M2 * M1]])
            closed = base - rank1 / M3
            oracle = oracle_layer_matrix(cell.piezo, 0.0, omega, short_circuit=True)
            assert normalized_max_diff(closed, oracle, cell.piezo.impedance * omega) < 1e-10

    def test_resonance_pole_is_flagged(self, cell):
        c2 = cell.with_c_over_s(-16.7e-6)
        pole = first_pole(c2, 3.2e7)
        with pytest.raises(ResonancePoleError) as info:
            monodromy(c2, pole)
        threshold = pole_threshold(c2)
        assert info.value.omega == pole and info.value.threshold == threshold
        assert abs(info.value.denom) < threshold
        # Just outside the flagged neighborhood the matrix is evaluable.
        offset = pole * 1e-6
        for side in (pole - offset, pole + offset):
            assert abs(float(shunt_denominator(c2, side))) > threshold
            assert np.all(np.isfinite(monodromy(c2, side)))


class TestMonodromy:
    def test_static_open_circuit(self, cell):
        m = monodromy(cell, 0.0)
        expected = cell.elastic.d / cell.elastic.c + cell.piezo.d / cell.piezo.cD
        assert m.shape == (2, 2)
        assert (m[0, 0], m[1, 0], m[1, 1]) == (1.0, 0.0, 1.0)
        assert m[0, 1] == pytest.approx(expected, rel=1e-15)

    def test_half_trace_is_one_at_zero_frequency(self, cell):
        for gamma in (0.0, -11e-6, -16.7e-6, -40e-6, 5e-6):
            m = monodromy(cell.with_c_over_s(gamma), 0.0)
            assert 0.5 * (m[0, 0] + m[1, 1]) == 1.0

    def test_zero_e_reduces_to_elastic_bilayer(self):
        pz = PiezoLayer(rho=7500.0, cE=158696620583.71735, e=0.0, eps=1e-8, d=1e-3)
        el = ElasticLayer(rho=2500.0, c=75e9, d=1e-3)
        c = ShuntedCell(el, pz, -11e-6)
        omega = 2.2e6
        # Bare piezo matrix times elastic matrix, in Python floats.
        b11, b12, b21, b22 = bare_piezo(c, omega)
        a11, a12, a21, a22 = floats(m_elastic_entries(c, omega))
        expected = [[b11 * a11 + b12 * a21, b11 * a12 + b12 * a22],
                    [b21 * a11 + b22 * a21, b21 * a12 + b22 * a22]]
        assert monodromy(c, omega).tolist() == expected

    def test_vectorized_entries_match_scalar_path(self, cell):
        c2 = cell.with_c_over_s(-16.7e-6)
        omegas = np.array([0.0, 4.1e5, 3.7e6, 2.9e7])
        t11, t12, t21, t22 = monodromy_entries(c2, omegas)
        for i, omega in enumerate(omegas):
            m = monodromy(c2, float(omega))
            assert [t11[i], t12[i], t21[i], t22[i]] == m.ravel().tolist()

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
        # The checked monodromy goes first: the unchecked layer entries are
        # taken only where it found no pole.
        try:
            cell_matrix = monodromy(c, omega)
        except ResonancePoleError:
            return
        layers = [matrix(m_elastic_entries(c, omega)), matrix(m_piezo_shunted_entries(c, omega))]
        for m in layers + [cell_matrix]:
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = max(1.0, abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0]))
            assert abs(det - 1.0) <= 1e-12 * scale


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


def plain_denominator(cell, M1):
    """S/C - M3 as (S/C + d/eps) - h*M1, the kernel's cancellation-free order."""
    pz = cell.piezo
    return (1.0 / cell.c_over_s + pz.d / pz.eps) - pz.h * M1


def plain_piezo_entries(cell, omega):
    pz = cell.piezo
    b11, b12, b21, b22 = plain_m0_entries(pz.rho, pz.cD, pz.d, omega)
    if has_shunt_correction(cell):
        M1, M2, _ = plain_shunt_terms(cell, omega)
        with np.errstate(divide="ignore"):
            f = 1.0 / plain_denominator(cell, M1)
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
        M1, M2, _ = (float(x) for x in plain_shunt_terms(cell, omega))
        f = 1.0 / plain_denominator(cell, M1)
        b11, b12 = b11 + f * M1 * M2, b12 + f * M1 * M1
        b21, b22 = b21 + f * M2 * M2, b22 + f * M2 * M1
    return (b11 * a11 + b12 * a21, b11 * a12 + b12 * a22,
            b21 * a11 + b22 * a21, b21 * a12 + b22 * a22)


def bits(values):
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in values]


def plain_half_trace(cell, omega):
    t11, _, _, t22 = plain_monodromy_entries(cell, omega)
    return 0.5 * (t11 + t22)


def assert_kernels_match_plain(cell, omega):
    assert bits(monodromy_entries(cell, omega)) == bits(plain_monodromy_entries(cell, omega))
    assert bits([half_trace_values(cell, omega)]) == bits([plain_half_trace(cell, omega)])
    assert bits(m_elastic_entries(cell, omega)) == bits(plain_elastic_entries(cell, omega))
    with np.errstate(divide="ignore", invalid="ignore"):
        got, expected = m_piezo_shunted_entries(cell, omega), plain_piezo_entries(cell, omega)
    assert bits(got) == bits(expected)
    if has_shunt_correction(cell):
        expected = plain_denominator(cell, plain_shunt_terms(cell, omega)[0])
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
    """The four entries and the blocked half-trace must reproduce the plain formulas bit for bit."""

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
                omega = float(omega)
                try:
                    m = monodromy(cell, omega)
                except ResonancePoleError:
                    continue
                assert bits([m]) == bits([matrix(monodromy_entries(cell, omega))])
                assert tuple(m.ravel().tolist()) == plain_monodromy(cell, omega)
                assert coupling(cell, omega) == floats(plain_shunt_terms(cell, omega))


def inline_shunt_denominator(cell, omega):
    """shunt_denominator written inline: (S/C + d/eps) - h*((h*(d/cD))*s) built in place on s."""
    pz = cell.piezo
    omega = np.asarray(omega, dtype=float)
    _, s = transfer_matrix._phase_sinc(pz.rho, pz.cD, pz.d, omega.reshape(-1))
    s *= pz.h * (pz.d / pz.cD)
    s *= pz.h
    np.subtract(1.0 / cell.c_over_s + pz.d / pz.eps, s, out=s)
    return s.reshape(omega.shape)


def test_shunt_denominator_keeps_the_inline_bits():
    # (S/C + d/eps) - h*M1 with h*M1 from _coupling: the two orders differ
    # only by exact commutations of one product. 300 random cells on 3x
    # their window and the shipped cell, shunted, on the 50x window.
    rng = np.random.default_rng(8)
    draws = np.random.default_rng(0)
    base = default_cell()
    window = 4.0 * math.pi / (base.elastic.d * base.elastic.slowness + base.piezo.d * base.piezo.slowness)
    cases = [(base.with_c_over_s(g * 1e-6), np.linspace(0.0, 50.0 * window, 100_001))
             for g in (-11.0, -16.7, -40.0)]
    for cell in (random_cell(draws) for _ in range(300)):
        if has_shunt_correction(cell):
            cases.append((cell, TestKernelBitsMatchPlainFormulas.frequencies(cell, rng, 1000)))
    assert len(cases) >= 200
    for cell, omega in cases:
        assert shunt_denominator(cell, omega).tobytes() == inline_shunt_denominator(cell, omega).tobytes()


def test_block_size_moves_no_bit(monkeypatch):
    # The half-trace, the one blocked path, at 40 000 frequencies on the
    # 50x window, the size of a wide bisection pass, through blocks of 4096
    # and of 8192.
    rng = np.random.default_rng(4)
    draws = np.random.default_rng(5)
    cells = [default_cell(g * 1e-6) for g in (0.0, -11.0, -16.7)]
    cells += [random_cell(draws) for _ in range(20)]
    for cell in cells:
        omega_max = 50.0 * 4.0 * math.pi / (
            cell.elastic.d * cell.elastic.slowness + cell.piezo.d * cell.piezo.slowness
        )
        omega = rng.uniform(0.0, omega_max, 40_000)
        got = []
        for block in (4096, 8192):
            monkeypatch.setattr(transfer_matrix, "_BLOCK", block)
            got.append(bits([monodromy_entries(cell, omega, half_trace=True)]))
        assert got[0] == got[1]


class TestHalfTraceKernel:
    """half_trace=True gives 0.5*(t11 + t22) of the plain formulas, bit for bit."""

    @staticmethod
    def assert_half_trace_bits(cell, omega):
        # Non-finite values, as at nan or inf omega, compare by their bits
        # too.
        with np.errstate(all="ignore"):
            got = monodromy_entries(cell, omega, half_trace=True)
            t11, _, _, t22 = monodromy_entries(cell, omega)
            expected = plain_half_trace(cell, omega)
        assert bits([got]) == bits([expected]) == bits([0.5 * (t11 + t22)])

    def test_random_cells_on_wide_windows_and_at_poles(self):
        # Each random draw as drawn and, with e != 0, shunted inside its
        # negative-stiffness interval, where it has poles; on the 1x, 10x
        # and 50x windows, with every pole and its two float neighbours.
        draws = np.random.default_rng(6)
        cells = oracle_cells()[:5]
        for _ in range(150):
            cell = random_cell(draws)
            cells.append(cell)
            if cell.piezo.e != 0.0:
                c_inf, c_zero = special_capacitances(cell)
                cells.append(cell.with_c_over_s(c_zero + draws.uniform(0.05, 0.95) * (c_inf - c_zero)))
        assert sum(not has_shunt_correction(c) for c in cells) >= 30
        poles = 0
        for cell, factor in ((c, f) for c in cells for f in (1.0, 10.0, 50.0)):
            omega_max = factor * default_omega_max(cell)
            at = _find_poles(cell, omega_max)
            near = [at, np.nextafter(at, 0.0), np.nextafter(at, math.inf)]
            omega = np.concatenate([np.linspace(0.0, omega_max, 4001)] + near)
            self.assert_half_trace_bits(cell, omega)
            poles += at.size
        assert poles >= 400

    def test_open_circuit_zero_coupling_and_non_finite_frequencies(self):
        # The shipped cell open (b11 and b22 are one array there) and
        # shunted, and an e == 0 cell (one array too).
        omega = np.concatenate([np.linspace(0.0, 3e7, 1001), [math.nan, math.inf, -math.inf, -2e6]])
        for cell in oracle_cells()[:5]:
            self.assert_half_trace_bits(cell, omega)

    @pytest.mark.parametrize("block", [1, 7, 8192])
    def test_block_size_moves_no_bit(self, monkeypatch, block):
        rng = np.random.default_rng(7)
        monkeypatch.setattr(transfer_matrix, "_BLOCK", block)
        for cell in oracle_cells()[:5]:
            omega = TestKernelBitsMatchPlainFormulas.frequencies(cell, rng, 300)
            self.assert_half_trace_bits(cell, omega)
            self.assert_half_trace_bits(cell, omega.reshape(4, 75))


class TestCellParts:
    """h = h0 + gamma*r/(1 - gamma*M3): the shunt enters in one rational step."""

    def test_parts_reproduce_the_kernel_half_trace(self):
        # The error bound scales with the condition of the denominator,
        # kappa = |S/C| / |S/C - M3|, which grows without limit at a pole:
        # error <= 2e-14 * (1 + |h|) * max(1, kappa). Measured worst over
        # these 305 cells: 4.0e-15 (1.3e-16 at -11 uF/m^2). Points inside the
        # pole threshold are skipped.
        base = default_cell()
        draws = np.random.default_rng(0)
        cells = [base.with_c_over_s(g * 1e-6) for g in (0.0, -5.0, -11.0, -16.7, -40.0)]
        cells += [random_cell(draws) for _ in range(300)]
        for cell in cells:
            omega_max = 4.0 * math.pi / (
                cell.elastic.d * cell.elastic.slowness + cell.piezo.d * cell.piezo.slowness
            )
            omega = np.linspace(0.0, omega_max, 4001)
            t11, _, _, t22 = monodromy_entries(cell, omega)
            h = 0.5 * (t11 + t22)
            h0, r, M3 = transfer_matrix._cell_parts(cell, omega)
            gamma = cell.c_over_s
            kappa = 1.0
            keep = np.ones(omega.size, dtype=bool)
            if has_shunt_correction(cell):
                denom = shunt_denominator(cell, omega)
                keep = np.abs(denom) >= pole_threshold(cell)
                kappa = np.maximum(1.0, abs(1.0 / gamma) / np.abs(denom))
            error = np.abs(h0 + gamma * r / (1.0 - gamma * M3) - h) / ((1.0 + np.abs(h)) * kappa)
            assert np.max(error[keep]) <= 2e-14

    def test_complex_frequency_raises_in_the_cell_kernel(self):
        # Regression: the kernel cast complex omega to real with only a
        # ComplexWarning, so 1e6 + 1e3j gave the half-trace at 1e6.
        cell = default_cell(-11e-6)
        omega = np.array([1e6 + 1e3j])
        for evaluate in (
            lambda: transfer_matrix.monodromy_entries(cell, omega),
            lambda: transfer_matrix.monodromy_entries(cell, omega, half_trace=True),
            lambda: half_trace_values(cell, omega),
            lambda: transfer_matrix.monodromy_entries(cell, 1e6 + 1e3j),
        ):
            with pytest.raises(TypeError, match="real omega"):
                evaluate()

    def test_complex_frequency_stays_complex(self):
        # The complex step of group_velocity: real parts as on the real axis.
        cell = default_cell(-11e-6)
        omega = np.linspace(0.0, 3e7, 301)
        real = transfer_matrix._cell_parts(cell, omega)
        stepped = transfer_matrix._cell_parts(cell, omega + 1e-20j * np.maximum(omega, 1.0))
        for x, z in zip(real, stepped):
            assert z.dtype == complex and np.abs(z.real - x).max() <= 1e-15 * np.abs(x).max()

    def test_pole_intervals_hold_no_pass_band_root(self):
        # At the poles of the default panels and of 300 random cells inside
        # their negative-stiffness interval r does not vanish, so each pole
        # sits inside a stopband: no target cos(K*T) is bracketed in a
        # blocked interval, and every branch root is a root of h - cos(K*T)
        # to RESIDUAL_TOL. (At a flat band, where r vanishes too, the blocked
        # interval does hold the flat branch; see test_band_structure.)
        from piezoband import band_structure as bs

        draws = np.random.default_rng(0)
        cells = [default_cell(g * 1e-6) for g in (-10.67, -11.0, -12.0, -13.3, -14.0, -16.7, -40.0)]
        for _ in range(300):
            cell = random_cell(draws, allow_zero_e=False)
            c_inf, c_zero = special_capacitances(cell)
            cells.append(cell.with_c_over_s(c_zero + draws.uniform(0.05, 0.95) * (c_inf - c_zero)))
        seen = 0
        for cell in cells:
            scan = bs.scan_frequencies(cell)
            k = np.linspace(0.0, math.pi / cell.period, bs.DEFAULT_K_POINTS)
            (interval, _, _), _ = bs._target_hits(scan, np.cos(k * cell.period))
            assert not scan.blocked[interval].any()
            for branch in bs.trace_branches(cell, scan=scan):
                residual = bs.half_trace_values(cell, branch.omega) - np.cos(branch.k * cell.period)
                assert np.max(np.abs(residual)) <= bs.RESIDUAL_TOL
            seen += scan.poles.size
        assert seen >= 250
