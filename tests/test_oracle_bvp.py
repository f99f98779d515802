import numpy as np
import pytest

from piezoband.transfer_matrix import m_elastic_entries, m_piezo_shunted_entries, shunt_denominator

from oracle_bvp import (
    OracleSingularError,
    oracle_layer_matrix,
    oracle_layer_matrix_fd,
    oracle_system_determinant,
)
from test_transfer_matrix import first_pole, matrix, normalized_max_diff


def test_rejects_nonpositive_frequency(cell):
    with pytest.raises(ValueError):
        oracle_layer_matrix(cell.elastic, 0.0, 0.0)
    with pytest.raises(ValueError):
        oracle_layer_matrix_fd(cell.piezo, 0.0, -1.0)


def test_static_limit_by_extrapolation(cell):
    # The oracle is defined for omega > 0 only; Richardson extrapolation of
    # its entries toward zero must recover the closed-form static matrices.
    for layer, static in (
        (cell.elastic, matrix(m_elastic_entries(cell, 0.0))),
        (cell.piezo, matrix(m_piezo_shunted_entries(cell, 0.0))),
    ):
        s = 10.0
        m_s = oracle_layer_matrix(layer, 0.0, s)
        m_half = oracle_layer_matrix(layer, 0.0, s / 2.0)
        extrapolated = (4.0 * m_half - m_s) / 3.0  # entries are even in omega
        # Natural magnitude of each entry at the probe scale; a21 vanishes
        # statically like rho*d*omega^2.
        scales = np.array([[1.0, static[0, 1]], [layer.rho * layer.d * s * s, 1.0]])
        assert np.max(np.abs(extrapolated - static) / scales) < 1e-9


def test_elastic_layer_agreement(cell):
    for omega in np.geomspace(1e3, 5e7, 15):
        closed = matrix(m_elastic_entries(cell, omega))
        oracle = oracle_layer_matrix(cell.elastic, 0.0, omega)
        assert normalized_max_diff(closed, oracle, cell.elastic.impedance * omega) < 1e-10


def test_open_circuit_forces_zero_displacement_field(cell):
    # C = 0 makes Q = C*V vanish, hence D = 0 and the bare stiffened matrix.
    for omega in np.geomspace(1e4, 3e7, 9):
        oracle = oracle_layer_matrix(cell.piezo, 0.0, omega)
        closed = matrix(m_piezo_shunted_entries(cell, omega))
        assert normalized_max_diff(closed, oracle, cell.piezo.impedance * omega) < 1e-10


def test_shunted_agreement_generic_negative_capacitance(cell):
    for gamma in (-11e-6, -16.7e-6):
        c2 = cell.with_c_over_s(gamma)
        for omega in np.geomspace(1e4, 3e7, 9):
            closed = matrix(m_piezo_shunted_entries(c2, omega))
            oracle = oracle_layer_matrix(cell.piezo, gamma, omega)
            assert normalized_max_diff(closed, oracle, cell.piezo.impedance * omega) < 1e-8


def test_agreement_across_four_decades_and_capacitance_grid(cell):
    # Log-spaced omega over four decades crossed with the +- capacitance
    # reference set; flagged singular neighborhoods are skipped.
    guard = 1e-6 * cell.piezo.d / cell.piezo.eps
    omegas = np.geomspace(2e3, 2e7, 49)
    gammas = [0.0] + [s * g * 1e-6 for g in (1.0, 5.0, 10.67, 11.0, 12.0, 13.3, 14.0, 40.0)
                      for s in (1.0, -1.0)]
    assert len(gammas) == 17
    worst = 0.0
    for gamma in gammas:
        c2 = cell.with_c_over_s(gamma)
        for omega in omegas:
            if gamma != 0.0 and abs(float(shunt_denominator(c2, omega))) < guard:
                continue
            closed = matrix(m_piezo_shunted_entries(c2, float(omega)))
            oracle = oracle_layer_matrix(cell.piezo, gamma, float(omega))
            worst = max(worst, normalized_max_diff(closed, oracle, cell.piezo.impedance * omega))
    assert worst < 1e-8


def test_sign_convention_pinned_by_quasistatic_stiffness(cell):
    # Open circuit must stiffen the static compliance to d/cD, short
    # circuit must soften it to d/cE; this fixes the electrode sign
    # orientation in the charge balance.
    pz = cell.piezo
    omega = 50.0  # deep quasistatic
    open_a12 = oracle_layer_matrix(pz, 0.0, omega)[0, 1]
    short_a12 = oracle_layer_matrix(pz, 0.0, omega, short_circuit=True)[0, 1]
    assert open_a12 == pytest.approx(pz.d / pz.cD, rel=1e-8)
    assert short_a12 == pytest.approx(pz.d / pz.cE, rel=1e-8)
    assert short_a12 > open_a12


def test_singularity_matches_closed_form_denominator(cell):
    c2 = cell.with_c_over_s(-16.7e-6)
    pole = first_pole(c2, 3.2e7)
    with pytest.raises(OracleSingularError):
        oracle_layer_matrix(cell.piezo, -16.7e-6, pole)

    # The oracle system determinant and the closed-form denominator change
    # sign at the same frequency; bracket each independently and compare.
    lo, hi = 0.95 * pole, 1.05 * pole
    det = lambda w: oracle_system_determinant(cell.piezo, -16.7e-6, w)
    den = lambda w: float(shunt_denominator(c2, w))
    for func in (det, den):
        assert func(lo) * func(hi) < 0.0

    def bisect(func, a, b):
        fa = func(a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if func(mid) * fa > 0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    assert bisect(det, lo, hi) == pytest.approx(bisect(den, lo, hi), rel=1e-10)


def test_finite_difference_tier(cell):
    z1, z2 = cell.elastic.impedance, cell.piezo.impedance
    omega = 3.7e6
    fd = oracle_layer_matrix_fd(cell.elastic, 0.0, omega)
    assert normalized_max_diff(matrix(m_elastic_entries(cell, omega)), fd, z1 * omega) < 1e-3
    for gamma in (0.0, -11e-6):
        fd = oracle_layer_matrix_fd(cell.piezo, gamma, omega)
        exact = oracle_layer_matrix(cell.piezo, gamma, omega)
        assert normalized_max_diff(exact, fd, z2 * omega) < 1e-3


def test_finite_difference_order_of_accuracy(cell):
    # Halving the step should shrink the error about fourfold.
    omega = 3.7e6
    exact = oracle_layer_matrix(cell.piezo, -11e-6, omega)
    err = [
        normalized_max_diff(exact, oracle_layer_matrix_fd(cell.piezo, -11e-6, omega, points=n),
                            cell.piezo.impedance * omega)
        for n in (251, 501, 1001)
    ]
    assert 3.0 < err[0] / err[1] < 5.0
    assert 3.0 < err[1] / err[2] < 5.0
