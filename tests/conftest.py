import numpy as np
import pytest

from piezoband.band_structure import half_trace_values
from piezoband.materials import ElasticLayer, PiezoLayer, ShuntedCell, calibrated_cell, default_cell


@pytest.fixture(scope="session")
def cell() -> ShuntedCell:
    """Shipped glass/PZT-5H cell, open circuit."""
    return default_cell()


@pytest.fixture(scope="session")
def calibrated() -> ShuntedCell:
    """Shipped cell calibrated to the reference capacitances."""
    return calibrated_cell()


def elastic_bilayer(z_ratio: float = 4.0) -> ShuntedCell:
    """Synthetic e = 0 cell with equal travel times and impedance ratio z_ratio.

    With rho = c = z for layer 1 and rho = c = 1 for layer 2 (d = 1 each),
    both one-way travel times are 1 and Z1/Z2 = z, so the quarter-wave
    frequencies sit at omega = pi/2 + n*pi.
    """
    z = z_ratio
    el = ElasticLayer(rho=z, c=z, d=1.0)
    pz = PiezoLayer(rho=1.0, cE=1.0, e=0.0, eps=1.0, d=1.0)
    return ShuntedCell(el, pz, 0.0)


def random_cell(rng: np.random.Generator, *, allow_zero_e: bool = True) -> ShuntedCell:
    """Physically plausible random cell (log-uniform constants)."""
    def logu(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    el = ElasticLayer(rho=logu(500, 2e4), c=logu(1e9, 5e11), d=logu(1e-4, 5e-3))
    e = 0.0 if (allow_zero_e and rng.random() < 0.1) else logu(0.5, 40.0) * rng.choice([-1.0, 1.0])
    pz = PiezoLayer(
        rho=logu(500, 2e4),
        cE=logu(1e9, 5e11),
        e=e,
        eps=logu(1e-9, 1e-7),
        d=logu(1e-4, 5e-3),
    )
    if rng.random() < 0.15:
        gamma = 0.0
    else:
        gamma = logu(1e-7, 1e-4) * rng.choice([-1.0, 1.0])
    return ShuntedCell(el, pz, gamma)


def central_group_velocity(cell: ShuntedCell, k, omega) -> np.ndarray:
    """v_g = -T*sin(KT)/h'(omega), h' from central differences of the half-trace."""
    step = 1e-6 * np.maximum(omega, 1.0)
    dh = (half_trace_values(cell, omega + step) - half_trace_values(cell, omega - step)) / (2 * step)
    return -cell.period * np.sin(k * cell.period) / dh
