"""First-principles transfer-matrix oracle for cross-validation.

Reconstructs each layer's transfer matrix directly from the 1D
constitutive relations and the electrode circuit condition, without the
closed-form matrix expressions: inside the piezo layer the electric
displacement D is constant, sigma = cD*u' - (e/eps)*D, and the motion
u(x) = A*cos(k x) + B*sin(k x) solves cD*u'' = -rho*omega^2*u. For each
basis entry state the unknowns (A, B, D) are fixed by the two entry
conditions plus charge balance on the electrodes, and the exit state is
read off; the two exit states are the matrix columns.

The electrode sign orientation is fixed by requiring the open-circuit
limit to stiffen the layer to cD and the short-circuit limit to soften it
to cE (both unit-tested), which the charge balance written as
S*D = C*[(e/eps)*(u(d) - u(0)) - D*d/eps] satisfies.

A coarse second-order finite-difference variant of the same boundary
value problem is included as an independent sanity tier.
"""

from __future__ import annotations

import math

import numpy as np

from piezoband.materials import ElasticLayer, PiezoLayer

__all__ = [
    "OracleSingularError",
    "oracle_layer_matrix",
    "oracle_layer_matrix_fd",
    "oracle_system_determinant",
]


class OracleSingularError(ArithmeticError):
    """The circuit-closure system is singular (shunt resonance)."""


def _piezo_system(layer: PiezoLayer, c_over_s: float, omega: float, short_circuit: bool):
    """Assemble the 3x3 system on (A, B, D) with RHS columns for both bases."""
    k = omega * layer.slowness
    q = k * layer.d
    cos_q, sin_q = math.cos(q), math.sin(q)
    h = layer.e / layer.eps
    zw = layer.cD * k  # = Z2 * omega

    mat = np.zeros((3, 3))
    mat[0, 0] = 1.0                                # u(0) = A
    mat[1, 1] = zw                                 # sigma(0) = cD*u'(0) - h*D
    mat[1, 2] = -h
    if short_circuit:
        # Voltage forced to zero: h*(u(d)-u(0)) - D*d/eps = 0.
        mat[2, 0] = h * (cos_q - 1.0)
        mat[2, 1] = h * sin_q
        mat[2, 2] = -layer.d / layer.eps
    else:
        # Charge balance S*D = C*V, normalized by S (gamma = C/S).
        gamma = c_over_s
        mat[2, 0] = -gamma * h * (cos_q - 1.0)
        mat[2, 1] = -gamma * h * sin_q
        mat[2, 2] = 1.0 + gamma * layer.d / layer.eps

    rhs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    return mat, rhs, (cos_q, sin_q, zw, h)


def oracle_system_determinant(layer: PiezoLayer, c_over_s: float, omega: float) -> float:
    """Determinant of the circuit-closure system (vanishes at shunt poles)."""
    mat, _, _ = _piezo_system(layer, c_over_s, omega, short_circuit=False)
    return float(np.linalg.det(mat))


def oracle_layer_matrix(
    layer: ElasticLayer | PiezoLayer,
    c_over_s: float,
    omega: float,
    *,
    short_circuit: bool = False,
) -> np.ndarray:
    """Layer transfer matrix from the exact interior solution.

    Args:
        layer: Elastic or piezo layer. For an elastic layer the circuit
            arguments are ignored and D is identically zero.
        c_over_s: Shunt capacitance per electrode area (F/m^2); 0 forces
            open circuit (D = 0).
        omega: Angular frequency, strictly positive.
        short_circuit: Replace the charge balance by V = 0 (C -> infinity).

    Returns:
        2x2 float array mapping (u, sigma) at entry to exit.

    Raises:
        OracleSingularError: When the closure system is (numerically)
            singular, which happens exactly at the shunt resonance.
        ValueError: If omega <= 0.
    """
    if omega <= 0.0:
        raise ValueError("oracle requires omega > 0 (the static limit is checked by extrapolation)")

    if isinstance(layer, ElasticLayer):
        k = omega * layer.slowness
        q = k * layer.d
        zw = layer.c * k
        mat = np.array([[1.0, 0.0], [0.0, zw]])
        sol = np.linalg.solve(mat, np.eye(2))
        a, b = sol[0], sol[1]
        cos_q, sin_q = math.cos(q), math.sin(q)
        u_exit = a * cos_q + b * sin_q
        s_exit = zw * (-a * sin_q + b * cos_q)
        return np.array([u_exit, s_exit])

    mat, rhs, (cos_q, sin_q, zw, h) = _piezo_system(layer, c_over_s, omega, short_circuit)
    det = np.linalg.det(mat)
    # Hadamard bound of the system as the determinant's natural scale.
    scale = float(np.prod(np.abs(mat).max(axis=1)))
    if abs(det) <= 1e-12 * scale or not math.isfinite(det):
        raise OracleSingularError(f"circuit closure singular at omega={omega!r} (det={det!r})")
    sol = np.linalg.solve(mat, rhs)
    a, b, d_field = sol[0], sol[1], sol[2]
    u_exit = a * cos_q + b * sin_q
    s_exit = zw * (-a * sin_q + b * cos_q) - h * d_field
    return np.array([u_exit, s_exit])


def oracle_layer_matrix_fd(
    layer: ElasticLayer | PiezoLayer,
    c_over_s: float,
    omega: float,
    *,
    points: int = 501,
) -> np.ndarray:
    """Second-order finite-difference tier of the same boundary value problem.

    Discretization error is O((d/points)^2 * k^2); intended for ~1e-3
    agreement checks, not machine precision.
    """
    if omega <= 0.0:
        raise ValueError("oracle requires omega > 0")
    if points < 5:
        raise ValueError("need at least 5 grid points")

    piezo = isinstance(layer, PiezoLayer)
    c_mod = layer.cD if piezo else layer.c
    h = (layer.e / layer.eps) if piezo else 0.0
    d = layer.d
    n = points
    dx = d / (n - 1)
    k2 = layer.rho * omega * omega / c_mod

    size = n + 1 if piezo else n
    mat = np.zeros((size, size))
    rhs = np.zeros((size, 2))

    mat[0, 0] = 1.0
    rhs[0, 0] = 1.0
    # sigma(0) via one-sided second-order u'(0).
    mat[1, 0] = -3.0 * c_mod / (2.0 * dx)
    mat[1, 1] = 4.0 * c_mod / (2.0 * dx)
    mat[1, 2] = -1.0 * c_mod / (2.0 * dx)
    if piezo:
        mat[1, n] = -h
    rhs[1, 1] = 1.0
    for i in range(1, n - 1):
        row = i + 1
        mat[row, i - 1] = 1.0
        mat[row, i] = -2.0 + dx * dx * k2
        mat[row, i + 1] = 1.0
    if piezo:
        gamma = c_over_s
        mat[n, 0] = gamma * h
        mat[n, n - 1] = -gamma * h
        mat[n, n] = 1.0 + gamma * d / layer.eps

    sol = np.linalg.solve(mat, rhs)
    u_exit = sol[n - 1]
    du_exit = (3.0 * sol[n - 1] - 4.0 * sol[n - 2] + sol[n - 3]) / (2.0 * dx)
    s_exit = c_mod * du_exit
    if piezo:
        s_exit = s_exit - h * sol[n]
    return np.array([u_exit, s_exit])
