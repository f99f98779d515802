"""Unit-cell data model: layers, shunt circuit, derived acoustic constants.

The unit cell is one elastic layer plus one electroded piezoelectric layer
whose electrodes are closed through an external capacitance. Only the
capacitance per electrode area C/S enters the physics, so the cell stores
that ratio directly, in F/m^2; C/S = 0 means open circuit and negative
values are allowed (active negative-capacitance shunt).

All stored quantities are SI. Material files may use the unit suffixes
documented in :mod:`piezoband.units`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from .units import UnitError, parse_quantity

__all__ = [
    "InvalidMaterialError",
    "MaterialFileError",
    "ElasticLayer",
    "PiezoLayer",
    "ShuntedCell",
    "parse_material_file",
    "serialize_material_file",
    "load_material_file",
    "default_cell",
    "calibrated_cell",
]


class InvalidMaterialError(ValueError):
    """A material constant violates its positivity/finiteness invariant."""


class MaterialFileError(ValueError):
    """A material file is malformed; message carries line/field context."""


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise InvalidMaterialError(f"{field}: {message}")


def _finite(name: str, value: float) -> None:
    _require(isinstance(value, (int, float)) and math.isfinite(value), name, "must be a finite number")


@dataclass(frozen=True)
class ElasticLayer:
    """Homogeneous elastic layer traversed normally by a longitudinal wave.

    Attributes:
        rho: Mass density (kg/m^3), > 0.
        c: Longitudinal stiffness c33 (Pa), > 0.
        d: Layer thickness (m), > 0.
    """

    rho: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("rho", "c", "d"):
            value = getattr(self, name)
            _finite(f"elastic.{name}", value)
            _require(value > 0.0, f"elastic.{name}", "must be > 0")

    @property
    def impedance(self) -> float:
        """Acoustic impedance sqrt(rho*c) (Pa*s/m)."""
        return math.sqrt(self.rho * self.c)

    @property
    def slowness(self) -> float:
        """Wavenumber per unit angular frequency sqrt(rho/c) (s/m)."""
        return math.sqrt(self.rho / self.c)


@dataclass(frozen=True)
class PiezoLayer:
    """Electroded piezoelectric layer (thickness-poled, longitudinal motion).

    Attributes:
        rho: Mass density (kg/m^3), > 0.
        cE: Stiffness at constant electric field c33^E (Pa), > 0.
        e: Piezoelectric stress constant e33 (C/m^2); any real, 0 degenerates
            the layer to a plain elastic one.
        eps: Clamped dielectric permittivity eps33 (F/m), > 0.
        d: Layer thickness (m), > 0.
    """

    rho: float
    cE: float
    e: float
    eps: float
    d: float

    def __post_init__(self) -> None:
        for name in ("rho", "cE", "e", "eps", "d"):
            _finite(f"piezo.{name}", getattr(self, name))
        _require(self.rho > 0.0, "piezo.rho", "must be > 0")
        _require(self.cE > 0.0, "piezo.cE", "must be > 0")
        _require(self.eps > 0.0, "piezo.eps", "must be > 0")
        _require(self.d > 0.0, "piezo.d", "must be > 0")

    @property
    def cD(self) -> float:
        """Stiffened (constant electric displacement) modulus cE + e^2/eps (Pa)."""
        return self.cE + self.e * self.e / self.eps

    @property
    def h(self) -> float:
        """Piezoelectric field factor e/eps (V*m/C)."""
        return self.e / self.eps

    @property
    def impedance(self) -> float:
        """Acoustic impedance sqrt(rho*cD) for the stiffened modulus (Pa*s/m)."""
        return math.sqrt(self.rho * self.cD)

    @property
    def slowness(self) -> float:
        """Wavenumber per unit angular frequency sqrt(rho/cD) (s/m)."""
        return math.sqrt(self.rho / self.cD)


@dataclass(frozen=True)
class ShuntedCell:
    """One period of the crystal: elastic layer, piezo layer, shunt circuit.

    Attributes:
        elastic: The elastic layer.
        piezo: The piezoelectric layer.
        c_over_s: Shunt capacitance per electrode area C/S (F/m^2). Any finite
            real value; 0 denotes open circuit, negative values an active
            negative-capacitance shunt.
    """

    elastic: ElasticLayer
    piezo: PiezoLayer
    c_over_s: float = 0.0

    def __post_init__(self) -> None:
        _finite("circuit.c_over_s", self.c_over_s)

    @property
    def period(self) -> float:
        """Spatial period d1 + d2 (m)."""
        return self.elastic.d + self.piezo.d

    def with_c_over_s(self, c_over_s: float) -> "ShuntedCell":
        """Return a copy with a different shunt capacitance per area."""
        return replace(self, c_over_s=c_over_s)


# --- material file I/O ----------------------------------------------------

# key -> unit kind; every key is required, in this (canonical) order.
_SCHEMA: dict[str, str] = {
    "elastic.rho": "density",
    "elastic.c": "stiffness",
    "elastic.d": "length",
    "piezo.rho": "density",
    "piezo.cE": "stiffness",
    "piezo.e": "piezo",
    "piezo.eps": "permittivity",
    "piezo.d": "length",
    "circuit.c_over_s": "capacitance",
}


def _schema_values(cell: ShuntedCell) -> dict[str, float]:
    """The cell's value of every ``_SCHEMA`` key, in schema order."""
    owners = {"elastic": cell.elastic, "piezo": cell.piezo, "circuit": cell}
    values = {}
    for key in _SCHEMA:
        owner, _, name = key.partition(".")
        values[key] = getattr(owners[owner], name)
    return values


def parse_material_file(text: str) -> ShuntedCell:
    """Parse a material file into a validated cell.

    The format is flat ``key = value [unit]`` lines with ``#`` comments.
    All nine schema keys are required; unknown keys are rejected.

    Raises:
        MaterialFileError: On syntax errors, unknown/duplicate/missing keys,
            or bad unit suffixes (message carries the line number).
        InvalidMaterialError: When a parsed value violates an invariant.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MaterialFileError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise MaterialFileError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise MaterialFileError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_quantity(rhs, _SCHEMA[key])
        except UnitError as exc:
            raise MaterialFileError(f"line {lineno}: {key}: {exc}") from exc

    missing = [key for key in _SCHEMA if key not in values]
    if missing:
        raise MaterialFileError(f"missing required key(s): {', '.join(missing)}")

    elastic = ElasticLayer(rho=values["elastic.rho"], c=values["elastic.c"], d=values["elastic.d"])
    piezo = PiezoLayer(
        rho=values["piezo.rho"],
        cE=values["piezo.cE"],
        e=values["piezo.e"],
        eps=values["piezo.eps"],
        d=values["piezo.d"],
    )
    return ShuntedCell(elastic=elastic, piezo=piezo, c_over_s=values["circuit.c_over_s"])


def serialize_material_file(cell: ShuntedCell) -> str:
    """Render a cell in canonical form: SI values, fixed key order, no units.

    ``parse_material_file`` of the result reproduces the cell exactly;
    serialization is idempotent (the canonical text is its own normal form).
    """
    lines = ["# piezoband material file (canonical form, SI units)"]
    lines += [f"{key} = {value!r}" for key, value in _schema_values(cell).items()]
    return "\n".join(lines) + "\n"


def load_material_file(path: str) -> ShuntedCell:
    """Read and parse a material file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_material_file(fh.read())


def _load_packaged(name: str) -> ShuntedCell:
    text = resources.files("piezoband.data").joinpath(name).read_text(encoding="utf-8")
    return parse_material_file(text)


def default_cell(c_over_s: float = 0.0) -> ShuntedCell:
    """The shipped glass / PZT-5H cell with the given shunt setting."""
    return _load_packaged("glass_pzt.mat").with_c_over_s(c_over_s)


def calibrated_cell(c_over_s: float = 0.0) -> ShuntedCell:
    """The shipped cell calibrated to the documented reference capacitances."""
    return _load_packaged("pzt_calibrated.mat").with_c_over_s(c_over_s)
