"""Floquet-Bloch band structure of 1D piezoelectric bilayers with shunts."""

__version__ = "0.1.0"

from .materials import (
    ElasticLayer,
    PiezoLayer,
    ShuntedCell,
    InvalidMaterialError,
    MaterialFileError,
    calibrated_cell,
    default_cell,
    load_material_file,
    parse_material_file,
    serialize_material_file,
)
from .quasistatic import (
    DegenerateShuntError,
    EffectiveModel,
    Regime,
    effective_model,
    special_capacitances,
)
from .transfer_matrix import ResonancePoleError, monodromy
from .band_structure import (
    Branch,
    BracketError,
    FrequencyScan,
    InsufficientSamplesError,
    NumericalError,
    StopbandInterval,
    bloch_wavenumber,
    branch_flatness,
    default_omega_max,
    detect_flat_bands,
    find_flat_capacitance,
    group_velocity,
    half_trace_curvature,
    origin_slope,
    scan_frequencies,
    stopbands,
    trace_branches,
)

__all__ = [
    "__version__",
    # materials
    "ElasticLayer",
    "PiezoLayer",
    "ShuntedCell",
    "InvalidMaterialError",
    "MaterialFileError",
    "calibrated_cell",
    "default_cell",
    "load_material_file",
    "parse_material_file",
    "serialize_material_file",
    # quasistatic
    "DegenerateShuntError",
    "EffectiveModel",
    "Regime",
    "effective_model",
    "special_capacitances",
    # transfer matrices
    "ResonancePoleError",
    "monodromy",
    # band structure
    "Branch",
    "BracketError",
    "FrequencyScan",
    "InsufficientSamplesError",
    "NumericalError",
    "StopbandInterval",
    "bloch_wavenumber",
    "branch_flatness",
    "default_omega_max",
    "detect_flat_bands",
    "find_flat_capacitance",
    "group_velocity",
    "half_trace_curvature",
    "origin_slope",
    "scan_frequencies",
    "stopbands",
    "trace_branches",
]
