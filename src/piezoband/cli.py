"""Command-line interface: effective model, band structure, sweeps.

All outputs are plot-ready CSV/JSON data, deterministic for fixed inputs
and tool version. Exit codes: 0 success, 2 input error, 3 numerical
failure; failures, usage errors included, print a machine-readable JSON
object on stderr, and ``main`` returns the code. Only ``--help`` and
``--version`` exit from ``main``, with code 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .band_structure import (
    Branch,
    BracketError,
    InsufficientSamplesError,
    NumericalError,
    _check_flatness_tol,
    default_omega_max,
    detect_flat_bands,
    group_velocity,
    stopbands,
    trace_branches,
    DEFAULT_FLATNESS_TOL,
    DEFAULT_K_POINTS,
)
from .materials import (
    InvalidMaterialError,
    MaterialFileError,
    ShuntedCell,
    _schema_values,
    default_cell,
    load_material_file,
)
from .quasistatic import effective_model, special_capacitances
from .transfer_matrix import ResonancePoleError
from .units import UnitError, parse_quantity

# Default panel sweep (uF/m^2): the reference comparison set.
DEFAULT_SWEEP_UF = (0.0, -1.0, -5.0, -10.67, -11.0, -12.0, -13.3, -14.0, -40.0)

_INPUT_ERRORS = (
    MaterialFileError,
    InvalidMaterialError,
    UnitError,
    OSError,
    ValueError,
)
_NUMERICAL_ERRORS = (NumericalError, BracketError, ResonancePoleError, InsufficientSamplesError)


def _fmt(x: float) -> str:
    """Full double precision, locale-free."""
    return f"{x:.17g}"


def _load_cell(args) -> ShuntedCell:
    cell = load_material_file(args.material) if args.material else default_cell()
    if args.c_over_s is not None:
        cell = cell.with_c_over_s(parse_quantity(args.c_over_s, "capacitance"))
    return cell


def _resolve_omega_max(args, cell: ShuntedCell) -> float:
    if args.omega_max is None:
        return default_omega_max(cell)
    # scan_frequencies rejects a value that is not positive and finite.
    return parse_quantity(args.omega_max, "frequency")


def _write_text(path: str | Path | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    # Overwrite in place: no O_TRUNC, so a rerun never truncates its old
    # output to zero, which on ext4 waits for the disk (tens of ms a file).
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    end = 0  # a failed write leaves an empty file, never new bytes on old ones
    try:
        with open(fd, "w", encoding="utf-8", newline="", closefd=False) as fh:
            fh.write(text)
        if regular:
            end = os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        if regular:
            os.ftruncate(fd, end)
        os.close(fd)


def _bands_csv(cell: ShuntedCell, branches: list[Branch]) -> str:
    text = ["branch_index,K*T/pi [-],omega [rad/s],f [Hz],group_velocity [m/s]\n"]
    # One group_velocity call over the samples of every branch, split back.
    k = np.concatenate([np.empty(0)] + [b.k for b in branches])
    omega = np.concatenate([np.empty(0)] + [b.omega for b in branches])
    v = np.split(group_velocity(cell, k, omega), np.cumsum([len(b) for b in branches])[:-1])
    for branch, v_g in zip(branches, v):
        w = branch.omega
        columns = (branch.k * cell.period / math.pi, w, w / (2.0 * math.pi), v_g)
        # "%.17g" is _fmt's format.
        row = "%d,%%.17g,%%.17g,%%.17g,%%.17g\n" % branch.index
        text.append(row * len(branch) % tuple(np.column_stack(columns).ravel().tolist()))
    return "".join(text)


def _stopbands_csv(intervals) -> str:
    lines = ["omega_lo [rad/s],omega_hi [rad/s],quasistatic_flag [-]"]
    for s in intervals:
        flag = "true" if s.quasistatic else "false"
        lines.append(f"{_fmt(s.omega_lo)},{_fmt(s.omega_hi)},{flag}")
    return "\n".join(lines) + "\n"


# --- subcommands -----------------------------------------------------------


def _cmd_effective(args) -> int:
    cell = _load_cell(args)
    em = effective_model(cell)
    # With the sweep CSV going to stdout, keep stdout machine-parseable.
    csv_to_stdout = args.sweep is not None and (args.out is None or args.out == "-")
    out = []
    out.append(f"material: {args.material or 'builtin:glass_pzt'}")
    out.append(f"C/S [F/m^2]: {_fmt(cell.c_over_s)}")
    out.append(f"regime: {em.regime.value}")
    out.append(f"c_eff [Pa]: {_fmt(em.c_eff)}")
    out.append(f"rho_eff [kg/m^3]: {_fmt(em.rho_eff)}")
    if em.v_eff is not None:
        out.append(f"v_eff [m/s]: {_fmt(em.v_eff)}")
    else:
        out.append(f"v_eff [m/s]: undefined (regime: {em.regime.value})")
    if em.c0_over_s is not None:
        out.append(f"C0/S [F/m^2]: {_fmt(em.c0_over_s)}")
        out.append(f"Cinf/S [F/m^2]: {_fmt(em.c_inf_over_s)}")
    else:
        out.append("C0/S [F/m^2]: degenerate (e = 0)")
        out.append("Cinf/S [F/m^2]: degenerate (e = 0)")
    if not csv_to_stdout:
        print("\n".join(out))

    if args.sweep is not None:
        lo, hi, count = _parse_sweep_range(args.sweep)
        rows = _effective_sweep_rows(cell, lo, hi, count)
        text = "c_over_s [F/m^2],c_eff [Pa],regime [-]\n" + "".join(rows)
        _write_text(args.out, text)
    return 0


def _parse_sweep_range(text: str) -> tuple[float, float, int]:
    if text == "default":
        return -40e-6, 0.0, 401
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--sweep expects LO:HI:N (e.g. '-40uF/m2:0:401')")
    lo = parse_quantity(parts[0], "capacitance")
    hi = parse_quantity(parts[1], "capacitance")
    count = int(parts[2])
    if count < 2:
        raise ValueError("--sweep needs at least 2 points")
    if hi <= lo:
        raise ValueError("--sweep range must have LO < HI")
    return lo, hi, count


def _effective_sweep_rows(cell: ShuntedCell, lo: float, hi: float, count: int) -> list[str]:
    grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    values = []
    if cell.piezo.e != 0.0:
        c_inf, c_zero = special_capacitances(cell)
        specials = [s for s in (c_zero, c_inf) if lo <= s <= hi]
        # Grid points falling on a special capacitance would duplicate its
        # marked row; the special keeps precedence.
        for g in grid:
            if all(abs(g - s) > 1e-9 * max(abs(s), 1e-30) for s in specials):
                values.append(g)
        values.extend(specials)
    else:
        values = grid
    rows = []
    for gamma in sorted(values):
        em = effective_model(cell.with_c_over_s(gamma))
        rows.append(f"{_fmt(gamma)},{_fmt(em.c_eff)},{em.regime.value}\n")
    return rows


def _cmd_bands(args) -> int:
    cell = _load_cell(args)
    omega_max = _resolve_omega_max(args, cell)
    branches = trace_branches(cell, args.k_points, omega_max)
    _write_text(args.out, _bands_csv(cell, branches))
    return 0


def _cmd_stopbands(args) -> int:
    cell = _load_cell(args)
    omega_max = _resolve_omega_max(args, cell)
    _write_text(args.out, _stopbands_csv(stopbands(cell, omega_max)))
    return 0


def _cmd_sweep(args) -> int:
    _check_flatness_tol(args.flatness_tol)
    cell = _load_cell(args)
    omega_max = _resolve_omega_max(args, cell)
    if args.values is not None:
        values = [parse_quantity(v, "capacitance") for v in args.values.split(",")]
    else:
        values = [v * 1e-6 for v in DEFAULT_SWEEP_UF]

    # Every panel is solved and checked before the directory is touched, so
    # a failing panel leaves nothing behind.
    files = {}
    panels = []
    for i, gamma in enumerate(values):
        name = f"bands_{i:02d}.csv"
        panel_cell = cell.with_c_over_s(gamma)
        branches = trace_branches(panel_cell, args.k_points, omega_max)
        flat = [b.index for b in detect_flat_bands(branches, args.flatness_tol)]
        files[name] = _bands_csv(panel_cell, branches)
        panels.append({"file": name, "c_over_s": gamma, "flat_branch_indices": flat})

    reference_name = "reference_c0.csv"
    if 0.0 in values:
        # A panel at C/S = 0 is the reference cell, traced already.
        files[reference_name] = files[f"bands_{values.index(0.0):02d}.csv"]
    else:
        reference_cell = cell.with_c_over_s(0.0)
        reference_branches = trace_branches(reference_cell, args.k_points, omega_max)
        files[reference_name] = _bands_csv(reference_cell, reference_branches)

    manifest = {
        "tool": "piezoband",
        "version": __version__,
        "command": "sweep",
        "material": _schema_values(cell),
        "settings": {
            "k_points": args.k_points,
            "omega_max": omega_max,
            "flatness_tol": args.flatness_tol,
        },
        "panels": panels,
        "reference": {"file": reference_name, "c_over_s": 0.0},
    }
    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write_text(out_dir / name, text)
    return 0


# --- parser ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, k_points: bool, omega_max: bool) -> None:
    p.add_argument("--material", help="material file (default: shipped glass/PZT-5H)")
    p.add_argument("--c-over-s", dest="c_over_s",
                   help="override C/S, e.g. '-11 uF/m2' (use --c-over-s=-1.1e-5 "
                        "for bare negative numbers)")
    if k_points:
        p.add_argument("--k-points", dest="k_points", type=int, default=DEFAULT_K_POINTS,
                       help=f"K grid points over [0, pi/T] (default {DEFAULT_K_POINTS})")
    if omega_max:
        p.add_argument("--omega-max", dest="omega_max",
                       help="scan ceiling, e.g. '5 MHz' or '3e7 rad/s' "
                            "(default: 4x the open-circuit first-gap center)")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, an input error, instead of
    exiting; ``add_subparsers`` gives each subcommand's parser this class too."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="piezoband",
        description="Floquet-Bloch spectra of a 1D elastic/piezoelectric bilayer "
                    "with a capacitive shunt.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eff = sub.add_parser("effective", help="quasistatic effective model report")
    _add_common(p_eff, k_points=False, omega_max=False)
    p_eff.add_argument("--sweep", nargs="?", const="default", metavar="LO:HI:N",
                       help="emit a c_eff vs C/S CSV (default range -40uF/m2:0:401)")
    p_eff.add_argument("--out", help="CSV destination for --sweep ('-' = stdout)")
    p_eff.set_defaults(func=_cmd_effective)

    p_bands = sub.add_parser("bands", help="dispersion branches CSV")
    _add_common(p_bands, k_points=True, omega_max=True)
    p_bands.add_argument("--out", help="CSV destination ('-' = stdout)")
    p_bands.set_defaults(func=_cmd_bands)

    p_stop = sub.add_parser("stopbands", help="stopband intervals CSV")
    _add_common(p_stop, k_points=False, omega_max=True)
    p_stop.add_argument("--out", help="CSV destination ('-' = stdout)")
    p_stop.set_defaults(func=_cmd_stopbands)

    p_sweep = sub.add_parser("sweep", help="bands CSV per C/S value plus manifest")
    _add_common(p_sweep, k_points=True, omega_max=True)
    p_sweep.add_argument("--values", help="comma-separated C/S list, e.g. '0,-11uF/m2,-40uF/m2' "
                                          "(default: the shipped panel set)")
    p_sweep.add_argument("--flatness-tol", dest="flatness_tol", type=float,
                         default=DEFAULT_FLATNESS_TOL,
                         help=f"relative flat-band tolerance (default {DEFAULT_FLATNESS_TOL})")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _fail(kind: str, code: int, exc: Exception) -> int:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        return _fail("numerical", 3, exc)
    except _INPUT_ERRORS as exc:
        return _fail("input", 2, exc)


if __name__ == "__main__":
    sys.exit(main())
