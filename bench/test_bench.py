"""Tests of the benchmark's own pieces: output checks and the tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from piezoband import band_structure as bs  # noqa: E402
from piezoband import cli, default_cell  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CELL = default_cell(-16.7e-6)


@pytest.fixture(scope="module")
def solve():
    scan = bs.scan_frequencies(CELL)
    return bs.trace_branches(CELL, scan=scan), bs.stopbands(CELL, scan=scan), scan.omega_max


@pytest.fixture(scope="module")
def panel_csv(tmp_path_factory):
    panel = WORKLOADS["sweep_csv"](0, tmp_path_factory.mktemp("csv")).pool[4]
    out = tmp_path_factory.mktemp("csv") / "bands.csv"
    assert cli.main(["bands", f"--c-over-s={panel['c_over_s']!r}", "--out", str(out)]) == 0
    return panel, out.read_text(encoding="utf-8")


def _modules_state():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.split(".")[0] == "piezoband"
    }


def test_independent_half_trace_matches_solver():
    omega = np.linspace(0.0, 10 * bs.default_omega_max(CELL), 5001)
    ours = checks.half_trace(CELL, omega)
    theirs = bs.half_trace_values(CELL, omega)
    # Near a pole both evaluations lose digits in proportion to |h|.
    finite = np.abs(theirs) < 1e3
    assert np.allclose(ours[finite], theirs[finite], rtol=1e-11, atol=1e-11)


def test_solver_output_passes(solve):
    branches, intervals, omega_max = solve
    problems, worst = checks.check_branches(CELL, branches)
    assert problems == [] and 0.0 < worst <= checks.RESIDUAL_TOL + checks.H_EVAL_TOL
    assert checks.check_stopbands(CELL, intervals, omega_max) == []


def test_perturbed_root_fails(solve):
    branches = list(solve[0])
    b = branches[1]
    omega = b.omega.copy()
    omega[7] *= 1.0 + 1e-7
    branches[1] = dataclasses.replace(b, omega=omega)
    problems, _ = checks.check_branches(CELL, branches)
    assert len(problems) == 1 and "branch 2: 1 roots" in problems[0]


def test_unordered_branch_fails(solve):
    b = solve[0][0]
    k = b.k.copy()
    k[[3, 4]] = k[[4, 3]]
    problems, _ = checks.check_branches(CELL, [dataclasses.replace(b, k=k)])
    assert any("not strictly increasing" in p for p in problems)


def test_moved_stopband_edge_fails(solve):
    _, intervals, omega_max = solve
    s = intervals[1]
    width = s.omega_hi - s.omega_lo
    inward = dataclasses.replace(s, omega_lo=s.omega_lo + 0.25 * width)
    outward = dataclasses.replace(s, omega_lo=s.omega_lo - 0.25 * width)
    assert any("edge" in p for p in checks.check_stopbands(CELL, [inward], omega_max))
    assert any("interior" in p for p in checks.check_stopbands(CELL, [outward], omega_max))


def test_csv_passes_and_flipped_byte_fails(panel_csv):
    panel, text = panel_csv
    cell = CELL.with_c_over_s(panel["c_over_s"])
    digest = panel["solver_columns_sha256"]
    assert checks.check_bands_csv(text, digest, cell, bs.half_trace_values) == []

    lines = text.split("\n")
    fields = lines[40].split(",")
    fields[2] = fields[2][:-1] + ("1" if fields[2][-1] != "1" else "2")
    lines[40] = ",".join(fields)
    flipped = "\n".join(lines)
    assert len(flipped) == len(text)
    problems = checks.check_bands_csv(flipped, digest, cell, bs.half_trace_values)
    assert any("digest" in p for p in problems)


def test_group_velocity_off_by_tolerance_fails(panel_csv):
    panel, text = panel_csv
    cell = CELL.with_c_over_s(panel["c_over_s"])
    lines = text.split("\n")
    fields = lines[40].split(",")
    fields[4] = repr(float(fields[4]) + 100.0)
    lines[40] = ",".join(fields)
    problems = checks.check_bands_csv(
        "\n".join(lines), panel["solver_columns_sha256"], cell, bs.half_trace_values
    )
    assert len(problems) == 1 and "1 group velocities differ" in problems[0]


def test_power_law_and_flatness_checks():
    deltas = np.logspace(-4, -2, 9)
    assert checks.check_power_law(deltas, deltas**-0.5) == []
    assert checks.check_power_law(deltas, deltas**-0.6) != []
    assert checks.check_flat_branch(np.array([1.0, 1.0005])) == []
    assert checks.check_flat_branch(np.array([1.0, 1.01])) != []


def test_patched_restores_every_attribute():
    before = _modules_state()
    tracer = tracing.Tracer()
    with tracing.patched(tracer) as saved:
        assert bs.trace_branches is not before["piezoband.band_structure"]["trace_branches"]
        assert cli.group_velocity is not before["piezoband.cli"]["group_velocity"]
        assert {m.__name__ for m, _, _ in saved} >= {
            "piezoband", "piezoband.band_structure", "piezoband.cli", "piezoband.transfer_matrix",
        }
    assert _modules_state() == before


def test_patched_restores_after_error():
    before = _modules_state()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("op failed")
    assert _modules_state() == before


def test_tracer_counts_and_self_time():
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        bs.trace_branches(CELL)  # outside an op: not recorded
        assert tracer.spans == []
        with tracer.op():
            bs.trace_branches(CELL)
    m = tracing.layer_metrics(tracer)
    trace = "band_structure.trace_branches"
    assert m[f"{trace}.calls"] == 1.0
    assert m["band_structure.scan_frequencies.calls"] == 1.0
    # The trace's own kernel calls exclude the two made by its scan.
    kernel_calls = m["transfer_matrix.monodromy_entries.calls"]
    assert m[f"{trace}.kernel_calls"] == kernel_calls - 2
    assert 0.0 < m[f"{trace}.self_s"] < m[f"{trace}.busy_s"]
    assert m[f"{trace}.max_residual"] <= checks.RESIDUAL_TOL
    assert 0.0 < m[f"{trace}.complete_ratio"] <= 1.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0 and r.stdout == ""
