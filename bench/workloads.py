"""The benchmark's workloads: inputs from a seed, one op, and its check.

Each workload builds a fixed pool of ops from the seed during set-up. The
runner repeats whole passes over the pool, in an order the seed permutes,
so every pass does the same work and counters repeat exactly. The solver
is always reached through module attributes (``bs.trace_branches``, not an
imported name) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

import checks
from piezoband import band_structure as bs
from piezoband import cli, materials, quasistatic

HERE = Path(__file__).resolve().parent


def _material_path() -> str:
    return str(resources.files("piezoband.data").joinpath("glass_pzt.mat"))


class SweepCsv:
    """One ``piezoband bands`` call through ``cli.main`` per default-sweep panel.

    The CLI's per-row group-velocity stencil dominates this path, while the
    kernel sees only small scans: the workload that analytic v_g should move
    and kernel or scan work should not.
    """

    name = "sweep_csv"

    def __init__(self, seed: int, workdir: Path):
        self.material = _material_path()
        self.cell = materials.load_material_file(self.material)
        reference = json.loads((HERE / "reference" / "sweep_digests.json").read_text())
        self.pool = reference["panels"]
        self.out = workdir / "bands.csv"

    def run(self, panel):
        argv = ["bands", "--material", self.material, f"--c-over-s={panel['c_over_s']!r}",
                "--out", str(self.out)]
        code = cli.main(argv)
        return code, self.out.read_text(encoding="utf-8") if code == 0 else ""

    def check(self, panel, output) -> list[str]:
        code, text = output
        if code != 0:
            return [f"piezoband bands exited with {code}"]
        cell = self.cell.with_c_over_s(panel["c_over_s"])
        return checks.check_bands_csv(
            text, panel["solver_columns_sha256"], cell, bs.half_trace_values
        )


class WideWindow:
    """Scan, branches and stopbands of one C/S value on the 10x and 50x windows.

    Kernel and bisection dominate here. -11 uF/m^2 is where the scan drops
    narrow gaps, so that defect stays visible in trace_branches.complete_ratio.
    """

    name = "wide_window"
    VALUES = (0.0, -11e-6, -16.7e-6)
    FACTORS = (10.0, 50.0)

    def __init__(self, seed: int, workdir: Path):
        self.cell = materials.load_material_file(_material_path())
        self.omega0 = bs.default_omega_max(self.cell)
        self.pool = list(self.VALUES)

    def run(self, c_over_s):
        cell = self.cell.with_c_over_s(c_over_s)
        solves = []
        for factor in self.FACTORS:
            scan = bs.scan_frequencies(cell, factor * self.omega0)
            branches = bs.trace_branches(cell, scan=scan)
            solves.append((scan.omega_max, branches, bs.stopbands(cell, scan=scan)))
        return solves

    def check(self, c_over_s, output) -> list[str]:
        cell = self.cell.with_c_over_s(c_over_s)
        problems = []
        for omega_max, branches, intervals in output:
            problems += checks.check_branches(cell, branches)[0]
            problems += checks.check_stopbands(cell, intervals, omega_max)
        return problems


class CapacitanceStudy:
    """The c08 origin-slope series, then the c07 flat-band search.

    About twenty small solves per op with poles near the origin, so per-call
    overhead (scan set-up, pole guards, the per-target bracket loop) shows
    here and not in wide_window. The seed jitters each of the nine C/S
    offsets inside its own quarter-decade slot.
    """

    name = "capacitance_study"
    POOL = 2
    K_POINTS = 400
    FLAT_BRACKET = (-16.5e-6, -16.2e-6)

    def __init__(self, seed: int, workdir: Path):
        self.cell = materials.load_material_file(_material_path())
        self.c_inf, _ = quasistatic.special_capacitances(self.cell)
        self.omega_max = bs.default_omega_max(self.cell) / 4.0
        rng = np.random.default_rng([seed, 1])
        centers = -4.0 + 0.25 * np.arange(9)
        self.pool = [
            abs(self.c_inf) * 10.0 ** (centers + 0.25 * (rng.random(9) - 0.5))
            for _ in range(self.POOL)
        ]
        self._flat_checked: dict[float, list[str]] = {}

    def run(self, deltas):
        slopes = []
        for delta in deltas:
            cell = self.cell.with_c_over_s(self.c_inf + float(delta))
            branch = bs.trace_branches(cell, k_points=self.K_POINTS, omega_max=self.omega_max)[0]
            slopes.append(bs.origin_slope(branch))
        c_star = bs.find_flat_capacitance(self.cell, self.FLAT_BRACKET)
        return slopes, c_star

    def check(self, deltas, output) -> list[str]:
        slopes, c_star = output
        problems = checks.check_power_law(deltas, slopes)
        if c_star not in self._flat_checked:
            branch = bs.trace_branches(self.cell.with_c_over_s(c_star))[0]
            self._flat_checked[c_star] = checks.check_flat_branch(branch.omega)
        return problems + self._flat_checked[c_star]


WORKLOADS = {w.name: w for w in (SweepCsv, WideWindow, CapacitanceStudy)}
