"""Record the sweep_csv reference digests from the current source tree.

Runs the default ``piezoband sweep`` into a scratch directory and writes,
for each panel, its C/S value and the sha256 of the CSV without the
group_velocity column (which later solver changes may legitimately move).

    python3 bench/record_reference.py

Re-record only when a change is meant to alter the solver's columns, and
say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from piezoband import cli  # noqa: E402

from checks import solver_columns_digest  # noqa: E402

OUT = HERE / "reference" / "sweep_digests.json"


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="sweep-", dir=HERE.parent))
    try:
        if cli.main(["sweep", "--out", str(work)]) != 0:
            return 1
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        entries = manifest["panels"] + [manifest["reference"]]
        panels = [
            {
                "file": e["file"],
                "c_over_s": e["c_over_s"],
                "solver_columns_sha256": solver_columns_digest(
                    (work / e["file"]).read_text(encoding="utf-8")
                ),
            }
            for e in entries
        ]
    finally:
        shutil.rmtree(work)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"panels": panels}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(panels)} panels to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
