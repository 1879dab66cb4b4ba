"""Record the window-end observables that open_dynamics checks against.

Run from the repository root, once, at the commit whose numbers become the
reference:

    python3 perfbench/record_reference.py

It overwrites perfbench/reference.json. A later change that moves these
values by more than 1e-6 fails the open_dynamics correctness gate.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    scenarios = workloads.load_scenarios()
    reference = {
        name: workloads.window_end_values(
            workloads.run_window(workloads.build_window(scenarios[name]))
        )
        for name in workloads.WINDOW_DEVICES
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
