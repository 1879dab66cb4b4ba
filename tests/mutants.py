"""Mutation check: every mutant of the package must make its tests fail.

Run from anywhere as ``python tests/mutants.py``; pytest does not collect
this file. The script copies ``src/`` and ``tests/`` into a temporary
directory, runs every listed test once on the unmutated copy, then applies
one mutant at a time and runs that mutant's tests, one process at a time,
with ``PYTHONPATH`` on the copy and a fixed hypothesis seed.

Each mutant names a file under ``src/cycqed/``, an exact source text that
must occur there once, its replacement, and the test node ids that must
then fail (a parametrized id counts when any of its cases fails). The
script exits 1 when a mutant survives, when the unmutated copy fails, or
when a source text no longer matches: a refactor must update the entry,
not drop it. A survivor means a test is missing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


PERTURBATION = "tests/test_perturbation.py::"

MUTANTS = (
    Mutant(
        "path-sum denominator with the wrong sign",
        "perturbation.py",
        "hop(amplitude, elements), defects, out=",
        "hop(amplitude, elements), -defects, out=",
        (
            PERTURBATION + "TestEffectiveCoupling::test_three_atom_value",
            PERTURBATION
            + "TestRecursionAgainstWalk::test_sum_counts_rejections_and_listing_match_the_walk",
        ),
    ),
    Mutant(
        "photon cap order // 2 + 1",
        "perturbation.py",
        "allowed = photons <= order // 2\n",
        "allowed = photons <= order // 2 + 1\n",
        (PERTURBATION + "TestRecursionAgainstWalk::test_photon_cap_is_half_the_order",),
    ),
    Mutant(
        "floor state kept rather than rejected",
        "perturbation.py",
        "keep = [m & ~below for m in masks]\n",
        "keep = masks\n",
        (PERTURBATION + "TestPathEnumeration::test_floor_violation_diagnostics",),
    ),
    Mutant(
        "reachability mask one step stricter",
        "perturbation.py",
        "        near[rows[near[cols]]] = True\n        masks.append(allowed & near)\n",
        "        masks.append(allowed & near)\n        near[rows[near[cols]]] = True\n",
        (
            PERTURBATION + "TestPathEnumeration::test_floor_violation_diagnostics",
            PERTURBATION + "TestPathEnumeration::test_three_atom_paths",
        ),
    ),
    Mutant(
        "_fix_signs does nothing",
        "spectral.py",
        "    vectors *= np.where(lead < 0, -1.0, 1.0)\n",
        "    pass\n",
        ("tests/test_spectral.py::TestDiagonalize::test_phase_fixing_on_the_full_hamiltonian",),
    ),
    Mutant(
        "Heun's kick without its 1/2",
        "dynamics.py",
        "        half *= 0.5 * self.h\n",
        "        half *= self.h\n",
        (
            "tests/test_dynamics.py::TestDecayLaws::test_cavity_decay",
            "tests/test_dynamics.py::TestDecayLaws::test_qutrit_cascade",
        ),
    ),
    Mutant(
        "CROSSING_XTOL 1e3 times looser",
        "spectral.py",
        "CROSSING_XTOL = 1e-11\n",
        "CROSSING_XTOL = 1e-8\n",
        ("tests/test_spectral.py::TestFindResonance::test_zero_coupling_gap_vanishes_at_matching",),
    ),
    Mutant(
        "device._require_finite checks nothing",
        "device.py",
        "def _require_finite(spec, where: str, names: tuple[str, ...]) -> None:\n",
        "def _require_finite(spec, where: str, names: tuple[str, ...]) -> None:\n    return\n",
        ("tests/test_device.py::TestSpecValidation::test_non_finite_values_rejected",),
    ),
)


def run_tests(work: Path, ids: list[str]) -> tuple[int, set[str]]:
    """Exit code of one pytest run of ``ids`` on the copy, and the ids it reports failed."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *ids],
        cwd=work, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed


def killed(killer: str, failed: set[str]) -> bool:
    return any(f == killer or f.startswith(killer + "[") for f in failed)


def main() -> int:
    problems = []
    for m in MUTANTS:
        count = (ROOT / "src" / "cycqed" / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"stale: {m.name}: its source text occurs {count} times in {m.file}")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({k for m in MUTANTS for k in m.killers})
        code, failed = run_tests(work, every)
        if code != 0:
            print(f"the unmutated copy fails: {sorted(failed) or f'pytest exit {code}'}")
            return 1
        for m in MUTANTS:
            path = work / "src" / "cycqed" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                _, failed = run_tests(work, list(m.killers))
            finally:
                path.write_text(original)
            alive = [k for k in m.killers if not killed(k, failed)]
            verdict = f"SURVIVED: {', '.join(alive)} passed" if alive else "killed"
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if alive:
                problems.append(m.name)
    print(f"{len(MUTANTS) - len(problems)}/{len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
