"""The package namespace matches the README's list of public names.

The list sits under "### Public names" in the README's "Python API"
section. Every name the benchmark reaches as ``cycqed.X`` must be on it.
Inside the package, no module imports another module's private names or
``scipy.integrate``, and importing the package loads no scipy solver module.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import cycqed

ROOT = Path(__file__).resolve().parent.parent


def readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    # bullets wrap onto indented continuation lines
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return {name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)}


def test_all_matches_readme():
    assert len(cycqed.__all__) == len(set(cycqed.__all__))
    assert set(cycqed.__all__) == readme_names()


def test_every_public_name_resolves():
    for name in cycqed.__all__:
        assert getattr(cycqed, name) is not None


def test_benchmark_names_are_public():
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\bcycqed\.(\w+)", path.read_text()))
    # submodules (cycqed.device, cycqed.hilbert, ...) are not namespace names
    used = {name for name in used if importlib.util.find_spec(f"cycqed.{name}") is None}
    assert used and used <= set(cycqed.__all__)


def package_nodes():
    """(file name, node) for every AST node of every package module."""
    for path in sorted((ROOT / "src" / "cycqed").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_module_imports_a_private_name():
    offenders = []
    for name, node in package_nodes():
        within = isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "cycqed"
        )
        if within:
            offenders += [
                f"{name}: {alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []


def test_no_module_imports_scipy_integrate():
    # split is the one time integrator; a second engine would most likely
    # come in as a scipy.integrate solver
    offenders = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        offenders += [
            f"{name}: {m}" for m in modules if (m + ".").startswith("scipy.integrate.")
        ]
    assert offenders == []


def test_import_leaves_scipy_solvers_unloaded():
    # scipy.optimize costs about 0.27 s to import, scipy.linalg 0.07 s and
    # scipy.sparse.linalg 0.05 s; the functions that need them import them when called
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, cycqed; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'linalg']) "
        "or m.split('.')[:3] == ['scipy', 'sparse', 'linalg']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
