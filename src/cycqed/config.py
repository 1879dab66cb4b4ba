"""Device and scenario files: structured key/value text with nested lists.

Files are JSON with one canonical form: keys sorted, two-space indent, a
single trailing newline, floats carrying a decimal point. Files written by
:func:`canonical_text` round-trip through the parser bit-identically, and
every file shipped with the package is in canonical form.

Device schema (all frequencies GHz, couplings and rates MHz, unless the
device sets ``unit_omega0`` true, in which case every number is a multiple
of the reference frequency omega0)::

    {
      "atoms":    [{"label", "omega_e", "omega_i" (null for two-level),
                    "gamma_ge", "gamma_gi", "gamma_ei"}, ...],
      "cavities": [{"label", "omega_c", "kappa", "n_max"}, ...],
      "edges":    [{"atom", "cavity", "g_ge", "g_gi", "g_ei"}, ...],
      "unit_omega0": false
    }

Scenario files embed a device under "device" plus a name, an initial state,
a run plan, and expected metrics; see the scenarios module.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .device import AtomSpec, CavitySpec, CouplingEdge, DeviceSpec


class ConfigError(ValueError):
    """Malformed configuration content; maps to the usage/parse exit code."""


def canonical_text(obj) -> str:
    """Serialize to the canonical on-disk form."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_json(path: str | Path):
    """Load a JSON file, turning parse failures into ConfigError diagnostics."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a key/value mapping")
    return obj


_REQUIRED = object()


def _take(obj: dict, key: str, where: str, default=_REQUIRED):
    if key in obj:
        return obj.pop(key)
    if default is _REQUIRED:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return default


def _no_extras(obj: dict, where: str) -> None:
    if obj:
        raise ConfigError(f"{where}: unknown keys {sorted(obj)}")


def _number(value, where: str, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: {key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
    return float(value)


def parse_device(obj, where: str = "device") -> DeviceSpec:
    """Build a DeviceSpec from parsed JSON, validating shape and keys."""
    data = dict(_require_mapping(obj, where))
    atoms = []
    for k, entry in enumerate(_take(data, "atoms", where, [])):
        sub = dict(_require_mapping(entry, f"{where}.atoms[{k}]"))
        w = f"{where}.atoms[{k}]"
        label = str(_take(sub, "label", w))
        omega_i = _take(sub, "omega_i", w, None)
        atoms.append(
            AtomSpec(
                label=label,
                omega_e=_number(_take(sub, "omega_e", w), w, "omega_e"),
                omega_i=None if omega_i is None else _number(omega_i, w, "omega_i"),
                gamma_ge=_number(_take(sub, "gamma_ge", w, 0.0), w, "gamma_ge"),
                gamma_gi=_number(_take(sub, "gamma_gi", w, 0.0), w, "gamma_gi"),
                gamma_ei=_number(_take(sub, "gamma_ei", w, 0.0), w, "gamma_ei"),
            )
        )
        _no_extras(sub, w)
    cavities = []
    for k, entry in enumerate(_take(data, "cavities", where, [])):
        sub = dict(_require_mapping(entry, f"{where}.cavities[{k}]"))
        w = f"{where}.cavities[{k}]"
        n_max = _take(sub, "n_max", w, 5)
        if isinstance(n_max, bool) or not isinstance(n_max, int):
            raise ConfigError(f"{w}: n_max must be an integer")
        cavities.append(
            CavitySpec(
                label=str(_take(sub, "label", w)),
                omega_c=_number(_take(sub, "omega_c", w), w, "omega_c"),
                kappa=_number(_take(sub, "kappa", w, 0.0), w, "kappa"),
                n_max=n_max,
            )
        )
        _no_extras(sub, w)
    edges = []
    for k, entry in enumerate(_take(data, "edges", where, [])):
        sub = dict(_require_mapping(entry, f"{where}.edges[{k}]"))
        w = f"{where}.edges[{k}]"
        edges.append(
            CouplingEdge(
                atom=str(_take(sub, "atom", w)),
                cavity=str(_take(sub, "cavity", w)),
                g_ge=_number(_take(sub, "g_ge", w, 0.0), w, "g_ge"),
                g_gi=_number(_take(sub, "g_gi", w, 0.0), w, "g_gi"),
                g_ei=_number(_take(sub, "g_ei", w, 0.0), w, "g_ei"),
            )
        )
        _no_extras(sub, w)
    unit_omega0 = _take(data, "unit_omega0", where, False)
    if not isinstance(unit_omega0, bool):
        raise ConfigError(f"{where}: unit_omega0 must be true or false")
    _no_extras(data, where)
    try:
        return DeviceSpec(tuple(cavities), tuple(atoms), tuple(edges), unit_omega0)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def device_to_obj(dev: DeviceSpec) -> dict:
    """Canonical JSON object for a device (every field written explicitly)."""
    return {
        "atoms": [
            {
                "label": a.label,
                "omega_e": float(a.omega_e),
                "omega_i": None if a.omega_i is None else float(a.omega_i),
                "gamma_ge": float(a.gamma_ge),
                "gamma_gi": float(a.gamma_gi),
                "gamma_ei": float(a.gamma_ei),
            }
            for a in dev.atoms
        ],
        "cavities": [
            {
                "label": c.label,
                "omega_c": float(c.omega_c),
                "kappa": float(c.kappa),
                "n_max": int(c.n_max),
            }
            for c in dev.cavities
        ],
        "edges": [
            {
                "atom": e.atom,
                "cavity": e.cavity,
                "g_ge": float(e.g_ge),
                "g_gi": float(e.g_gi),
                "g_ei": float(e.g_ei),
            }
            for e in dev.edges
        ],
        "unit_omega0": dev.unit_omega0,
    }


def load_device(path: str | Path) -> DeviceSpec:
    """Read and validate a device file."""
    return parse_device(read_json(path), where=str(path))


def save_device(dev: DeviceSpec, path: str | Path) -> None:
    """Write a device file in canonical form."""
    Path(path).write_text(canonical_text(device_to_obj(dev)))
