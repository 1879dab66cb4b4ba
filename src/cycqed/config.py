"""Device and scenario files: structured key/value text with nested lists.

Files are JSON with one canonical form: keys sorted, two-space indent, a
single trailing newline, floats carrying a decimal point. Files written by
:func:`canonical_text` round-trip through the parser bit-identically, and
every file shipped with the package is in canonical form.

One schema: the spec dataclasses (``DeviceSpec`` and its atoms, cavities
and edges; ``Scenario`` with its plan and metrics) are the file format.
:func:`from_obj` reads any of them from parsed JSON and :func:`to_obj`
writes it back, both driven by the fields, their resolved annotations and
their defaults. A JSON key is the field name unless the field's metadata
gives a ``key``; a class with a ``KIND`` is written and selected by a
``"kind"`` key; a class with ``OMIT_DEFAULTS`` set leaves out the fields
at their defaults. No other code restates a key or a default.

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

import dataclasses
import functools
import json
import math
import types
import typing
from pathlib import Path

from .device import DeviceSpec


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


# Cached per class: typing.get_type_hints is far slower than the parse itself.
@functools.cache
def _schema(cls) -> tuple:
    """(field, JSON key, resolved annotation) of every field of a spec class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f, f.metadata.get("key", f.name), hints[f.name]) for f in dataclasses.fields(cls)
    )


def _options(tp) -> tuple:
    """The members of a union annotation, or the annotation alone."""
    return typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)


def from_obj(cls, obj, where: str):
    """Build a spec dataclass, or one of a union of them, from parsed JSON.

    ``where`` names the object in every diagnostic. A union is resolved by
    the ``"kind"`` key against each member's ``KIND``.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a key/value mapping")
    data = dict(obj)
    kinds = {c.KIND: c for c in _options(cls) if hasattr(c, "KIND")}
    if kinds:
        if "kind" not in data:
            raise ConfigError(f"{where}: missing required key 'kind'")
        kind = str(data.pop("kind"))
        if kind not in kinds:
            raise ConfigError(f"{where}: unknown kind {kind!r}; known: {', '.join(kinds)}")
        cls = kinds[kind]
    kwargs = {}
    for f, key, tp in _schema(cls):
        if key in data:
            kwargs[f.name] = _value(tp, data.pop(key), where, key)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
    if data:
        raise ConfigError(f"{where}: unknown keys {sorted(data)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(tp, value, where: str, key: str):
    """Check one JSON value against its field's annotation and convert it."""
    options = _options(tp)
    if value is None and type(None) in options:
        return None
    first = options[0]
    if first is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: {key} must be a number")
        if not math.isfinite(value):
            raise ConfigError(f"{where}: {key} must be finite, got {value!r}")
        return float(value)
    if first is int or first is bool:
        if type(value) is not first:
            wanted = "an integer" if first is int else "true or false"
            raise ConfigError(f"{where}: {key} must be {wanted}")
        return value
    if first is str:
        return str(value)
    if dataclasses.is_dataclass(first):
        return from_obj(tp, value, f"{where}.{key}")
    # the two tuple fields: the levels pair and lists of nested specs
    items = typing.get_args(first)
    if items == (int, int):
        if not (isinstance(value, list) and len(value) == 2
                and all(type(v) is int for v in value)):
            raise ConfigError(f"{where}: {key} must be a pair of integers")
        return tuple(value)
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be a list")
    return tuple(
        from_obj(items[0], entry, f"{where}.{key}[{k}]") for k, entry in enumerate(value)
    )


def to_obj(item) -> dict:
    """Canonical JSON object of a spec dataclass; the inverse of from_obj."""
    cls = type(item)
    out = {"kind": cls.KIND} if hasattr(cls, "KIND") else {}
    sparse = getattr(cls, "OMIT_DEFAULTS", False)
    for f, key, tp in _schema(cls):
        value = getattr(item, f.name)
        if not (sparse and value == f.default):
            out[key] = _plain(tp, value)
    return out


def _plain(tp, value):
    if value is None or isinstance(value, (str, bool)):
        return value
    if dataclasses.is_dataclass(value):
        return to_obj(value)
    if isinstance(value, tuple):
        item = typing.get_args(tp)[0]
        return [_plain(item, v) for v in value]
    return float(value) if float in _options(tp) else int(value)


def load_device(path: str | Path) -> DeviceSpec:
    """Read and validate a device file."""
    return from_obj(DeviceSpec, read_json(path), str(path))


def save_device(dev: DeviceSpec, path: str | Path) -> None:
    """Write a device file in canonical form."""
    Path(path).write_text(canonical_text(to_obj(dev)))
