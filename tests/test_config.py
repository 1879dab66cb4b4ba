"""Config parsing, canonical emission, and round-trip stability."""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycqed.config import (
    ConfigError,
    canonical_text,
    from_obj,
    load_device,
    read_json,
    save_device,
    to_obj,
)
from cycqed.device import AtomSpec, CavitySpec, CouplingEdge, DeviceSpec
from cycqed.scenarios import METRIC_SOURCES, EvolvePlan, MetricSpec, Scenario, SweepPlan, load_scenario

from conftest import make_two_cavity_device, make_three_atom_device


def test_round_trip_bit_identical(tmp_path):
    path = tmp_path / "device.json"
    save_device(make_two_cavity_device(), path)
    raw = path.read_bytes()
    reloaded = load_device(path)
    assert canonical_text(to_obj(reloaded)).encode() == raw


def test_parse_matches_programmatic_device(tmp_path):
    dev = make_three_atom_device()
    path = tmp_path / "device.json"
    save_device(dev, path)
    assert load_device(path) == dev


def test_two_level_atom_serializes_null_omega_i():
    obj = to_obj(make_two_cavity_device())
    assert obj["atoms"][0]["omega_i"] is None
    assert from_obj(DeviceSpec, obj, "device") == make_two_cavity_device()


def test_defaults_filled_in():
    dev = from_obj(
        DeviceSpec,
        {
            "atoms": [{"label": "1", "omega_e": 5.0}],
            "cavities": [{"label": "c", "omega_c": 6.0}],
            "edges": [{"atom": "1", "cavity": "c", "g_ge": 100.0}],
        },
        "device",
    )
    assert dev.atoms[0].gamma_ge == 0.0
    assert dev.cavities[0].n_max == 5
    assert dev.unit_omega0 is False


def test_missing_key_diagnostic():
    with pytest.raises(ConfigError, match="omega_e"):
        from_obj(DeviceSpec, {"atoms": [{"label": "1"}], "cavities": [], "edges": []}, "device")


def test_unknown_key_diagnostic():
    with pytest.raises(ConfigError, match="typo"):
        from_obj(
            DeviceSpec,
            {
                "atoms": [{"label": "1", "omega_e": 5.0, "typo": 1}],
                "cavities": [{"label": "c", "omega_c": 6.0}],
                "edges": [{"atom": "1", "cavity": "c", "g_ge": 1.0}],
            },
            "device",
        )


def test_type_errors():
    with pytest.raises(ConfigError, match="must be a number"):
        from_obj(DeviceSpec, {"atoms": [{"label": "1", "omega_e": "fast"}], "cavities": [], "edges": []}, "device")
    with pytest.raises(ConfigError, match="n_max"):
        from_obj(
            DeviceSpec,
            {
                "atoms": [],
                "cavities": [{"label": "c", "omega_c": 6.0, "n_max": 2.5}],
                "edges": [],
            },
            "device",
        )
    with pytest.raises(ConfigError, match="unit_omega0"):
        from_obj(DeviceSpec, {"atoms": [], "cavities": [{"label": "c", "omega_c": 6.0}], "edges": [], "unit_omega0": 1}, "device")


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_rejected(tmp_path, text):
    path = tmp_path / "device.json"
    path.write_text(
        '{"atoms": [{"label": "1", "omega_e": 5.0}],'
        f' "cavities": [{{"label": "c", "omega_c": 6.0, "kappa": {text}}}],'
        ' "edges": [{"atom": "1", "cavity": "c", "g_ge": 1.0}]}'
    )
    with pytest.raises(ConfigError, match="kappa must be finite"):
        load_device(path)


def test_semantic_errors_become_config_errors():
    with pytest.raises(ConfigError, match="disconnected"):
        from_obj(
            DeviceSpec,
            {
                "atoms": [{"label": "1", "omega_e": 5.0}, {"label": "2", "omega_e": 4.0}],
                "cavities": [{"label": "c", "omega_c": 6.0}],
                "edges": [{"atom": "1", "cavity": "c", "g_ge": 1.0}],
            },
            "device",
        )


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "atoms": [,]\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        read_json(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_device(tmp_path / "absent.json")


# -- the schema as a whole ------------------------------------------------------

labels = st.text(alphabet="abc123", min_size=1, max_size=3)
positive = st.floats(1e-3, 1e3)
rates = st.one_of(st.just(0.0), st.floats(1e-4, 10.0))
numbers = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def devices(draw):
    """1-2 cavities and 1-4 two- or three-level atoms, rates zero or not.

    The first atom couples to every cavity, so the graph is connected.
    """
    n_cav, n_atoms = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    names = draw(st.lists(labels, min_size=n_cav + n_atoms, max_size=n_cav + n_atoms, unique=True))
    cavities = tuple(
        CavitySpec(label, draw(positive), draw(rates), draw(st.integers(2, 6)))
        for label in names[:n_cav]
    )
    atoms, edges = [], []
    for k, label in enumerate(names[n_cav:]):
        omega_e = draw(positive)
        if draw(st.booleans()):
            atoms.append(AtomSpec(label, omega_e, omega_e + draw(positive), *(draw(rates) for _ in range(3))))
            extra = {"g_gi": draw(rates), "g_ei": draw(rates)}
        else:
            atoms.append(AtomSpec(label, omega_e, None, draw(rates)))
            extra = {}
        targets = cavities if k == 0 else draw(
            st.lists(st.sampled_from(cavities), min_size=1, max_size=n_cav, unique=True)
        )
        edges += [CouplingEdge(label, cav.label, draw(rates), **extra) for cav in targets]
    return DeviceSpec(cavities, tuple(atoms), tuple(edges), draw(st.booleans()))


@st.composite
def metrics(draw):
    kind = draw(st.sampled_from(("value", "count", "min", "max", "bounds")))
    spec = {"name": draw(labels), "source": draw(st.sampled_from(METRIC_SOURCES))}
    if kind == "value":
        rtol = draw(st.one_of(st.just(0.0), positive))
        atol = draw(positive) if rtol == 0.0 else draw(st.one_of(st.just(0.0), positive))
        spec.update(value=draw(numbers), rtol=rtol, atol=atol)
    elif kind == "count":
        spec["count"] = draw(st.integers(0, 100))
    else:
        if kind != "max":
            spec["min_value"] = draw(numbers)
        if kind != "min":
            spec["max_value"] = draw(numbers)
    return MetricSpec(**spec)


plans = st.one_of(
    st.builds(
        EvolvePlan,
        initial=labels,
        final=labels,
        order=st.integers(2, 8),
        t_final=positive,
        samples=st.integers(2, 500),
        step=st.one_of(st.none(), positive),
        method=st.sampled_from(("split", "rk45", "auto")),
        retune=st.booleans(),
    ),
    st.builds(
        SweepPlan,
        parameter=labels,
        start=numbers,
        stop=numbers,
        points=st.integers(2, 300),
        levels=st.tuples(st.integers(0, 50), st.integers(0, 50)),
    ),
)

scenarios = st.builds(
    Scenario,
    name=labels,
    device=devices(),
    plan=plans,
    description=st.text(max_size=20),
    expected=st.lists(metrics(), max_size=4).map(tuple),
)


def _round_trip(cls, item):
    text = canonical_text(to_obj(item))
    again = from_obj(cls, json.loads(text), "item")
    assert again == item
    assert canonical_text(to_obj(again)) == text


@settings(deadline=None, max_examples=80)
@given(devices())
def test_device_round_trip(dev):
    _round_trip(DeviceSpec, dev)


@settings(deadline=None, max_examples=80)
@given(scenarios)
def test_scenario_round_trip(scenario):
    _round_trip(Scenario, scenario)


def _samples():
    evolve = load_scenario("three_atom_one_cavity")
    sweep = load_scenario("fig2_spectrum")
    dev = evolve.device
    return {
        AtomSpec: dev.atoms[0],
        CavitySpec: dev.cavities[0],
        CouplingEdge: dev.edges[0],
        DeviceSpec: dev,
        MetricSpec: evolve.expected[0],
        EvolvePlan: evolve.plan,
        SweepPlan: sweep.plan,
        Scenario: evolve,
    }


# a wrong value for each JSON type: a bool for a float, a float for an int,
# a string for a bool
WRONG = {float: True, int: 1.5, bool: "yes"}


def _typed_keys():
    for cls in _samples():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            for tp, wrong in WRONG.items():
                if tp in (typing.get_args(hints[f.name]) or (hints[f.name],)):
                    key = f.metadata.get("key", f.name)
                    yield pytest.param(cls, key, wrong, id=f"{cls.__name__}.{key}")


@pytest.mark.parametrize("cls, key, wrong", _typed_keys())
def test_wrong_type_names_the_key(cls, key, wrong):
    obj = to_obj(_samples()[cls])
    obj[key] = wrong
    with pytest.raises(ConfigError, match=rf"item: {key} must be"):
        from_obj(cls, obj, "item")
