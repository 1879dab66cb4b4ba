"""Config parsing, canonical emission, and round-trip stability."""

import pytest

from cycqed.config import (
    ConfigError,
    canonical_text,
    device_to_obj,
    load_device,
    parse_device,
    read_json,
    save_device,
)

from conftest import make_two_cavity_device, make_three_atom_device


def test_round_trip_bit_identical(tmp_path):
    path = tmp_path / "device.json"
    save_device(make_two_cavity_device(), path)
    raw = path.read_bytes()
    reloaded = load_device(path)
    assert canonical_text(device_to_obj(reloaded)).encode() == raw


def test_parse_matches_programmatic_device(tmp_path):
    dev = make_three_atom_device()
    path = tmp_path / "device.json"
    save_device(dev, path)
    assert load_device(path) == dev


def test_two_level_atom_serializes_null_omega_i():
    obj = device_to_obj(make_two_cavity_device())
    assert obj["atoms"][0]["omega_i"] is None
    assert parse_device(obj) == make_two_cavity_device()


def test_defaults_filled_in():
    dev = parse_device(
        {
            "atoms": [{"label": "1", "omega_e": 5.0}],
            "cavities": [{"label": "c", "omega_c": 6.0}],
            "edges": [{"atom": "1", "cavity": "c", "g_ge": 100.0}],
        }
    )
    assert dev.atoms[0].gamma_ge == 0.0
    assert dev.cavities[0].n_max == 5
    assert dev.unit_omega0 is False


def test_missing_key_diagnostic():
    with pytest.raises(ConfigError, match="omega_e"):
        parse_device({"atoms": [{"label": "1"}], "cavities": [], "edges": []})


def test_unknown_key_diagnostic():
    with pytest.raises(ConfigError, match="typo"):
        parse_device(
            {
                "atoms": [{"label": "1", "omega_e": 5.0, "typo": 1}],
                "cavities": [{"label": "c", "omega_c": 6.0}],
                "edges": [{"atom": "1", "cavity": "c", "g_ge": 1.0}],
            }
        )


def test_type_errors():
    with pytest.raises(ConfigError, match="must be a number"):
        parse_device({"atoms": [{"label": "1", "omega_e": "fast"}], "cavities": [], "edges": []})
    with pytest.raises(ConfigError, match="n_max"):
        parse_device(
            {
                "atoms": [],
                "cavities": [{"label": "c", "omega_c": 6.0, "n_max": 2.5}],
                "edges": [],
            }
        )
    with pytest.raises(ConfigError, match="unit_omega0"):
        parse_device({"atoms": [], "cavities": [{"label": "c", "omega_c": 6.0}], "edges": [], "unit_omega0": 1})


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
        parse_device(
            {
                "atoms": [{"label": "1", "omega_e": 5.0}, {"label": "2", "omega_e": 4.0}],
                "cavities": [{"label": "c", "omega_c": 6.0}],
                "edges": [{"atom": "1", "cavity": "c", "g_ge": 1.0}],
            }
        )


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "atoms": [,]\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        read_json(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_device(tmp_path / "absent.json")
