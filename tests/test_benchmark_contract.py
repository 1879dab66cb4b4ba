"""The package still provides every per-layer metric the benchmark declares.

perfbench/tracing.py leaves a metric out when the function behind it is gone
from its layer module, and a traced run must report exactly the per_layer set
of BENCHMARK.json. Renaming or deleting a traced public function breaks that
contract; this test catches it without running the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# added by perfbench/run.py around the traced passes, not by layer_metrics
RUN_METRICS = {"traced_wall_s", "trace_overhead"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_named_metric_has_a_wrapped_function(tracing):
    wrapped = tracing.Tracer().wrapped
    missing = {
        metric: needs
        for metric, (_, needs) in tracing.NAMED.items()
        if not any(name in wrapped for name in needs)
    }
    assert missing == {}


def test_traced_metrics_match_benchmark_per_layer(tracing):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(tracing.layer_metrics(tracing.Tracer(), 0, 0)) | RUN_METRICS
    assert produced == {metric["name"] for metric in declared}


def test_path_counters_read_the_path_sum(tracing):
    # a traced run counts kept and rejected paths from enumerate_paths' result
    from cycqed.device import build_space, parse_state_label, with_parameter
    from cycqed.perturbation import enumerate_paths
    from cycqed.scenarios import load_scenario

    count = tracing.COUNTERS["perturbation.enumerate_paths"]
    dev = load_scenario("three_atom_one_cavity").device
    space = build_space(dev)
    pair = [parse_state_label(dev, space, label) for label in ("0,e,g,g", "0,g,e,e")]
    assert count(enumerate_paths(dev, *pair, 4)) == {"paths_kept": 2, "paths_rejected": 0}
    parked = with_parameter(dev, "atoms.1.omega_e", 6.0)
    assert count(enumerate_paths(parked, *pair, 4))["paths_rejected"] > 0
