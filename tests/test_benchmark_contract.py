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
