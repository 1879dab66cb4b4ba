"""Tests of the benchmark itself, separate from the package's test suite.

Run from the repository root (about three minutes, mostly the six short
benchmark runs):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload's own figures the readable report must name, with units.
REPORTED = {
    "crossings": ("sweep_s", "crossing_s", "coupling_s"),
    "open_dynamics": ("sim_ns_per_s", "scenario_s"),
    "small_ensemble": ("sweep_s", "cases_per_s", "case_s.p50", "case_s.p90"),
}


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload):
    lines, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    report = "\n".join(lines)
    for name in REPORTED[workload] + ("failed_ratio",):
        assert f"  {name} " in report
    assert any(line.startswith("env ") and '"blas_threads"' in line for line in lines)

    lines, result = _run(workload, 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _perturbed(scenario, metric: str, factor: float):
    expected = tuple(
        dataclasses.replace(spec, value=spec.value * factor)
        if spec.source == "regression" and spec.name == metric
        else spec
        for spec in scenario.expected
    )
    return dataclasses.replace(scenario, expected=expected)


@pytest.mark.parametrize(
    "scenario, metric, question",
    [
        ("fig2_spectrum", "location", "fig2_spectrum.find_resonance"),
        ("three_atom_one_cavity", "chi_over_2pi_mhz", "three_atom_one_cavity.effective_coupling"),
    ],
)
def test_perturbed_anchor_fails_its_question(scenario, metric, question):
    scenarios = workloads.load_scenarios()
    asked = {q.name: q for q in workloads.crossings_questions(scenarios)}[question]
    assert not run.ask(asked, workloads.Answer).answer.failures

    scenarios[scenario] = _perturbed(scenarios[scenario], metric, 1.0 + 1e-4)
    asked = {q.name: q for q in workloads.crossings_questions(scenarios)}[question]
    failures = run.ask(asked, workloads.Answer).answer.failures
    assert len(failures) == 1 and metric in failures[0]


def test_small_ensemble_is_seeded():
    def devices(seed):
        return [(c.device, c.initial.label()) for c in workloads.ensemble(seed)]

    first = devices(11)
    assert first == devices(11)
    assert first != devices(12)
    assert len(first) >= 100
    dims = sorted({c.dimension for c in workloads.ensemble(11)})
    assert dims[0] == 6 and dims[-1] == 81


def test_metric_of_a_removed_function_is_absent(monkeypatch):
    import cycqed.hilbert
    import tracing

    monkeypatch.delattr(cycqed.hilbert, "embed")
    tracer = tracing.Tracer()
    root = tracer.open("bench.pass")
    tracer.close(root)
    metrics = tracing.layer_metrics(tracer, root, len(tracer.spans))
    assert "hilbert.embed_calls" not in metrics and "hilbert.embed_s" not in metrics
    assert metrics["device.assemble_calls"] == 0


def test_counts_repeat_for_a_seed():
    import tracing

    questions = workloads.setup_small_ensemble(5)[:12] + [
        q for q in workloads.setup_crossings(5) if q.kind == "coupling"
    ]
    tracer = tracing.Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            _, root = run.run_pass(questions, workloads.Answer, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, root, len(tracer.spans))
        counts.append({
            name: metrics[name]
            for name in ("spectral.diag_calls", "device.assemble_calls",
                         "dynamics.steps", "perturbation.paths_kept")
        })
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())
