"""Benchmark of the cycqed package: one workload per run, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload crossings --seed 1 --seconds 30 --trace 0

Workloads are ``crossings``, ``open_dynamics`` and ``small_ensemble`` (see
workloads.py and README.md). The run sets up the workload, then repeats
passes over its questions for about ``--seconds`` seconds and checks every
answer. It prints a readable report, an ``env`` line, and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run makes a warm-up pass, then at least two pairs of
untraced and traced passes in alternating order, and writes its spans to
perfbench/out/ at exit.

BLAS is pinned to one thread before numpy is imported: on a 2-core machine
oversubscribed BLAS threads made the property suite 16 times slower.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("crossings", "open_dynamics", "small_ensemble")
SETUP_REPEATS = 11
TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import and set up once, print the seconds it took, and exit",
    )
    return parser.parse_args(argv)


def import_package():
    """Import cycqed from this checkout's src/ and the benchmark's own modules."""
    if not (SRC / "cycqed" / "__init__.py").is_file():
        raise SystemExit(f"error: no cycqed sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


# -- running questions ----------------------------------------------------------------

@dataclass
class Record:
    question: object
    seconds: float
    answer: object


@dataclass
class PassResult:
    wall: float
    records: list


def ask(question, answer_type) -> Record:
    """Time one question; an exception or a warning counts as a failed answer."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            answer = question.ask()
        except Exception as exc:  # a failed question is counted, not fatal
            answer = answer_type(failures=[f"raised {type(exc).__name__}: {exc}"])
        seconds = time.perf_counter() - start
    answer.failures.extend(f"warning: {w.message}" for w in caught)
    return Record(question, seconds, answer)


def run_pass(questions, answer_type, tracer=None) -> tuple[PassResult, int]:
    """One pass over every question; with a tracer, each question is a span."""
    root = tracer.open("bench.pass") if tracer else -1
    start = time.perf_counter()
    records = []
    for question in questions:
        span = tracer.open(question.name) if tracer else -1
        records.append(ask(question, answer_type))
        if tracer:
            tracer.close(span)
    wall = time.perf_counter() - start
    if tracer:
        tracer.close(root)
    return PassResult(wall, records), root


def repeat(seconds: float, run_once, minimum: int = 1) -> None:
    """Run ``minimum`` times, then again while the next run should end in time."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < minimum or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        run_once()
        walls.append(time.perf_counter() - t0)


# -- set-up ---------------------------------------------------------------------

def setup_only(workload: str, seed: int) -> None:
    start = time.perf_counter()
    workloads = import_package()
    workloads.SETUPS[workload](seed)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Import plus set-up, each in a fresh interpreter, SETUP_REPEATS times."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- reporting --------------------------------------------------------------------

def environment(workload: str, seed: int, seed_independent: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rev = None
    try:
        top_and_rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except OSError:
        top_and_rev = []
    # a checkout that is not a repository must not report an enclosing one
    if len(top_and_rev) == 2 and Path(top_and_rev[0]).resolve() == ROOT:
        rev = top_and_rev[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "cycqed").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seed_independent": seed_independent,
        "git_rev": rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def detail_metrics(workload: str, passes: list[PassResult]) -> list[tuple[str, float, str, int]]:
    """The workload's own end-to-end figures: (name, value, unit, samples)."""
    def per_pass(select):
        return statistics.median(select(p) for p in passes)

    def kind_time(kind):
        return lambda p: sum(r.seconds for r in p.records if r.question.kind == kind)

    rows = []
    n = len(passes)
    if workload == "crossings":
        rows.append(("sweep_s", per_pass(kind_time("sweep")), "s", n))
        rows.append(("crossing_s", per_pass(kind_time("crossing")), "s", n))
        rows.append(("coupling_s", per_pass(kind_time("coupling")), "s", n))
    elif workload == "open_dynamics":
        windows = [r.question.name for r in passes[0].records if r.question.kind == "window"]
        rows.append((
            f"sim_ns_per_s ({', '.join(w.rsplit('.', 1)[1] for w in windows)})",
            per_pass(lambda p: sum(r.answer.simulated_ns for r in p.records if r.question.kind == "window")
                     / kind_time("window")(p)),
            "ns/s",
            n * len(windows),
        ))
        rows.append(("scenario_s", per_pass(kind_time("scenario")), "s", n))
    else:
        cases = [r.seconds for p in passes for r in p.records]
        rows.append(("sweep_s", per_pass(lambda p: sum(r.answer.parts.get("sweep", 0.0) for r in p.records)), "s", n))
        rows.append(("cases_per_s", per_pass(lambda p: len(p.records) / p.wall), "1/s", n))
        deciles = statistics.quantiles(cases, n=10, method="inclusive")
        rows.append(("case_s.p50", deciles[4], "s", len(cases)))
        rows.append(("case_s.p90", deciles[8], "s", len(cases)))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    workloads = import_package()
    import tracing

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    setup_range = None
    if tracer:
        tracer.install()
        first = tracer.open("bench.setup")
    questions = workloads.SETUPS[args.workload](args.seed)
    if tracer:
        tracer.close(first)
        tracer.uninstall()
        setup_range = (first, len(tracer.spans))

    untraced: list[PassResult] = []
    peak_rss: list[float] = []
    traced: list[tuple[PassResult, int, int]] = []

    def untraced_pass():
        result, _ = run_pass(questions, workloads.Answer)
        untraced.append(result)
        if len(untraced) == 1:
            # the allocator's heap keeps growing over later passes, so the
            # peak of one full pass is the figure that repeats
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def traced_pass():
        tracer.install()
        try:
            result, root = run_pass(questions, workloads.Answer, tracer)
        finally:
            tracer.uninstall()
        traced.append((result, root, len(tracer.spans)))

    def traced_pair():
        # alternate the order so that drift in machine speed cancels out of
        # the overhead
        for step in (untraced_pass, traced_pass)[:: 1 if len(traced) % 2 == 0 else -1]:
            step()

    try:
        if tracer:
            # one untimed pass first, so that warm-up does not count as overhead
            warm_up, _ = run_pass(questions, workloads.Answer)
        if tracer:
            repeat(args.seconds, traced_pair, minimum=TRACED_PAIRS)
        else:
            repeat(args.seconds, untraced_pass)
    finally:
        if tracer:
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    every_pass = untraced + [t[0] for t in traced]
    records = [r for p in every_pass for r in p.records]
    if tracer:
        records += warm_up.records
    failures = [(r.question.name, msg) for r in records for msg in r.answer.failures]
    failed = sum(1 for r in records if r.answer.failures)
    seed_independent = args.workload in workloads.SEED_INDEPENDENT

    print(f"workload {args.workload}, seed {args.seed}, {len(every_pass)} passes of "
          f"{len(questions)} questions")
    if seed_independent:
        print("inputs do not depend on --seed: this workload asks about the shipped devices")
    for name, message in failures[:20]:
        print(f"FAILED {name}: {message}")

    if tracer:
        walls = [t[0].wall for t in traced]
        per_pass = [tracing.layer_metrics(tracer, root, end) for _, root, end in traced]
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_pass), "unit": tracing.UNITS[name]}
            for name in per_pass[0]
        }
        setup_layers = tracing.layer_metrics(tracer, *setup_range)
        if "config.load_s" in setup_layers:
            metrics["config.load_s"] = {"value": setup_layers["config.load_s"], "unit": "s"}
        traced_wall = statistics.median(walls)
        metrics["traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace_overhead"] = {
            "value": traced_wall - statistics.median(p.wall for p in untraced),
            "unit": "s",
        }
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
        print(f"  layer self times sum to {layer_sum:.4f} s of traced wall {traced_wall:.4f} s; "
              f"trace overhead {metrics['trace_overhead']['value']:+.4f} s")
    else:
        # every question weighs the same, however long it takes: the median
        # of each question over the passes, then their geometric mean
        question_times = [
            statistics.median(r.seconds for r in same) for same in zip(*(p.records for p in every_pass))
        ]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in every_pass), "unit": "s"},
            "question_s.geomean": {"value": statistics.geometric_mean(question_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss[0], "unit": "MB"},
        }
        counts = {"setup_s": len(setup_samples), "wall_s": len(every_pass),
                  "question_s.geomean": len(question_times), "peak_rss_mb": 1}
        for name, entry in metrics.items():
            print(f"  {name:<18} {entry['value']:.6g} {entry['unit']}  (n={counts[name]})")
        for name, value, unit, n in detail_metrics(args.workload, every_pass):
            print(f"  {name:<18} {value:.6g} {unit}  (n={n})")
        print(f"  {'failed_ratio':<18} {failed / len(records):.6g} ratio  (n={len(records)})")

    print("env " + json.dumps(environment(args.workload, args.seed, seed_independent), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
