"""Command-line front end: sweeps, couplings, dynamics runs, preset checks.

Exit codes are chosen once, in ``main``, by the error's type: 0 on success,
2 for a ``ConfigError`` (a rejected flag, file, label or device point), 1
for any other ``ValueError`` or ``RuntimeError`` (a failed computation) and
for a failed scenario check, 141 when the reader closes stdout. Anything
else is a bug and ends in a traceback. CSV output is deterministic: fixed
column order, 12 significant digits, newline-terminated rows, so repeated
invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, load_device
from .device import (
    DeviceSpec,
    build_space,
    get_parameter,
    parse_state_label,
    validate_dispersive,
    with_parameter,
)
from .dynamics import METHODS, evolve, extract_period, standard_observables
from .perturbation import (
    CHI_KINDS,
    PerturbationError,
    closed_form_chi,
    effective_coupling,
    enumerate_paths,
)
from .scenarios import (
    SCENARIO_NAMES,
    load_scenario,
    load_scenario_file,
    run_scenario,
)
from .spectral import find_resonance, sweep_spectrum

OUTDIR_ENV = "CYCQED_OUTDIR"
# what a shell reports for a process that SIGPIPE ended: 128 + 13
EXIT_CLOSED_STDOUT = 141


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _short(value: float, spec: str) -> str:
    """``value`` in the fixed-point ``spec`` below 1e15, past that (or infinite) as ``.3e``."""
    return format(value, spec) if abs(value) < 1e15 else f"{value:.3e}"


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:npoints, got {text!r}")
    try:
        start, stop, npoints = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    if npoints < 2:
        raise ConfigError("range needs at least 2 points")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"range bounds must be finite, got {text!r}")
    if start == stop:
        raise ConfigError("range is empty: start equals stop")
    if start > stop:
        raise ConfigError(f"range must increase: start {start} exceeds stop {stop}")
    return start, stop, npoints


def _parse_levels(text: str) -> tuple[int, int]:
    try:
        levels = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad levels {text!r}: {exc}") from exc
    if len(levels) != 2 or levels[0] == levels[1] or any(v < 0 for v in levels):
        raise ConfigError("levels must be two distinct non-negative integers")
    return levels


def _parse_overrides(pairs: list[str]) -> list[tuple[str, float]]:
    out = []
    for pair in pairs:
        path, sep, raw = pair.partition("=")
        if not sep or not path:
            raise ConfigError(f"override must be path=value, got {pair!r}")
        try:
            out.append((path, float(raw)))
        except ValueError as exc:
            raise ConfigError(f"bad override value in {pair!r}: {exc}") from exc
    return out


def _load_device(args) -> DeviceSpec:
    try:
        dev = load_device(args.device)
    except ConfigError as exc:
        raise ConfigError(f"cannot load device {args.device}: {exc}") from exc
    if getattr(args, "n_max", None) is not None:
        if args.n_max < 2:
            raise ConfigError("n-max must be at least 2")
        for cavity in dev.cavities:
            dev = with_parameter(dev, f"cavities.{cavity.label}.n_max", args.n_max)
    for path, value in _parse_overrides(getattr(args, "set", None) or []):
        try:
            dev = with_parameter(dev, path, value)
        except ValueError as exc:
            raise ConfigError(f"override {path!r}: {exc}") from exc
    for ratio in validate_dispersive(dev):
        if ratio.flagged:
            print(
                f"warning: atom {ratio.atom} / cavity {ratio.cavity} "
                f"{ratio.transition} transition has g/Delta = {ratio.ratio:.3g}, "
                "outside the dispersive regime",
                file=sys.stderr,
            )
    return dev


def _output(args, name: str) -> Path:
    """The path of output file ``name``, its directory created; resolved before any work."""
    raw = getattr(args, "outdir", None) or os.environ.get(OUTDIR_ENV) or "."
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {raw}: {exc}") from exc
    if (path / name).is_dir():
        raise ConfigError(f"cannot write {path / name}: it is a directory")
    return path / name


def _write_csv(path: Path, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _state_units(dev: DeviceSpec) -> tuple[str, str]:
    if dev.unit_omega0:
        return "cavity units", "1/cavity units"
    return "MHz", "ns"


# -- subcommands ---------------------------------------------------------------

def _check_sweep(dev: DeviceSpec, path: str, start: float, stop: float) -> None:
    """Reject a sweep path or range end that no device point can take."""
    if path.endswith(".n_max"):
        raise ConfigError("cannot sweep n_max: it changes the space dimension")
    try:
        get_parameter(dev, path)
        for value in (start, stop):
            with_parameter(dev, path, value)
    except ValueError as exc:
        raise ConfigError(f"sweep {path!r}: {exc}") from exc


def cmd_spectrum(args) -> int:
    dev = _load_device(args)
    start, stop, npoints = _parse_range(args.range)
    _check_sweep(dev, args.sweep, start, stop)
    levels = _parse_levels(args.levels) if args.levels else ()
    dim = build_space(dev).total_dim
    if any(level >= dim for level in levels):
        raise ConfigError(f"levels must be below the dimension {dim}, got {args.levels}")
    out = _output(args, "spectrum.csv")
    values = np.linspace(start, stop, npoints)
    result = sweep_spectrum(dev, args.sweep, values, levels=levels)
    selected = result.selected_energies() if levels else result.energies
    shown = levels if levels else tuple(range(selected.shape[1]))
    header = [args.sweep] + [f"level_{k}" for k in shown]
    report = find_resonance(dev, args.sweep, (start, stop), levels) if levels else None
    rows = (
        [x] + [dev.angular_to_freq(e) for e in row]
        for x, row in zip(values, selected)
    )
    _write_csv(out, header, rows)
    print(f"wrote {out} ({npoints} rows)")
    if report is not None:
        gap = dev.angular_to_freq(report.gap)
        print(
            f"crossing of levels {report.levels[0]},{report.levels[1]}: "
            f"{args.sweep} = {_fmt(report.location)}, gap = {_fmt(gap)}"
        )
        for tag, branches in (
            ("below", report.content_below),
            ("at", report.content_at),
            ("above", report.content_above),
        ):
            parts = []
            for level, content in zip(report.levels, branches):
                label, weight = max(content.items(), key=lambda kv: kv[1])
                parts.append(f"level {level}: {label} ({weight:.3f})")
            print(f"  {tag:>5}: " + "; ".join(parts))
    return 0


def cmd_coupling(args) -> int:
    dev = _load_device(args)
    if args.order % 2 != 0 or args.order < 2:
        raise ConfigError("order must be a positive even integer")
    space = build_space(dev)
    initial = parse_state_label(dev, space, args.initial)
    final = parse_state_label(dev, space, args.final)
    if initial.index == final.index:
        raise ConfigError(f"--initial and --final are the same state {initial.label()}")
    coupling = effective_coupling(dev, initial, final, args.order)
    if not coupling.path_count:
        raise PerturbationError(
            f"no order-{args.order} path couples {initial.label()} and {final.label()}"
        )
    rate_unit, time_unit = _state_units(dev)
    chi = dev.angular_to_rate(abs(coupling.lambda_eff))
    print(
        f"chi/2pi = {_short(chi, '.3f')} {rate_unit}, paths = {coupling.path_count}, "
        f"T = {_short(coupling.period, '.0f')} {time_unit}"
    )
    for k, path in enumerate(enumerate_paths(dev, initial, final, args.order).paths):
        chain = " -> ".join(state.label() for state in path.states)
        weight = dev.angular_to_rate(path.contribution)
        print(f"  path {k}: {chain}  [{weight:.6g} {rate_unit}]")
    # chi3 closed forms are fourth-order results, chi4 sixth-order ones
    prefix = {4: "chi3", 6: "chi4"}.get(args.order)
    for kind in (k for k in CHI_KINDS if prefix and k.startswith(prefix)):
        try:
            closed = closed_form_chi(dev, kind)
        except ValueError:
            continue
        closed_chi = _short(dev.angular_to_rate(abs(closed)), ".3f")
        line = f"closed form ({kind}): chi/2pi = {closed_chi} {rate_unit}"
        # a closed form that underflows to 0 leaves nothing to compare against
        if closed:
            rel = abs(abs(closed) - abs(coupling.lambda_eff)) / abs(closed)
            line += f", path sum agrees to {rel:.2e} relative"
        print(line)
        break
    return 0


def cmd_dynamics(args) -> int:
    if args.step is not None and not (math.isfinite(args.step) and args.step > 0):
        raise ConfigError(f"--step must be positive and finite, got {args.step}")
    if not (math.isfinite(args.t_final) and args.t_final >= 0):
        raise ConfigError(f"--t-final must be nonnegative and finite, got {args.t_final}")
    if args.t_final > 0 and args.samples < 2:
        raise ConfigError(
            f"--samples must be at least 2 for a positive --t-final, got {args.samples}"
        )
    dev = _load_device(args)
    space = build_space(dev)
    initial = parse_state_label(dev, space, args.initial)
    final = parse_state_label(dev, space, args.final) if args.final else None
    obs = standard_observables(dev, space, initial, final)
    out = _output(args, "dynamics.csv")
    try:
        traj = evolve(
            dev,
            initial,
            args.t_final,
            samples=args.samples,
            obs=obs,
            method=args.method,
            step=args.step,
        )
    except ConfigError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"evolution failed: {exc}") from exc
    names = list(traj.values)
    rows = (
        [t] + [traj.values[n][k] for n in names]
        for k, t in enumerate(traj.times)
    )
    _write_csv(out, ["time_ns"] + names, rows)
    print(f"wrote {out} ({len(traj.times)} rows)")
    summary = {"method": traj.method, "steps": traj.steps, **traj.metrics()}
    first_excited = next(
        (a.label for a, lv in zip(dev.atoms, initial.levels) if lv == "e"), None
    )
    if first_excited is not None and len(traj.times) > 2:
        try:
            summary["period_ns"] = extract_period(traj, f"p_e_{first_excited}")
        except ValueError:
            pass
    for warning in traj.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    chosen = args.only or list(SCENARIO_NAMES)
    unknown = [name for name in chosen if name not in SCENARIO_NAMES]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s): {', '.join(unknown)}; "
            f"bundled: {', '.join(SCENARIO_NAMES)}"
        )
    scenarios = [load_scenario(name) for name in chosen]
    for path in args.scenario_file or []:
        try:
            scenarios.append(load_scenario_file(path))
        except ConfigError as exc:
            raise ConfigError(f"cannot load scenario {path}: {exc}") from exc
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    try:
        if args.threads == 1:
            reports = [run_scenario(s) for s in scenarios]
        else:
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                reports = list(pool.map(run_scenario, scenarios))
    except KeyError as exc:  # a metric the plan does not produce; str() would quote it
        raise RuntimeError(exc.args[0]) from exc
    for report in reports:
        print("\n".join(report.lines()))
    passed = sum(r.passed for r in reports)
    print(f"passed {passed}/{len(reports)} scenarios")
    return 0 if passed == len(reports) else 1


# -- parser ----------------------------------------------------------------------

def _add_device_options(sub) -> None:
    sub.add_argument("--device", required=True, help="device config file (JSON)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a device field by dotted path, e.g. atoms.1.omega_e=7.9664",
    )
    sub.add_argument("--n-max", type=int, help="override n_max on every cavity")
    sub.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycqed",
        description="Cavity-mediated qutrit exchange: spectra, couplings, dynamics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    spectrum = subs.add_parser("spectrum", help="sweep eigenvalues over a parameter")
    _add_device_options(spectrum)
    spectrum.add_argument("--sweep", required=True, help="dotted parameter path")
    spectrum.add_argument("--range", required=True, help="start:stop:npoints")
    spectrum.add_argument("--levels", help="pair of sorted level indices, e.g. 6,7")
    spectrum.set_defaults(func=cmd_spectrum)

    coupling = subs.add_parser("coupling", help="path-sum effective coupling")
    _add_device_options(coupling)
    coupling.add_argument("--initial", required=True, help="bare state label, e.g. 0,e,g,g")
    coupling.add_argument("--final", required=True, help="bare state label, e.g. 0,g,e,e")
    coupling.add_argument("--order", type=int, required=True, help="perturbation order (even)")
    coupling.set_defaults(func=cmd_coupling)

    dynamics = subs.add_parser("dynamics", help="open-system time evolution")
    _add_device_options(dynamics)
    dynamics.add_argument("--initial", required=True, help="bare state label")
    dynamics.add_argument("--final", help="target state label (enables transfer columns)")
    dynamics.add_argument("--t-final", type=float, required=True, help="duration (ns)")
    dynamics.add_argument("--samples", type=int, default=201, help="output samples")
    dynamics.add_argument("--method", choices=METHODS, default="auto")
    dynamics.add_argument("--step", type=float, help="split-step segment length (ns)")
    dynamics.set_defaults(func=cmd_dynamics)

    check = subs.add_parser("check", help="run bundled scenario checks")
    check.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this bundled scenario (repeatable)",
    )
    check.add_argument(
        "--scenario-file",
        action="append",
        metavar="PATH",
        help="also run a scenario from an external file (repeatable)",
    )
    check.add_argument(
        "--threads", type=int, default=1, help="max scenarios checked in parallel"
    )
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop quietly, and point the
        # descriptor at devnull so the interpreter's flush at exit cannot fail
        with contextlib.suppress(AttributeError, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
