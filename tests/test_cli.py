"""Command-line interface: exit codes, output formats, determinism."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    make_crossing_sweep_device,
    make_four_atom_device,
    make_three_atom_device,
)
from cycqed import cli, dynamics
from cycqed.cli import main
from cycqed.config import save_device
from cycqed.scenarios import scenario_text


def run_cli(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def unusable_outdir(tmp_path, kind, csv_name):
    """An --outdir the CLI cannot write csv_name into.

    Either an existing file, or a directory in which csv_name is a directory.
    """
    if kind == "file":
        taken = tmp_path / "taken"
        taken.write_text("")
        return taken
    (tmp_path / csv_name).mkdir()
    return tmp_path


def no_work(*args, **kwargs):
    raise AssertionError("the command started its work before checking --outdir")


def assert_one_usage_error(code, out, err, start):
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {start}") and err.count("\n") == 1


@pytest.fixture(scope="module")
def device_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("devices")
    paths = {}
    for name, dev in (
        ("fig2", make_crossing_sweep_device()),
        ("three", make_three_atom_device()),
        ("four", make_four_atom_device()),
    ):
        paths[name] = root / f"{name}.json"
        save_device(dev, paths[name])
    return paths


class TestSpectrum:
    @pytest.mark.parametrize(
        "kind, start",
        [("file", "cannot use output directory"), ("csv_dir", "cannot write")],
    )
    def test_unusable_outdir_is_usage_error(
        self, device_files, tmp_path, capsys, monkeypatch, kind, start
    ):
        outdir = unusable_outdir(tmp_path, kind, "spectrum.csv")
        monkeypatch.setattr(cli, "sweep_spectrum", no_work)
        code, out, err = run_cli(
            ["spectrum", "--device", device_files["fig2"],
             "--sweep", "atoms.1.omega_e", "--range", "1.0:1.1:3", "--outdir", outdir],
            capsys,
        )
        assert_one_usage_error(code, out, err, start)

    def test_sweep_writes_csv_and_crossing(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["spectrum", "--device", device_files["fig2"],
             "--sweep", "atoms.1.omega_e", "--range", "1.00:1.10:201",
             "--levels", "6,7", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        assert err == ""
        header, data = read_csv(tmp_path / "spectrum.csv")
        assert header == ["atoms.1.omega_e", "level_6", "level_7"]
        assert data.shape == (201, 3)
        assert data[0, 0] == 1.00 and data[-1, 0] == 1.10
        assert np.all(data[:, 2] >= data[:, 1])
        match = re.search(r"atoms\.1\.omega_e = ([\d.]+), gap = ([\d.e-]+)", out)
        assert match
        assert float(match.group(1)) == pytest.approx(1.0451, abs=1e-3)
        assert float(match.group(2)) == pytest.approx(1.611e-4, rel=1e-2)
        assert "below:" in out and "above:" in out

    def test_all_levels_when_unselected(self, device_files, tmp_path, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--device", device_files["fig2"],
             "--sweep", "atoms.1.omega_e", "--range", "1.02:1.03:5",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "spectrum.csv")
        assert len(header) == 1 + 6 * 27
        assert data.shape == (5, len(header))
        assert "crossing" not in out

    def test_byte_identical_reruns(self, device_files, tmp_path, capsys):
        argv = ["spectrum", "--device", device_files["fig2"],
                "--sweep", "atoms.1.omega_e", "--range", "1.02:1.07:41",
                "--levels", "6,7"]
        run_cli(argv + ["--outdir", tmp_path / "a"], capsys)
        run_cli(argv + ["--outdir", tmp_path / "b"], capsys)
        first = (tmp_path / "a" / "spectrum.csv").read_bytes()
        second = (tmp_path / "b" / "spectrum.csv").read_bytes()
        assert first == second

    def test_empty_range_is_usage_error(self, device_files, tmp_path, capsys):
        code, _, err = run_cli(
            ["spectrum", "--device", device_files["fig2"],
             "--sweep", "atoms.1.omega_e", "--range", "1.05:1.05:10",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert "range" in err

    def test_single_point_range_is_usage_error(self, device_files, tmp_path, capsys):
        code, _, err = run_cli(
            ["spectrum", "--device", device_files["fig2"],
             "--sweep", "atoms.1.omega_e", "--range", "1.0:1.1:1",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize(
        "sweep, span, levels, message",
        [
            ("atoms.1.omega_e", "1.07:1.02:21", "6,7", "error: range must increase"),
            ("atoms.1.omega_e", "1.02:inf:21", "6,7", "error: range bounds must be finite"),
            ("atoms.9.omega_e", "1.02:1.07:21", "6,7", "error: sweep 'atoms.9.omega_e'"),
            ("atoms.1.omega_e", "0:1.07:21", "6,7", "error: sweep 'atoms.1.omega_e'"),
            ("cavities.c.n_max", "2:3:2", "6,7", "error: cannot sweep n_max"),
            ("atoms.1.omega_e", "1.02:1.07:21", "6,999", "error: levels must be below"),
        ],
    )
    def test_bad_sweep_is_usage_error(self, device_files, tmp_path, capsys, sweep, span,
                                      levels, message):
        code, out, err = run_cli(
            ["spectrum", "--device", device_files["fig2"], "--sweep", sweep,
             "--range", span, "--levels", levels, "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "spectrum.csv").exists()

    def test_no_interior_minimum_is_computation_error(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["spectrum", "--device", device_files["fig2"], "--sweep", "atoms.1.omega_e",
             "--range", "1.02:1.03:21", "--levels", "6,7", "--outdir", tmp_path],
            capsys,
        )
        assert code == 1
        assert err == "error: levels 6,7: no interior gap minimum in the bracket\n"
        # a failed run leaves no output behind
        assert out == ""
        assert not (tmp_path / "spectrum.csv").exists()

    def test_flagged_device_warns_but_runs(self, tmp_path, capsys):
        dev = make_crossing_sweep_device()
        hot = replace(dev, edges=(replace(dev.edges[0], g_ge=0.2),) + dev.edges[1:])
        path = tmp_path / "hot.json"
        save_device(hot, path)
        code, out, err = run_cli(
            ["spectrum", "--device", path, "--sweep", "atoms.1.omega_e",
             "--range", "1.02:1.07:5", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        assert "dispersive" in err
        assert "wrote" in out

    def test_missing_device_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["spectrum", "--device", tmp_path / "nope.json",
             "--sweep", "atoms.1.omega_e", "--range", "1:2:5",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert "cannot load device" in err

    def test_invalid_atom_in_device_file_is_usage_error(self, device_files, tmp_path, capsys):
        obj = json.loads(device_files["three"].read_text())
        obj["atoms"][0]["omega_e"] = -1.0
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(
            ["coupling", "--device", path,
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot load device {path}: {path}.atoms[0]: "
            "atom '1': omega_e must be positive\n"
        )


class TestCoupling:
    LINE = re.compile(
        r"chi/2pi = ([\d.]+) MHz, paths = (\d+), T = (\d+) ns"
    )

    def test_three_atom_fourth_order(self, device_files, capsys):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 0
        match = self.LINE.search(out)
        assert match
        assert float(match.group(1)) == pytest.approx(0.760, rel=0.01)
        assert int(match.group(2)) == 2
        assert int(match.group(3)) == pytest.approx(658, rel=0.01)
        assert len(re.findall(r"^  path \d+:", out, re.MULTILINE)) == 2
        assert "closed form" in out and "agrees to" in out

    def test_four_atom_sixth_order(self, device_files, capsys):
        code, out, _ = run_cli(
            ["coupling", "--device", device_files["four"],
             "--initial", "0,e,g,g,g", "--final", "0,g,e,e,e", "--order", "6"],
            capsys,
        )
        assert code == 0
        match = self.LINE.search(out)
        assert float(match.group(1)) == pytest.approx(0.238, rel=0.01)
        assert int(match.group(2)) == 6

    def test_closed_stdout_ends_quietly(self, device_files, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["coupling", "--device", str(device_files["three"]),
                     "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"])
        assert code == cli.EXIT_CLOSED_STDOUT == 141
        assert capsys.readouterr().err == ""

    def test_reader_closing_the_pipe_ends_quietly(self, device_files):
        # order 10 prints 4,668 paths, far more than a pipe buffers
        proc = subprocess.Popen(
            [sys.executable, "-m", "cycqed.cli", "coupling", "--device", str(device_files["three"]),
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "10"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"chi/2pi = ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
        assert err == b""

    @pytest.mark.parametrize("override", ["cavities.c.omega_c=1e300", "edges.1.c.g_ge=1e-320"])
    def test_zero_closed_form_prints_no_agreement(self, override, device_files, capsys):
        # the closed form underflows to 0, so no relative agreement exists
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"], "--initial", "0,e,g,g",
             "--final", "0,g,e,e", "--order", "4", "--set", override],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[-1] == "closed form (chi3_one_cavity): chi/2pi = 0.000 MHz"
        assert "Traceback" not in err

    def test_overflowing_denominator_product_prints_no_warning(self, device_files):
        # a cavity at 1e300 GHz makes every path's denominator product inf
        proc = subprocess.run(
            [sys.executable, "-m", "cycqed.cli", "coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4",
             "--set", "cavities.c.omega_c=1e300"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == (
            "chi/2pi = 0.000 MHz, paths = 2, T = inf ns\n"
            "  path 0: 0,e,g,g -> 1,g,g,g -> 0,g,g,i -> 1,g,g,e -> 0,g,e,e  [0 MHz]\n"
            "  path 1: 0,e,g,g -> 1,g,g,g -> 0,g,i,g -> 1,g,e,g -> 0,g,e,e  [0 MHz]\n"
            "closed form (chi3_one_cavity): chi/2pi = 0.000 MHz\n"
        )

    def test_huge_dispersive_ratio_warns_in_one_short_line(self, device_files, capsys):
        code, _, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4",
             "--set", "edges.1.c.g_ge=1e300"],
            capsys,
        )
        assert code == 0
        assert err.count("\n") == 1 and len(err) < 120
        assert err.startswith("warning: atom 1 / cavity c ge transition has g/Delta = ")
        assert "e+29" in err

    def test_odd_order_is_usage_error(self, device_files, capsys):
        code, _, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "3"],
            capsys,
        )
        assert code == 2
        assert "even" in err

    def test_degenerate_intermediate_reports_offender(self, device_files, capsys):
        code, _, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--set", "atoms.1.omega_e=6.0",
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 1
        assert "degeneracy floor" in err
        assert re.search(r"\d,[gei]", err)

    def test_override_changes_result(self, device_files, capsys):
        _, base, _ = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        code, shifted, _ = run_cli(
            ["coupling", "--device", device_files["three"],
             "--set", "atoms.1.omega_e=7.99",
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 0
        assert self.LINE.search(base).group(1) != self.LINE.search(shifted).group(1)

    def test_bad_override_is_usage_error(self, device_files, capsys):
        code, _, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--set", "atoms.9.omega_e=7.0",
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert "override" in err

    @pytest.mark.parametrize(
        "override", ["atoms.1.omega_e=nan", "edges.1.c.g_ge=inf", "cavities.c.n_max=inf"]
    )
    def test_non_finite_override_is_usage_error(self, device_files, capsys, override):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"], "--set", override,
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: override") and err.count("\n") == 1

    def test_non_integer_n_max_override_is_usage_error(self, device_files, capsys):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"], "--set", "cavities.c.n_max=2.7",
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: override 'cavities.c.n_max': n_max must be an integer, got 2.7\n"

    def test_n_max_below_two_is_usage_error(self, device_files, capsys):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"], "--n-max", "1",
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: n-max must be at least 2\n"

    def test_identical_states_is_usage_error(self, device_files, capsys):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,e,g,g", "--order", "4"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --initial and --final are the same state 0,e,g,g\n"

    @pytest.mark.parametrize(
        "extra, order",
        [([], "2"), (["--set", "edges.1.c.g_ge=0"], "4")],
    )
    def test_pair_with_no_path_is_computation_error(self, device_files, capsys, extra, order):
        code, out, err = run_cli(
            ["coupling", "--device", device_files["three"], *extra,
             "--initial", "0,e,g,g", "--final", "0,g,e,e", "--order", order],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: no order-{order} path couples 0,e,g,g and 0,g,e,e\n"

    def test_closed_form_only_at_its_own_order(self, device_files, capsys):
        code, out, _ = run_cli(
            ["coupling", "--device", device_files["four"],
             "--initial", "0,e,g,g,g", "--final", "0,g,e,e,e", "--order", "8"],
            capsys,
        )
        assert code == 0
        assert "paths = 288" in out
        assert "closed form" not in out

    def test_bad_state_label_is_usage_error(self, device_files, capsys):
        code, _, err = run_cli(
            ["coupling", "--device", device_files["three"],
             "--initial", "0,x,g,g", "--final", "0,g,e,e", "--order", "4"],
            capsys,
        )
        assert code == 2


class TestDynamics:
    @pytest.mark.parametrize(
        "kind, start",
        [("file", "cannot use output directory"), ("csv_dir", "cannot write")],
    )
    def test_unusable_outdir_is_usage_error(
        self, device_files, tmp_path, capsys, monkeypatch, kind, start
    ):
        outdir = unusable_outdir(tmp_path, kind, "dynamics.csv")
        monkeypatch.setattr(cli, "evolve", no_work)
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "0", "--outdir", outdir],
            capsys,
        )
        assert_one_usage_error(code, out, err, start)

    def test_rk45_method_is_usage_error(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "1", "--method", "rk45",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "invalid choice: 'rk45'" in err
        assert not (tmp_path / "dynamics.csv").exists()

    def test_step_count_past_every_float_is_one_error_line(self, device_files, tmp_path, capsys):
        # 1e300 / 1e-300 steps per sample interval overflows to inf
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"], "--initial", "0,e,g,g",
             "--t-final", "1e300", "--samples", "2", "--step", "1e-300", "--outdir", tmp_path],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: evolution failed: ") and err.count("\n") == 1
        assert "needs inf steps" in err

    def test_astronomical_step_total_is_one_error_line(
        self, device_files, tmp_path, capsys, monkeypatch
    ):
        # 1e300 ns at the default 1 ns step: finite steps per interval, a run that never ends
        def no_work(*args):
            raise AssertionError("evolve assembled the model before refusing the run")

        monkeypatch.setattr(dynamics, "Model", no_work)
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"], "--initial", "0,e,g,g",
             "--t-final", "1e300", "--outdir", tmp_path],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: evolution failed: ") and err.count("\n") == 1
        assert "split steps of one run" in err
        assert not (tmp_path / "dynamics.csv").exists()

    def test_full_run_summary_and_csv(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e",
             "--t-final", "40", "--samples", "9", "--method", "split",
             "--step", "1.7", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "dynamics.csv")
        assert header[0] == "time_ns"
        assert "p_e_1" in header and "corr_2_3" in header and "coherence" in header
        assert data.shape == (9, len(header))
        summary = json.loads(out.splitlines()[-1])
        assert summary["method"] == "split"
        assert {"trace_drift", "peak_transfer", "max_leakage", "max_photon"} <= set(summary)

    def test_transfer_oscillation_timing(self, device_files, tmp_path, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e",
             "--t-final", "1500", "--samples", "301", "--method", "split",
             "--step", "1.7", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "dynamics.csv")
        time = data[:, 0]
        p_e1 = data[:, header.index("p_e_1")]
        early = time <= 450.0
        t_min = time[early][np.argmin(p_e1[early])]
        assert 2 * t_min == pytest.approx(658, abs=33)
        summary = json.loads(out.splitlines()[-1])
        assert summary["period_ns"] == pytest.approx(642, rel=0.02)

    def test_zero_duration_single_row(self, device_files, tmp_path, capsys):
        code, out, _ = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--final", "0,g,e,e",
             "--t-final", "0", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        header, data = read_csv(tmp_path / "dynamics.csv")
        assert data.shape == (1, len(header))
        assert data[0, header.index("p_e_1")] == pytest.approx(1.0)
        assert data[0, header.index("p_initial")] == pytest.approx(1.0)
        assert data[0, header.index("n_c")] == pytest.approx(0.0)

    def test_four_atom_includes_triple_correlator(self, device_files, tmp_path, capsys):
        code, _, _ = run_cli(
            ["dynamics", "--device", device_files["four"],
             "--initial", "0,e,g,g,g", "--final", "0,g,e,e,e",
             "--t-final", "0", "--outdir", tmp_path],
            capsys,
        )
        assert code == 0
        header, _ = read_csv(tmp_path / "dynamics.csv")
        assert "corr_2_3" in header and "corr_2_3_4" in header

    def test_outdir_env_default(self, device_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CYCQED_OUTDIR", str(tmp_path / "from_env"))
        code, _, _ = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "0"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "from_env" / "dynamics.csv").exists()

    def test_byte_identical_reruns(self, device_files, tmp_path, capsys):
        argv = ["dynamics", "--device", device_files["three"],
                "--initial", "0,e,g,g", "--final", "0,g,e,e",
                "--t-final", "40", "--samples", "9", "--method", "split",
                "--step", "1.7"]
        run_cli(argv + ["--outdir", tmp_path / "a"], capsys)
        run_cli(argv + ["--outdir", tmp_path / "b"], capsys)
        first = (tmp_path / "a" / "dynamics.csv").read_bytes()
        second = (tmp_path / "b" / "dynamics.csv").read_bytes()
        assert first == second

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_bad_step_is_usage_error(self, device_files, tmp_path, capsys, step):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "40", "--method", "split",
             "--step", step, "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --step") and err.count("\n") == 1
        assert not (tmp_path / "dynamics.csv").exists()

    def test_infinite_rate_is_usage_error(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--set", "cavities.c.kappa=inf",
             "--initial", "0,e,g,g", "--t-final", "40", "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: override") and "kappa must be finite" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "dynamics.csv").exists()

    def test_negative_duration_fails(self, device_files, tmp_path, capsys):
        code, _, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "-5", "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: --t-final") and err.count("\n") == 1

    @pytest.mark.parametrize("t_final", ["nan", "inf"])
    def test_non_finite_duration_is_usage_error(self, device_files, tmp_path, capsys, t_final):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", t_final, "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --t-final must be nonnegative and finite")
        assert err.count("\n") == 1
        assert not (tmp_path / "dynamics.csv").exists()

    def test_single_sample_is_usage_error(self, device_files, tmp_path, capsys):
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--initial", "0,e,g,g", "--t-final", "40", "--samples", "1",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --samples") and err.count("\n") == 1
        assert not (tmp_path / "dynamics.csv").exists()

    def test_unstable_step_is_computation_error(self, device_files, tmp_path, capsys):
        # kappa/2pi = 1e9 MHz puts the default step far past the Heun bound
        code, out, err = run_cli(
            ["dynamics", "--device", device_files["three"],
             "--set", "cavities.c.kappa=1e9",
             "--initial", "0,e,g,g", "--t-final", "1", "--samples", "3",
             "--outdir", tmp_path],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: evolution failed: split step")
        assert "use a step below" in err and err.count("\n") == 1
        assert not (tmp_path / "dynamics.csv").exists()


class TestCheck:
    def test_single_scenario_passes(self, capsys):
        code, out, _ = run_cli(["check", "--only", "fig2_spectrum"], capsys)
        assert code == 0
        assert "scenario fig2_spectrum: PASS" in out
        assert "passed 1/1 scenarios" in out

    def test_unknown_only_is_usage_error(self, capsys):
        code, _, err = run_cli(["check", "--only", "warp_drive"], capsys)
        assert code == 2
        assert "warp_drive" in err and "fig2_spectrum" in err

    def test_corrupted_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": ["oops",}\n')
        code, _, err = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", bad],
            capsys,
        )
        assert code == 2
        assert "line 1" in err

    def test_failing_external_scenario(self, tmp_path, capsys):
        obj = json.loads(
            __import__("cycqed.scenarios", fromlist=["scenario_text"]).scenario_text(
                "fig2_spectrum"
            )
        )
        obj["name"] = "fig2_tightened"
        obj["expected"] = [
            {"metric": "gap", "source": "published", "value": 1.0, "rtol": 0.001}
        ]
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", path,
             "--threads", "2"],
            capsys,
        )
        assert code == 1
        assert "scenario fig2_tightened: FAIL" in out
        assert "passed 1/2 scenarios" in out

    @staticmethod
    def three_atom_variant(tmp_path, **plan):
        """The bundled three-atom scenario with some plan fields changed."""
        obj = json.loads(scenario_text("three_atom_one_cavity"))
        obj["plan"].update(plan)
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(obj))
        return path

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        path = self.three_atom_variant(tmp_path, method="foo")
        code, out, err = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", path], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unknown integration method 'foo'" in err

    def test_rk45_method_is_usage_error(self, tmp_path, capsys):
        path = self.three_atom_variant(tmp_path, method="rk45")
        code, out, err = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", path], capsys
        )
        assert_one_usage_error(code, out, err, f"cannot load scenario {path}: ")
        assert "unknown integration method 'rk45'; known: auto, split" in err

    @pytest.mark.parametrize(
        "plan, reason",
        [
            ({"t_final": 5, "samples": 3}, "trajectory too short for period extraction"),
            ({"t_final": 100, "samples": 11, "step": 1e6}, "no interior minimum found in 'p_e_1'"),
        ],
    )
    def test_unmeasurable_plan_is_a_failed_scenario(self, plan, reason, tmp_path, capsys):
        path = self.three_atom_variant(tmp_path, **plan)
        code, out, err = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", path], capsys
        )
        assert code == 1
        assert err == ""
        assert f"scenario three_atom_one_cavity: FAIL\n  error: {reason}" in out
        assert "scenario fig2_spectrum: PASS" in out
        assert "passed 1/2 scenarios" in out

    @staticmethod
    def fig2_variant(tmp_path, **plan):
        """The bundled fig2 scenario with some plan fields changed."""
        obj = json.loads(scenario_text("fig2_spectrum"))
        obj["plan"].update(plan)
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(obj))
        return path

    def plan_misfit(self, path, capsys) -> str:
        code, out, err = run_cli(
            ["check", "--only", "fig2_spectrum", "--scenario-file", path], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot load scenario {path}: ") and err.count("\n") == 1
        return err

    def test_invalid_initial_level_is_usage_error(self, tmp_path, capsys):
        err = self.plan_misfit(self.three_atom_variant(tmp_path, initial="0,x,g,g"), capsys)
        assert "level 'x' invalid for atom '1'" in err

    def test_unknown_sweep_atom_is_usage_error(self, tmp_path, capsys):
        err = self.plan_misfit(self.fig2_variant(tmp_path, parameter="atoms.9.omega_e"), capsys)
        assert "no atom labeled '9'" in err

    def test_sweep_level_past_dimension_is_usage_error(self, tmp_path, capsys):
        err = self.plan_misfit(self.fig2_variant(tmp_path, levels=[6, 900]), capsys)
        assert "level index 900 out of range for dimension 162" in err

    def test_swapped_sweep_range_is_usage_error(self, tmp_path, capsys):
        err = self.plan_misfit(self.fig2_variant(tmp_path, start=1.07, stop=1.02), capsys)
        assert "start 1.07 must lie below stop 1.02" in err

    def test_equal_sweep_levels_are_usage_error(self, tmp_path, capsys):
        err = self.plan_misfit(self.fig2_variant(tmp_path, levels=[6, 6]), capsys)
        assert "levels must differ, got 6 twice" in err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, threads, capsys):
        code, out, err = run_cli(["check", "--only", "fig2_spectrum", "--threads", threads], capsys)
        assert code == 2
        assert out == ""
        assert f"--threads must be at least 1, got {threads}" in err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cycqed.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "spectrum" in proc.stdout and "check" in proc.stdout


# -- fuzzed boundary -------------------------------------------------------------

def mostly(good, bad):
    """Draws from ``good`` about nine times in ten, else from ``bad``."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: good if ok else bad)


ODD_FLOATS = st.sampled_from([0.0, -1.0, 1e-320, 1e300, math.nan, math.inf, -math.inf])
LABELS = mostly(
    st.sampled_from(["0,e,g,g", "0,g,e,e", "1,g,g,g", "0,i,g,g", "0,g,e,g", "2,g,g,g"]),
    st.sampled_from(["0,e,g", "x", "9,e,g,g", "0,q,g,g"]),
)
PATHS = mostly(
    st.sampled_from([
        "cavities.c.omega_c", "cavities.c.kappa", "atoms.1.omega_e", "atoms.1.omega_i",
        "atoms.2.omega_e", "atoms.2.omega_i", "atoms.3.gamma_ge", "edges.1.c.g_ge",
        "edges.2.c.g_ei",
    ]),
    st.sampled_from(["cavities.c.n_max", "atoms.9.omega_e", "edges.1.x.g_ge", "bogus"]),
)


def numbers(low, high):
    """Mostly floats in [low, high], else zero, negative, extreme or not finite."""
    return mostly(st.floats(low, high), ODD_FLOATS)


@st.composite
def device_flags(draw):
    """--set and --n-max flags; ``@three`` stands for the three-atom device file."""
    flags = ["--device", "@three"]
    for _ in range(draw(st.integers(0, 2))):
        flags += ["--set", f"{draw(PATHS)}={draw(numbers(0.0, 10.0))}"]
    if draw(st.booleans()):
        flags += [f"--n-max={draw(mostly(st.integers(2, 3), st.integers(-1, 1)))}"]
    return flags


@st.composite
def spectrum_argv(draw):
    argv = ["spectrum", *draw(device_flags()), "--sweep", draw(PATHS)]
    start = draw(numbers(3.0, 9.0))
    stop = start + draw(numbers(0.01, 1.0))
    argv += [f"--range={start}:{stop}:{draw(mostly(st.integers(2, 4), st.integers(-1, 1)))}"]
    if draw(st.booleans()):
        argv += [f"--levels={draw(st.integers(-1, 8))},{draw(st.integers(-1, 8))}"]
    return argv


@st.composite
def coupling_argv(draw):
    order = draw(mostly(st.sampled_from([2, 4, 6, 8]), st.integers(-2, 7)))
    return [
        "coupling", *draw(device_flags()), "--initial", draw(LABELS),
        "--final", draw(LABELS), f"--order={order}",
    ]


@st.composite
def dynamics_argv(draw):
    argv = ["dynamics", *draw(device_flags()), "--initial", draw(LABELS)]
    if draw(st.booleans()):
        argv += ["--final", draw(LABELS)]
    samples = draw(mostly(st.integers(2, 5), st.integers(-1, 1)))
    if draw(st.booleans()):
        # a step no more than 100 times shorter than the sample interval,
        # so even a very long run takes at most 100 steps per interval
        t_final = draw(st.one_of(numbers(0.0, 20.0), st.just(1e300)))
        interval = t_final / max(samples - 1, 1)
        step = draw(mostly(st.floats(0.01, 2.0).map(lambda f: f * interval), ODD_FLOATS))
        argv += [f"--t-final={t_final}", f"--step={step}"]
    else:
        # at the default step, a t_final of 1e300 is refused before any work
        t_final = draw(numbers(0.0, 20.0))
        argv += [f"--t-final={t_final}"]
    if draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["auto", "split", "rk45"]))]
    return argv + [f"--samples={samples}"]


@st.composite
def check_argv(draw):
    argv = ["check", "--only", draw(mostly(st.just("fig2_spectrum"), st.just("warp_drive")))]
    argv += [f"--threads={draw(mostly(st.integers(1, 2), st.integers(-1, 0)))}"]
    if draw(st.booleans()):
        argv += ["--scenario-file", draw(st.sampled_from(["@missing", "@garbage"]))]
    return argv


NAN = re.compile(r"\bnan\b", re.IGNORECASE)


class TestFuzzedBoundary:
    """Any argv ends in exit 0, 1 or 2, without a traceback and without nan on stdout."""

    @pytest.fixture(scope="class")
    def files(self, device_files, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        (root / "garbage.json").write_text('{"name": ["oops",}\n')
        return {
            "@three": str(device_files["three"]),
            "@missing": str(root / "missing.json"),
            "@garbage": str(root / "garbage.json"),
            "@outdir": str(root),
        }

    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(spectrum_argv(), coupling_argv(), dynamics_argv(), check_argv()))
    @example(argv=["dynamics", "--device", "@three", "--initial", "0,e,g,g",
                   "--t-final", "1e300", "--samples", "2", "--step", "1e-300"])
    @example(argv=["dynamics", "--device", "@three", "--initial", "0,e,g,g",
                   "--t-final", "1e300"])
    @example(argv=["coupling", "--device", "@three", "--initial", "0,e,g,g", "--final", "0,g,e,e",
                   "--order", "4", "--set", "cavities.c.omega_c=1e300"])
    @example(argv=["coupling", "--device", "@three", "--initial", "0,e,g,g", "--final", "0,g,e,e",
                   "--order", "4", "--set", "edges.1.c.g_ge=1e-320"])
    def test_exit_code_and_output(self, files, argv):
        argv = [files.get(a, a) for a in argv]
        if argv[0] != "check":
            argv += ["--outdir", files["@outdir"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), err.getvalue()
        assert not NAN.search(out.getvalue()), out.getvalue()
