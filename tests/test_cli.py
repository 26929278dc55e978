import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import stableou
from stableou import (
    QuadraticProblem,
    RngStream,
    SimConfig,
    euler_maruyama_run,
    generate_population,
    read_run_records,
    sample_sas_scalar,
)
from stableou.bounds import BoundInputs
from stableou.cli import (
    _DEFAULTS, _HANDLERS, _build_parser, _file_record, _key_type, _output, _typed, run_cli,
)
from stableou.experiments import SweepConfig


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


def read_manifest(out_dir):
    return strict_json((out_dir / "manifest.json").read_text())


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, for a fresh interpreter."""
    package_root = str(Path(stableou.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


class TestSample:
    def test_writes_samples_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["sample", "--alpha", "1.5", "--count", "50", "--out", str(out)])
        assert code == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_1"]
        assert len(rows) == 51
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "sample"
        assert manifest["outputs"] == ["samples.csv"]
        assert manifest["config"]["alpha"] == 1.5
        assert manifest["config"]["seed"] == 0  # resolved default is recorded

    def test_same_seed_gives_identical_bytes(self, tmp_path):
        args = ["sample", "--alpha", "1.7", "--count", "200", "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_manifest_config_reproduces_the_run(self, tmp_path):
        out1 = tmp_path / "a"
        assert run_cli(["sample", "--alpha", "1.3", "--count", "100", "--seed", "4",
                        "--out", str(out1)]) == 0
        cfg = write_config(tmp_path, "replay.json", read_manifest(out1)["config"])
        out2 = tmp_path / "b"
        assert run_cli(["sample", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"alpha": 2.0, "count": 10})
        out = tmp_path / "out"
        assert run_cli(["sample", "--config", str(cfg), "--alpha", "1.5",
                        "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["alpha"] == 1.5

    def test_isotropic_kind_writes_d_columns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sample", "--kind", "isotropic", "--alpha", "1.5", "--d", "3",
                        "--count", "20", "--out", str(out)]) == 0
        with open(out / "samples.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["x_1", "x_2", "x_3"]

    def test_positive_kind_is_positive(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sample", "--kind", "positive", "--alpha", "0.7",
                        "--count", "100", "--out", str(out)]) == 0
        data = np.loadtxt(out / "samples.csv", skiprows=1)
        assert np.all(data > 0)

    @pytest.mark.parametrize("kind, unread", [
        ("sas", ["--d", "4"]),
        ("positive", ["--sigma", "7"]),
        ("positive", ["--d", "4"]),
        ("positive", ["--sigma", "7", "--d", "4"]),
    ])
    def test_settings_the_kind_does_not_read_are_rejected(self, tmp_path, capsys, kind, unread):
        out = tmp_path / "out"
        code = run_cli(["sample", "--kind", kind, "--alpha", "0.5", "--count", "5", *unread,
                        "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "does not read" in err["message"]
        assert not (out / "samples.csv").exists()

    @pytest.mark.parametrize("kind", ["sas", "positive"])
    def test_unread_settings_at_their_defaults_are_accepted(self, tmp_path, kind):
        args = ["sample", "--kind", kind, "--alpha", "0.5", "--count", "5", "--seed", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--sigma", "1", "--d", "1", "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()

    def test_missing_alpha_fails_with_usage_code(self, tmp_path, capsys):
        code = run_cli(["sample", "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "alpha" in err["message"]


class TestSimulate:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "simulate", "--alpha", "1.5", "--eta", "0.05", "--steps", "200",
            "--n", "30", "--d", "2", "--a", "2.0", "--noise-scale", "0.1",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "theta_1", "theta_2"]
        assert [row[0] for row in rows[1:]] == [str(k) for k in range(201)]
        # The written values read back exactly as the run's iterates on the same data and forks.
        stream = RngStream(5)
        problem = QuadraticProblem(generate_population(2.0, 2, 30, stream.fork(0)))
        sim = SimConfig(eta=0.05, steps=200, alpha=1.5, noise_scale=0.1)
        expected = euler_maruyama_run(problem, sim, stream=stream.fork(1)).iterates
        recovered = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(recovered, expected)
        assert read_manifest(out)["outputs"] == ["trajectory.csv"]

    def test_data_csv_input(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        gen = np.random.default_rng(1)
        with open(data_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1", "x_2"])
            for row in gen.uniform(-1, 1, (20, 2)):
                writer.writerow([repr(float(v)) for v in row])
        cfg = write_config(tmp_path, "c.json", {
            "alpha": 2.0, "eta": 0.05, "steps": 100, "noise_scale": 0.1,
            "data_csv": str(data_csv),
        })
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("unread", [
        ["--n", "999"], ["--d", "7"], ["--a", "3"], ["--n", "999", "--d", "7", "--a", "3"],
    ])
    def test_population_settings_with_data_csv_are_rejected(self, tmp_path, capsys, unread):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x_1,x_2\n1,2\n3,4\n")
        out = tmp_path / "out"
        code = run_cli(["simulate", "--alpha", "1.5", "--data-csv", str(data_csv), *unread,
                        "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"].startswith("simulate with data_csv does not read n, d, a; got ")
        assert not (out / "trajectory.csv").exists()

    def test_non_finite_data_fails_before_any_output(self, tmp_path, capsys):
        for text, named in (("x_1\n1\nnan\n3\n", "row 3 is not finite: nan"),
                            ("1,2\n3,inf\n", "row 2 is not finite: 3,inf"),
                            ("x_1\n\n1\n\nnan\n", "row 5 is not finite: nan")):
            data_csv = tmp_path / "data.csv"
            data_csv.write_text(text)
            out = tmp_path / "out"
            err = run_failing(["simulate", "--alpha", "1.5", "--data-csv", str(data_csv),
                               "--out", str(out)], capsys)
            assert err == {"error": "ParameterError", "message": f"{data_csv} {named}"}
            assert not out.exists()

    def test_diverged_run_prints_a_finite_norm(self, tmp_path, capsys):
        # The last kept iterate has coordinates near 1e300, whose squares overflow.
        for seed in range(4):
            code = run_cli(["simulate", "--alpha", "1", "--eta", "0.25", "--noise-scale", "1e298",
                            "--n", "40", "--d", "4", "--seed", str(seed),
                            "--out", str(tmp_path / "out")])
            assert code == 0
            stdout = capsys.readouterr().out
            assert stdout.startswith("diverged: ")
            assert 1e299 < float(stdout.split()[-1]) < math.inf

    def test_shock_scale_beyond_float_range_is_divergence(self, tmp_path, capsys):
        # eta^(1/alpha) = 3^1000 raised OverflowError as a Python float.
        code = run_cli(["simulate", "--alpha", "0.001", "--eta", "3", "--n", "10", "--d", "1",
                        "--a", "0.1", "--steps", "10", "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().out.startswith("diverged: 0 steps, ")

    def test_unstable_step_fails(self, tmp_path, capsys):
        argv = ["simulate", "--alpha", "2.0", "--eta", "50.0", "--steps", "50",
                "--n", "30", "--d", "2", "--out", str(tmp_path / "out")]
        err = run_failing(argv, capsys)
        assert err["error"] == "ParameterError"
        assert err["message"].endswith(">= 2 diverges without noise")
        # There is no override.
        cfg = write_config(tmp_path, "c.json", {"allow_unstable": True})
        err = run_failing([*argv, "--config", str(cfg)], capsys)
        assert err["message"] == "unknown config keys for 'simulate': allow_unstable"
        assert not (tmp_path / "out").exists()

    def test_burn_in_key_is_rejected(self, tmp_path, capsys):
        # The trajectory records every step from 0, so a burn-in key would change nothing.
        cfg = write_config(tmp_path, "c.json", {
            "alpha": 1.5, "steps": 50, "n": 30, "burn_in": 10,
        })
        code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"] == "unknown config keys for 'simulate': burn_in"


class TestBounds:
    def test_stable_surrogate_value(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "bounds", "--p", "1.0", "--alpha", "2.0", "--sigma2", "1.0",
            "--n", "1000", "--R", "1.0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["regime"] == "StableSurrogate"
        assert report["value"] == pytest.approx(3.9894228040143271e-4, rel=1e-12)
        assert "probability" in report["caveat"]

    def test_unstable_reports_null_value(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["bounds", "--p", "1.8", "--alpha", "1.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["regime"] == "Unstable"
        assert report["value"] is None

    @pytest.mark.parametrize("dimension, unread", [
        ("1d", ["--sigma", "7", "--sigma-min", "5"]),
        ("dd", ["--sigma2", "9"]),
    ])
    def test_inputs_the_bound_does_not_read_are_rejected(self, tmp_path, capsys,
                                                         dimension, unread):
        out = tmp_path / "out"
        code = run_cli(["bounds", "--dimension", dimension, "--p", "1", "--alpha", "1.5",
                        *unread, "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "does not read" in err["message"]
        assert not (out / "bounds.json").exists()

    def test_config_with_the_removed_switch_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"dimension": "dd", "general_sigma": True})
        assert run_cli(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "unknown config keys for 'bounds': general_sigma"

    @pytest.mark.parametrize("command", ["bounds", "threshold"])
    @pytest.mark.parametrize("key", ["lambda_min", "lambda_max"])
    def test_config_with_a_spectrum_key_is_rejected(self, tmp_path, capsys, command, key):
        cfg = write_config(tmp_path, "c.json", {"p": 1.0, key: 1.0})
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == f"unknown config keys for '{command}': {key}"
        flag = "--" + key.replace("_", "-")
        assert run_cli([command, "--p", "1", flag, "1", "--out", str(tmp_path / "o")]) == 1

    def test_bad_delta_fails(self, tmp_path, capsys):
        code = run_cli(["bounds", "--p", "1.0", "--alpha", "2.0", "--delta1", "1.5",
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"


class TestThreshold:
    def test_forward_direction(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["threshold", "--p", "1.0", "--alpha0", "1.5", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["variance_threshold"] == pytest.approx(306.91433572187552, rel=1e-12)

    def test_inverse_direction(self, tmp_path):
        out = tmp_path / "out"
        level = 306.91433572187552
        code = run_cli(["threshold", "--p", "1.0", "--sigma-level", repr(level),
                        "--out", str(out)])
        assert code == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["no_threshold"] is False
        assert report["threshold_alpha0"] == pytest.approx(1.5, abs=1e-6)

    def test_unreachable_level_reports_no_threshold(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["threshold", "--p", "1.0", "--sigma-level", "1e-12",
                        "--out", str(out)])
        assert code == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["no_threshold"] is True
        assert report["threshold_alpha0"] is None

    def test_neither_direction_fails(self, tmp_path):
        assert run_cli(["threshold", "--p", "1.0", "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("alpha0, infinite", [(1.001, True), (1.5, False)])
    def test_unbounded_threshold_is_null_with_its_flag(self, tmp_path, capsys, alpha0, infinite):
        # Near alpha0 = p the threshold is +inf, which was written as Infinity: not JSON.
        out = tmp_path / "out"
        assert run_cli(["threshold", "--p", "1", "--alpha0", str(alpha0), "--out", str(out)]) == 0
        report = strict_json((out / "threshold.json").read_text())
        assert strict_json(capsys.readouterr().out) == report
        assert report["variance_threshold_infinite"] is infinite
        assert (report["variance_threshold"] is None) is infinite


class TestNonFiniteReports:
    @pytest.mark.parametrize("flags", [
        ["--R", "1e100", "--sigma2", "1e-300", "--n", "1"],  # was "Infinity"
        ["--dimension", "dd", "--R", "1e300", "--sigma-min", "1e-300", "--n", "1"],
        ["--R", "1e200"],  # was a traceback
    ], ids=["inf-value", "inf-value-dd", "overflow"])
    def test_bound_beyond_float_range_fails_before_any_output(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        err = run_failing(["bounds", "--p", "1", "--alpha", "1.5", *flags, "--out", str(out)],
                          capsys)
        assert err["error"] == "OverflowError"
        assert "report key 'value'" in err["message"] and "'R': 1e+" in err["message"]
        assert not out.exists()


SWEEP_CFG = {
    "alpha_grid": [1.5, 2.0],
    "a_grid": [2.0],
    "d_grid": [2],
    "n": 40,
    "population_size": 400,
    "replications": 2,
    "eta": 0.1,
    "steps": 120,
    "noise_scale": 0.1,
    "master_seed": 3,
}


class TestSweep:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SWEEP_CFG)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_run_records(out / "records.csv")
        assert len(records) == 4
        agg = (out / "aggregate.csv").read_text().splitlines()
        assert agg[0] == "alpha,a,d,median,q25,q75,n_diverged"
        assert len(agg) == 3
        svg = (out / "sweep_a2_d2.svg").read_text()
        assert svg.startswith("<svg")
        manifest = read_manifest(out)
        assert manifest["outputs"] == ["aggregate.csv", "records.csv", "sweep_a2_d2.svg"]

    def test_svg_can_be_disabled(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {**SWEEP_CFG, "svg": False})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "sweep_a2_d2.svg").exists()

    def test_manifest_config_replays_byte_identically(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", SWEEP_CFG)
        out1 = tmp_path / "a"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        replay = write_config(tmp_path, "replay.json", read_manifest(out1)["config"])
        out2 = tmp_path / "b"
        assert run_cli(["sweep", "--config", str(replay), "--out", str(out2)]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_integral_floats_are_coerced(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {**SWEEP_CFG, "n": 40.0, "replications": 2.0})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_run_records(out / "records.csv")) == 4

    def test_non_integral_d_grid_entry_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {**SWEEP_CFG, "d_grid": [2.7]})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "d_grid" in err["message"]
        assert not (out / "manifest.json").exists()

    def test_grid_entry_of_the_wrong_type_fails(self, tmp_path, capsys):
        # It ran alpha = 1, a = 1.5 and d = 2.
        cfg = write_config(tmp_path, "s.json",
                           {"alpha_grid": [True], "a_grid": ["1.5"], "d_grid": ["2"]})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"].startswith("alpha_grid entries must be finite numbers")
        assert not (out / "manifest.json").exists()

    def test_shock_scale_beyond_float_range_is_a_diverged_record(self, tmp_path, capsys):
        # eta^(1/alpha) = 3^1000 raised OverflowError as a Python float.
        cfg = write_config(tmp_path, "s.json", {
            "alpha_grid": [0.001], "a_grid": [0.1], "d_grid": [1], "n": 10,
            "population_size": 20, "replications": 1, "eta": 3.0, "steps": 10,
        })
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote 1 records (1 diverged)" in capsys.readouterr().out
        [record] = read_run_records(out / "records.csv")
        assert record.diverged and math.isnan(record.gen_error)

    def test_group_with_no_finite_median_skips_its_plot(self, tmp_path, capsys):
        # At alpha = 0.01 every replication overflows, so a=2, d=1 has no curve to draw.
        cfg = write_config(tmp_path, "s.json", {
            "alpha_grid": [0.01], "a_grid": [2.0], "d_grid": [1], "n": 40,
            "population_size": 400, "replications": 2, "steps": 3000,
            "noise_scale": 1.0, "p": 2.0, "master_seed": 1,
        })
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "skipped sweep_a2_d1.svg" in stdout
        assert "wrote 2 records (2 diverged) and 1 aggregate rows" in stdout
        assert not (out / "sweep_a2_d1.svg").exists()
        assert read_manifest(out)["outputs"] == ["aggregate.csv", "records.csv"]

    def test_a_run_that_fails_part_way_removes_an_older_manifest(self, tmp_path, capsys):
        # It left the seed-1 manifest beside the seed-2 records.csv.
        cfg = write_config(tmp_path, "s.json", SWEEP_CFG)
        out, fresh = tmp_path / "out", tmp_path / "fresh"

        def sweep(seed, out_dir):
            return run_cli(["sweep", "--config", str(cfg), "--master-seed", seed,
                            "--out", str(out_dir)])

        assert sweep("1", out) == 0
        svg = out / "sweep_a2_d2.svg"
        svg.unlink()
        svg.mkdir()  # so the seed-2 run fails at its plot, after records.csv
        capsys.readouterr()
        assert sweep("2", out) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
        assert not (out / "manifest.json").exists()
        assert sweep("2", fresh) == 0
        assert (out / "records.csv").read_bytes() == (fresh / "records.csv").read_bytes()

    def test_an_input_refused_before_any_write_leaves_an_older_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "s.json", SWEEP_CFG)
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        bad = write_config(tmp_path, "bad.json", {**SWEEP_CFG, "alpha_grid": [True]})
        run_failing(["sweep", "--config", str(bad), "--out", str(out)], capsys)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_one_alpha_and_one_replication_plot_one_point(self, tmp_path):
        # Both axes then have zero span, and each is widened to a unit one.
        cfg = write_config(tmp_path, "s.json",
                           {**SWEEP_CFG, "alpha_grid": [1.5], "replications": 1})
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        svg = (out / "sweep_a2_d2.svg").read_text()
        assert '<polyline points="70.00,335.91"' in svg
        assert ">1.5</text>" in svg and ">2.5</text>" in svg

    def test_benchmark_sweep_writes_its_pinned_records(self, tmp_path):
        # The benchmark's sweep config at one of its seeds. The Gram matrix is
        # a BLAS product whose bits depend on the thread count, so one thread
        # is pinned. A change to what a sweep computes must re-pin this hash.
        cfg = write_config(tmp_path, "s.json", {
            "alpha_grid": [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0],
            "a_grid": [1.0, 8.0],
            "d_grid": [100],
            "n": 1000,
            "population_size": 100_000,
            "replications": 2,
            "p": 1.0,
            "eta": 0.1,
            "steps": 3000,
            "noise_scale": 0.1,
        })
        out = tmp_path / "out"
        command = [sys.executable, "-m", "stableou", "sweep", "--config", str(cfg),
                   "--master-seed", "4720721261117928062", "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True,
                              env={**package_env(), "OPENBLAS_NUM_THREADS": "1"}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
        assert digest == "dee5bc54e033c16740196be02f248b8ddd5f016dcec8315cbf813dd8fac269b3"

    def test_missing_grids_fail(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"alpha_grid": [1.5]})
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_a_replication_count_beyond_memory_fails_at_once(self, tmp_path):
        # Each seed is derived as its stream opens; a list of 10^18 made up front never ends.
        cfg = write_config(tmp_path, "s.json", {"alpha_grid": [1.5], "a_grid": [1.0],
                                                "d_grid": [2], "replications": 1e18})
        out = tmp_path / "out"
        command = [sys.executable, "-m", "stableou", "sweep", "--config", str(cfg),
                   "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True, env=package_env(),
                              timeout=20)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and set(json.loads(proc.stderr)) == {"error", "message"}
        assert not out.exists()


class TestEstimateTail:
    def test_constant_data_gives_alpha_one(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        with open(data_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1"])
            for _ in range(300):
                writer.writerow(["3.0"])
        cfg = write_config(tmp_path, "t.json", {
            "input_csv": str(data_csv), "K1": 10, "K2": 20,
        })
        out = tmp_path / "out"
        assert run_cli(["estimate-tail", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "tail.json").read_text())
        assert report["alpha_hat"] == 1.0
        assert report["sample_count_used"] == 200

    def test_flags_alone_suffice(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        gen = np.random.default_rng(7)
        with open(data_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_1"])
            for v in gen.standard_normal(400):
                writer.writerow([repr(float(v))])
        out = tmp_path / "out"
        code = run_cli(["estimate-tail", "--input-csv", str(data_csv),
                        "--k1", "20", "--k2", "20", "--median-center", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "tail.json").read_text())
        assert math.isfinite(report["alpha_hat"])

    def test_missing_input_fails(self, tmp_path):
        assert run_cli(["estimate-tail", "--k1", "5", "--k2", "5",
                        "--out", str(tmp_path / "o")]) == 1

    def test_non_finite_data_fails_before_any_output(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x_1\n" + "1.5\n" * 5 + "-inf\n" + "2.5\n" * 20)
        out = tmp_path / "out"
        err = run_failing(["estimate-tail", "--input-csv", str(data_csv), "--k1", "5",
                           "--k2", "5", "--out", str(out)], capsys)
        assert err == {"error": "ParameterError",
                       "message": f"{data_csv} row 7 is not finite: -inf"}
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("", "contains no data"), ("x_1,x_2\n", "contains a header but no rows"),
    ], ids=["empty", "header-only"])
    def test_csv_without_rows_fails_before_any_output(self, text, message, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(text)
        out = tmp_path / "out"
        err = run_failing(["estimate-tail", "--input-csv", str(data_csv), "--k1", "5",
                           "--k2", "5", "--out", str(out)], capsys)
        assert err == {"error": "ShapeError", "message": f"{data_csv} {message}"}
        assert not out.exists()


class TestVerifyCharfn:
    def test_quadrature_mode_passes(self, tmp_path):
        # d = 2 runs the d = 1 simulation check, along the unit diagonal.
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--alpha", "1.5", "--d", "2",
                        "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["d"] == 2 and report["passed"] is True
        assert report["max_gap"] <= report["tolerance"] == 0.05
        with open(out / "verify.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "analytic", "empirical", "absdiff"]
        assert len(rows) == 26

    def test_coordinates_drawn_independently_fail(self, tmp_path, capsys, monkeypatch):
        # Independent SaS coordinates have SaS marginals but not the isotropic
        # joint law; their projection on the diagonal has the wrong scale.
        # The chain draws its shocks in blocks, through this seam.
        def independent(d, params, stream, size, rows):
            yield sample_sas_scalar(params, stream, size * d).reshape(size, d)

        monkeypatch.setattr("stableou.simulate._isotropic_blocks", independent)
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--d", "4", "--alpha", "1.5", "--seed", "0",
                        "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "AccuracyError"
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is False and report["max_gap"] > 0.1

    def test_simulation_mode_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--alpha", "1.5", "--seed", "2",
                        "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["d"] == 1 and report["passed"] is True
        with open(out / "verify.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "analytic", "empirical", "absdiff"]
        assert len(rows) == 26

    def test_simulation_mode_is_checked_against_the_chain_law(self, tmp_path):
        # This seed missed the tolerance (max gap 0.068) when the check used
        # eta = 0.01, whose thinned draws are strongly correlated, and the
        # continuous-time law instead of the chain's own.
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--d", "1", "--alpha", "1.2", "--seed", "3",
                        "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["max_gap"] <= 0.05

    def test_drift_key_is_rejected(self, tmp_path, capsys):
        # A drift s only rescales u: the chain at drift s and step 0.1/s is
        # s^(-1/alpha) times the drift-1 chain, path by path, so u_max covers it.
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, "s": 4.0})
        assert run_cli(["verify-charfn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"] == "unknown config keys for 'verify-charfn': s"

    @pytest.mark.parametrize("payload, key", [
        ({"d": 0}, "d"),
        ({"d": -1}, "d"),
        ({"d": 1, "n_points": 0}, "n_points"),
        ({"d": 2, "n_points": 0}, "n_points"),
    ])
    def test_bad_sizes_fail_before_drawing(self, tmp_path, capsys, monkeypatch, payload, key):
        def no_stream(seed):
            raise AssertionError("a draw was set up before the sizes were checked")

        monkeypatch.setattr("stableou.cli.RngStream", no_stream)
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, **payload})
        assert run_cli(["verify-charfn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"].startswith(f"{key} must be >= 1")

    @pytest.mark.parametrize("payload, flags", [
        ({"u_max": 0}, []),
        ({}, ["--u-max", "0"]),
        ({}, ["--u-max", "-3"]),
        ({"d": 2}, ["--u-max", "-7"]),
    ], ids=["config-zero", "flag-zero", "flag-negative", "d-2-flag-negative"])
    def test_nonpositive_u_max_fails_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                    payload, flags):
        # At u_max = 0 every grid point is u = 0, where both char. fns are 1:
        # the run would pass a check that cannot fail.
        def no_stream(seed):
            raise AssertionError("a draw was set up before u_max was checked")

        monkeypatch.setattr("stableou.cli.RngStream", no_stream)
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, **payload})
        out = tmp_path / "o"
        assert run_cli(["verify-charfn", "--config", str(cfg), *flags, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert err["message"].startswith("u_max must be positive")
        assert not (out / "verify.json").exists()

    def test_absurd_tolerance_exits_two_but_writes_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--alpha", "1.5", "--d", "2",
                        "--tolerance", "1e-300", "--out", str(out)])
        assert code == 2
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is False
        assert json.loads(capsys.readouterr().err)["error"] == "AccuracyError"


# The config keys each subcommand accepts, pinned so that its table cannot drift.
ACCEPTED_KEYS = {
    "sample": {"kind", "alpha", "sigma", "d", "count", "seed"},
    "simulate": {"alpha", "eta", "steps", "noise_scale", "seed", "n", "d", "a", "data_csv"},
    "bounds": {"R", "n", "p", "alpha", "sigma2", "sigma", "sigma_min", "delta1", "delta2",
               "dimension"},
    "threshold": {"alpha0", "p", "sigma_level"},
    "sweep": {"alpha_grid", "a_grid", "d_grid", "n", "population_size", "replications", "p",
              "eta", "steps", "noise_scale", "master_seed", "svg"},
    "estimate-tail": {"input_csv", "K1", "K2", "median_center"},
    "verify-charfn": {"alpha", "d", "n_points", "u_max", "tolerance", "seed"},
}
# The list-valued keys, which have no flag.
CONFIG_ONLY = {"sweep": {"alpha_grid", "a_grid", "d_grid"}}

# Every flag spelling the hand-written parser had, with the key it sets and the
# type of the parsed value; each must keep parsing the same way.
PINNED_FLAGS = [
    ("sample", "--kind", "isotropic", "kind", str), ("sample", "--alpha", "1.5", "alpha", float),
    ("sample", "--sigma", "2", "sigma", float), ("sample", "--d", "3", "d", int),
    ("sample", "--count", "10", "count", int), ("sample", "--seed", "4", "seed", int),
    ("simulate", "--alpha", "1.5", "alpha", float), ("simulate", "--eta", "0.05", "eta", float),
    ("simulate", "--steps", "100", "steps", int),
    ("simulate", "--noise-scale", "0.2", "noise_scale", float),
    ("simulate", "--seed", "5", "seed", int), ("simulate", "--n", "30", "n", int),
    ("simulate", "--d", "2", "d", int), ("simulate", "--a", "2", "a", float),
    ("simulate", "--data-csv", "x.csv", "data_csv", str),
    ("bounds", "--R", "1.5", "R", float), ("bounds", "--n", "500", "n", int),
    ("bounds", "--p", "1", "p", float), ("bounds", "--alpha", "1.5", "alpha", float),
    ("bounds", "--sigma2", "2", "sigma2", float), ("bounds", "--sigma", "0.8", "sigma", float),
    ("bounds", "--sigma-min", "0.6", "sigma_min", float),
    ("bounds", "--delta1", "0.1", "delta1", float), ("bounds", "--delta2", "0.1", "delta2", float),
    ("bounds", "--dimension", "dd", "dimension", str),
    ("threshold", "--alpha0", "1.5", "alpha0", float), ("threshold", "--p", "1", "p", float),
    ("threshold", "--sigma-level", "300", "sigma_level", float),
    ("sweep", "--replications", "2", "replications", int),
    ("sweep", "--master-seed", "3", "master_seed", int), ("sweep", "--steps", "120", "steps", int),
    ("sweep", "--n", "40", "n", int),
    ("estimate-tail", "--input-csv", "x.csv", "input_csv", str),
    ("estimate-tail", "--k1", "10", "K1", int), ("estimate-tail", "--k2", "20", "K2", int),
    ("estimate-tail", "--median-center", None, "median_center", bool),
    ("verify-charfn", "--alpha", "1.5", "alpha", float), ("verify-charfn", "--d", "2", "d", int),
    ("verify-charfn", "--seed", "1", "seed", int),
    ("verify-charfn", "--tolerance", "1e-3", "tolerance", float),
]


def _replay_case(command, tmp_path):
    """(config file contents or None, flags) for one run of each subcommand."""
    if command == "estimate-tail":
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x_1\n" + "".join(
            f"{v!r}\n" for v in np.random.default_rng(3).standard_cauchy(400).tolist()))
        return None, ["--input-csv", str(data_csv), "--k1", "10", "--k2", "20",
                      "--median-center"]
    return {
        "sample": (None, ["--kind", "isotropic", "--alpha", "1.3", "--d", "2",
                          "--count", "50", "--seed", "4"]),
        "simulate": (None, ["--alpha", "1.5", "--eta", "0.05", "--steps", "100", "--n", "30",
                            "--d", "2", "--seed", "5"]),
        "bounds": (None, ["--dimension", "dd", "--p", "1.0", "--alpha", "1.5", "--n", "500",
                          "--sigma", "0.8", "--sigma-min", "0.6"]),
        "threshold": (None, ["--p", "1.0", "--alpha0", "1.5", "--sigma-level", "300"]),
        "sweep": (SWEEP_CFG, ["--replications", "1"]),
        "verify-charfn": (None, ["--alpha", "1.5", "--d", "2", "--seed", "1"]),
    }[command]


class TestConfigTable:
    @pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
    def test_manifest_config_replays_byte_identically(self, command, tmp_path):
        payload, flags = _replay_case(command, tmp_path)
        config = []
        if payload is not None:
            config = ["--config", str(write_config(tmp_path, "c.json", payload))]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli([command, *config, *flags, "--out", str(out1)]) == 0
        replay = write_config(tmp_path, "replay.json", read_manifest(out1)["config"])
        assert run_cli([command, "--config", str(replay), "--out", str(out2)]) == 0
        names = read_manifest(out1)["outputs"] + ["manifest.json"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
    def test_manifest_hashes_match_the_outputs(self, command, tmp_path):
        payload, flags = _replay_case(command, tmp_path)
        config = []
        if payload is not None:
            config = ["--config", str(write_config(tmp_path, "c.json", payload))]
        out = tmp_path / "out"
        assert run_cli([command, *config, *flags, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert sorted(manifest["files"]) == manifest["outputs"]
        for name, record in manifest["files"].items():
            data = (out / name).read_bytes()
            assert record == {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}, name
        # The manifest was renamed into place: no temporary file is left beside it.
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *manifest["files"]])

    def test_file_record_reads_across_chunk_boundaries(self, tmp_path):
        # Larger than one 1 MiB read, so the digest is fed in several chunks.
        data = np.random.default_rng(0).bytes((1 << 20) * 2 + 7)
        (tmp_path / "big.bin").write_bytes(data)
        assert _file_record(tmp_path / "big.bin") == {
            "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

    def test_every_flag_is_a_config_key(self):
        # ... and every config key but a list-valued one has a flag.
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(_DEFAULTS)
        for command, sp in subparsers.choices.items():
            dests = {a.dest for a in sp._actions} - {"help", "config", "out"}
            assert dests == set(_DEFAULTS[command]) - CONFIG_ONLY.get(command, set()), command

    @pytest.mark.parametrize("command, flag, value, key, kind", PINNED_FLAGS,
                             ids=[f"{c}{f}" for c, f, *_ in PINNED_FLAGS])
    def test_flag_spelling_parses_to_its_key_and_type(self, command, flag, value, key, kind):
        args = _build_parser().parse_args([command, flag, *([] if value is None else [value])])
        assert type(getattr(args, key)) is kind
        assert getattr(args, key) == (True if value is None else kind(value))

    @pytest.mark.parametrize("command", sorted(ACCEPTED_KEYS))
    def test_accepts_exactly_the_same_keys(self, command, tmp_path, capsys):
        assert set(_DEFAULTS[command]) == ACCEPTED_KEYS[command]
        # Every accepted key passes the unknown-key check; only the stray one is named.
        payload = {**dict.fromkeys(ACCEPTED_KEYS[command]), "stray": 1}
        cfg = write_config(tmp_path, "c.json", payload)
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == f"unknown config keys for '{command}': stray"


class TestPlumbing:
    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    def test_help_lists_every_subcommand_with_its_help(self, capsys):
        assert run_cli(["--help"]) == 0
        out = capsys.readouterr().out
        assert len(_DEFAULTS) == 7
        for command in _DEFAULTS:
            # The help text comes from the handler's docstring, on the command's line.
            assert re.search(rf"^ +{re.escape(command)} +\S", out, re.MULTILINE), command

    def test_no_command_is_usage_error(self):
        assert run_cli([]) == 1

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, "bogus": 1})
        code = run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bogus" in json.loads(capsys.readouterr().err)["message"]

    def test_non_object_config_fails(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        assert run_cli(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command, payload",
        [("sweep", {**SWEEP_CFG, "alpha_grid": 1.5}), ("simulate", {"alpha": [1.5], "n": 30})],
    )
    def test_wrongly_typed_value_is_a_json_error(self, command, payload, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", payload)
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "TypeError"

    @pytest.mark.parametrize("argv, bad", [
        (["sample", "--kind", "bogus", "--alpha", "1.5"], "'bogus'"),
        (["bounds", "--dimension", "xx", "--p", "1", "--alpha", "1.5"], "'xx'"),
    ])
    def test_rejected_choice_is_a_json_error(self, argv, bad, tmp_path, capsys):
        assert run_cli([*argv, "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert bad in err["message"]

    # A config each handler rejects after _resolve has typed it.
    REJECTED_BY_HANDLER = {
        "sample": {"alpha": 1.5, "kind": "bogus"},
        "simulate": {"alpha": 1.5},
        "bounds": {"p": 1.0, "alpha": 1.5, "dimension": "3d"},
        "threshold": {"p": 1.0},
        "sweep": {**SWEEP_CFG, "alpha_grid": [True]},
        "estimate-tail": {"input_csv": "missing.csv", "K1": 10, "K2": 20},
        "verify-charfn": {"alpha": 1.5, "d": 0},
    }

    @pytest.mark.parametrize("command", sorted(REJECTED_BY_HANDLER))
    def test_rejected_config_creates_no_directory(self, command, tmp_path, capsys, monkeypatch):
        # The output directory was made before the handler validated, and was left empty.
        monkeypatch.chdir(tmp_path)  # so estimate-tail's relative input_csv does not exist
        cfg = write_config(tmp_path, "c.json", self.REJECTED_BY_HANDLER[command])
        out = tmp_path / "new" / "out"
        run_failing([command, "--config", str(cfg), "--out", str(out)], capsys)
        assert not (tmp_path / "new").exists()

    def test_an_interrupt_is_a_json_error_with_exit_code_130(self, tmp_path, capsys, monkeypatch):
        # It printed a traceback.
        def interrupted(cfg, out_dir):
            _output(out_dir, "bounds.json").write_text("{}")
            raise KeyboardInterrupt

        monkeypatch.setitem(_HANDLERS, "bounds", interrupted)
        out = tmp_path / "out"
        assert run_cli(["bounds", "--p", "1", "--alpha", "1.5", "--out", str(out)]) == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert json.loads(err)["error"] == "KeyboardInterrupt"
        assert (out / "bounds.json").exists() and not (out / "manifest.json").exists()

    def test_readme_examples_parse(self):
        # Runs nothing: each `stableou ...` line in the README's fenced blocks
        # must name only the subcommands and flags the parser has.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = readme.read_text().split("```")[1::2]
        examples = [line for block in blocks for line in block.splitlines()
                    if line.startswith("stableou ")]
        assert examples
        parser = _build_parser()
        for line in examples:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")

    def test_benchmark_tracer_wraps_and_restores_existing_names(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
        if not path.exists():
            pytest.skip("perfbench/layers.py is absent")
        spec = importlib.util.spec_from_file_location("perfbench_layers", path)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)

        def lookup(owner, attr):
            return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        originals = [(owner, attr, lookup(owner, attr)) for owner, attr, *_ in layers._WRAPPED]
        with layers.Tracer():
            assert all(lookup(owner, attr) is not fn for owner, attr, fn in originals)
        assert all(lookup(owner, attr) is fn for owner, attr, fn in originals)

    def test_console_script_is_installed(self):
        # The declared entry point is run the way an installer's wrapper runs
        # it, so the check holds whether or not the package is installed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["stableou"]
        module, attr = target.split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        runs = [([sys.executable, "-c", wrapper, "--version"], package_env())]
        # Wherever an installed executable is on PATH, it must work too.
        exe = shutil.which("stableou")
        if exe is not None:
            runs.append(([exe, "--version"], None))
        for command, run_env in runs:
            proc = subprocess.run(command, capture_output=True, text=True, env=run_env)
            assert proc.returncode == 0, proc.stderr
            assert "stableou" in proc.stdout

    @pytest.mark.parametrize("module", ["stableou", "stableou.cli"])
    def test_python_dash_m_runs_a_subcommand(self, module, tmp_path):
        out = tmp_path / "out"
        command = [sys.executable, "-m", module, "bounds", "--p", "1", "--alpha", "1.5",
                   "--out", str(out)]
        proc = subprocess.run(command, capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "bounds.json").read_text())["regime"] == "StableSurrogate"

    def test_python_dash_m_exits_with_run_clis_code(self, monkeypatch, tmp_path, capsys):
        # In process, so the module's own lines run: a refused alpha is exit code 1.
        argv = ["bounds", "--p", "1", "--alpha", "3", "--out", str(tmp_path / "out")]
        monkeypatch.setattr(sys, "argv", ["stableou", *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("stableou", run_name="__main__")
        assert exit_info.value.code == run_cli(argv) == 1
        assert json.loads(capsys.readouterr().err.splitlines()[0])["error"] == "ParameterError"


# A config each subcommand accepts, with every required key set. Typing fails
# before any file is read, so input_csv need not exist.
BASE_CONFIGS = {
    "sample": {"alpha": 1.5},
    "simulate": {"alpha": 1.5, "n": 30},
    "bounds": {"p": 1.0, "alpha": 1.5},
    "threshold": {"p": 1.0, "alpha0": 1.5},
    "sweep": SWEEP_CFG,
    "estimate-tail": {"input_csv": "data.csv", "K1": 10, "K2": 20},
    "verify-charfn": {"alpha": 1.5},
}
# Values of the wrong type for each key type.
WRONG_VALUES = {float: ["1.5", True, [1.5], math.nan, math.inf, -math.inf, 10**400],
                int: ["5", 2.5, True],
                bool: ["false", 0, 1.0], str: [1, True, ["x"]]}
SCALAR_KEYS = [(command, key) for command, table in _DEFAULTS.items()
               for key, entry in table.items() if _key_type(entry) is not tuple]


def run_failing(argv, capsys):
    """The JSON error of a run that must exit 1 on one line of stderr."""
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return json.loads(err)


class TestValueTypes:
    @pytest.mark.parametrize("command, key", SCALAR_KEYS, ids=[f"{c}-{k}" for c, k in SCALAR_KEYS])
    def test_wrongly_typed_config_value_fails_before_any_output(self, command, key, tmp_path,
                                                                capsys):
        out = tmp_path / "out"
        for value in WRONG_VALUES[_key_type(_DEFAULTS[command][key])]:
            cfg = write_config(tmp_path, "c.json", {**BASE_CONFIGS[command], key: value})
            err = run_failing([command, "--config", str(cfg), "--out", str(out)], capsys)
            assert err["error"] == "TypeError", value
            assert f"'{key}'" in err["message"], value
            assert not out.exists(), value

    # Each value was accepted and did something other than what it says.
    @pytest.mark.parametrize("argv, payload, key", [
        (["sample", "--kind", "isotropic", "--alpha", "1.5"], {"d": 2.7}, "d"),
        (["bounds", "--p", "1", "--alpha", "1.5"], {"n": 1000.9}, "n"),
        (["sweep"], {**SWEEP_CFG, "svg": "false"}, "svg"),
        (["simulate", "--alpha", "1.5", "--n", "30"], {"steps": "5"}, "steps"),
        (["verify-charfn", "--alpha", "1.5", "--d", "2", "--tolerance", "inf"], {}, "tolerance"),
        (["simulate", "--alpha", "1.5", "--n", "30", "--noise-scale", "inf"], {}, "noise_scale"),
    ], ids=["d-2.7-drew-2-columns", "bounds-n-1000.9-ran-1000", "svg-string-still-drew",
            "steps-string-recorded-as-a-string", "tolerance-inf-passed-a-check-that-cannot-fail",
            "noise-scale-inf-completed"])
    def test_value_that_was_silently_converted_is_rejected(self, argv, payload, key, tmp_path,
                                                           capsys):
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        err = run_failing([*argv, "--config", str(cfg), "--out", str(out)], capsys)
        assert err["error"] == "TypeError"
        assert f"'{key}'" in err["message"]
        assert not out.exists()

    def test_memory_error_is_a_json_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(params, stream, size):
            raise MemoryError(f"cannot allocate {size} samples")

        monkeypatch.setattr("stableou.cli.sample_sas_scalar", no_memory)
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, "count": 1e18})
        err = run_failing(["sample", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capsys)
        assert err == {"error": "MemoryError",
                       "message": "cannot allocate 1000000000000000000 samples"}

    def test_config_value_is_typed_even_where_a_flag_overrides_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"alpha": "1.5"})
        out = tmp_path / "out"
        err = run_failing(["sample", "--config", str(cfg), "--alpha", "1.5", "--out", str(out)],
                          capsys)
        assert err["error"] == "TypeError"
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--d", "abc"], "--d"),
        (["--bogus", "1"], "--bogus"),
    ], ids=["unparsable-value", "unknown-flag"])
    def test_flag_that_does_not_parse_is_a_json_error(self, flags, named, tmp_path, capsys):
        out = tmp_path / "out"
        err = run_failing(["sample", "--alpha", "1.5", *flags, "--out", str(out)], capsys)
        assert err["error"] == "ParameterError"
        assert named in err["message"]
        assert not out.exists()

    def test_version_exits_zero(self, capsys):
        assert run_cli(["--version"]) == 0
        assert stableou.__version__ in capsys.readouterr().out

    def test_manifest_records_the_package_version(self, tmp_path):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        (declared,) = re.findall(r'^version = "(.+)"$', pyproject, re.MULTILINE)
        out = tmp_path / "out"
        assert run_cli(["threshold", "--p", "1", "--alpha0", "1.5", "--out", str(out)]) == 0
        assert read_manifest(out)["artifact_version"] == stableou.__version__ == declared

    def test_manifest_records_each_value_as_its_key_type(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"alpha": 1, "n": 40.0, "steps": 10})
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        config = read_manifest(out)["config"]
        assert type(config["alpha"]) is float and config["alpha"] == 1.0
        assert type(config["n"]) is int and config["n"] == 40

    def test_every_default_has_its_key_type(self):
        for command, table in _DEFAULTS.items():
            for key, entry in table.items():
                if isinstance(entry, type) or typing.get_args(entry):
                    continue  # no default
                typed = _typed(key, _key_type(entry), entry)
                assert typed == entry and type(typed) is type(entry), (command, key)
        # A dataclass default such as `p: float = 1` would make its key an int key.
        for command, cls in (("bounds", BoundInputs), ("sweep", SweepConfig)):
            for key, kind in typing.get_type_hints(cls).items():
                assert _key_type(_DEFAULTS[command][key]) is kind, (command, key)


# JSON values at the edges of every key type; NaN and Infinity are the
# literals json.load accepts.
EDGE_VALUES = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf,
               "10**400": 10**400, "10**18": 10**18, "-10**18": -10**18, "1e308": 1e308,
               "-1e308": -1e308, "0": 0, "-1": -1, "0.5": 0.5, "1e-300": 1e-300, '"x"': "x",
               "true": True, "false": False, "[1]": [1]}
EDGE_CASES = [(command, key, name) for command, key in SCALAR_KEYS for name in EDGE_VALUES]


class Drew(Exception):
    """An accepted input reached its first random draw."""


def draw_nothing(*args, **kwargs):
    raise Drew


@pytest.mark.parametrize("command, key, name", EDGE_CASES,
                         ids=[f"{c}-{k}-{n}" for c, k, n in EDGE_CASES])
def test_no_config_value_reaches_a_traceback(command, key, name, tmp_path, capsys, monkeypatch):
    # An accepted input stops at its first stream or sweep, so nothing large is
    # drawn; bounds, threshold and estimate-tail draw nothing and run whole.
    monkeypatch.setattr("stableou.cli.RngStream", draw_nothing)
    monkeypatch.setattr("stableou.cli.run_synthetic_sweep", draw_nothing)
    monkeypatch.chdir(tmp_path)  # estimate-tail reads data.csv from here
    cauchy = np.random.default_rng(0).standard_cauchy(200)
    (tmp_path / "data.csv").write_text("x_1\n" + "".join(f"{v!r}\n" for v in cauchy))
    cfg = write_config(tmp_path, "c.json", {**BASE_CONFIGS[command], key: EDGE_VALUES[name]})
    try:
        code = run_cli([command, "--config", str(cfg), "--out", "out"])
    except Drew:
        code = 0
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert err == "" or err.count("\n") == 1 and set(json.loads(err)) == {"error", "message"}, err
