import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
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
)
from stableou.cli import _DEFAULTS, _build_parser, run_cli


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


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
            "alpha": 2.0, "eta": 0.05, "steps": 100, "noise_scale": 0.0,
            "data_csv": str(data_csv),
        })
        out = tmp_path / "out"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    def test_diverged_run_prints_a_finite_norm(self, tmp_path, capsys):
        # The last kept iterate has coordinates near 1e300, whose squares overflow.
        cfg = write_config(tmp_path, "c.json", {
            "alpha": 1.5, "eta": 8.0, "steps": 3000, "n": 30, "d": 2, "a": 2.0,
            "noise_scale": 0.1, "seed": 3, "allow_unstable": True,
        })
        with pytest.warns(UserWarning, match="noiseless recursion diverges"):
            code = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("diverged: 1430 steps, final iterate norm ")
        assert 1e299 < float(stdout.split()[-1]) < math.inf

    def test_unstable_step_fails(self, tmp_path, capsys):
        code = run_cli([
            "simulate", "--alpha", "2.0", "--eta", "50.0", "--steps", "50",
            "--n", "30", "--d", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

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

    def test_dd_spectrum_selects_the_preconditioned_form(self, tmp_path):
        # The isotropic oracle 3.470702845479248e-3 times
        # lambda_min^p (lambda_max/lambda_min)^alpha = 0.5 * 4^1.5 = 4.
        out = tmp_path / "out"
        code = run_cli([
            "bounds", "--dimension", "dd", "--p", "1.0", "--alpha", "1.5",
            "--lambda-min", "0.5", "--lambda-max", "2", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["inputs"]["dimension"] == "dd"
        assert report["inputs"]["lambda_min"] == 0.5
        assert report["value"] == pytest.approx(1.3882811381916991e-2, rel=1e-12)

    def test_1d_rejects_a_non_unit_spectrum(self, tmp_path, capsys):
        code = run_cli(["bounds", "--dimension", "1d", "--p", "1.0", "--alpha", "1.5",
                        "--lambda-min", "0.5", "--lambda-max", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParameterError"
        assert "no preconditioned form" in err["message"]

    def test_config_with_the_removed_switch_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"dimension": "dd", "general_sigma": True})
        assert run_cli(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "unknown config keys for 'bounds': general_sigma"

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

    def test_inverse_direction_honours_the_spectrum(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["threshold", "--sigma-level", "10", "--p", "1",
                        "--lambda-min", "0.5", "--lambda-max", "2", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "threshold.json").read_text())
        assert report["no_threshold"] is False
        found = report["threshold_alpha0"]
        assert 1.0 < found < 1.9
        assert stableou.variance_threshold(found, 1.0, 0.5, 2.0) <= 10.0
        assert stableou.variance_threshold(found - 1e-9, 1.0, 0.5, 2.0) > 10.0

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

    def test_missing_grids_fail(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"alpha_grid": [1.5]})
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


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


class TestVerifyCharfn:
    def test_quadrature_mode_passes(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["verify-charfn", "--alpha", "1.5", "--d", "2",
                        "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["max_gap"] <= report["tolerance"]
        with open(out / "verify.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["u_1", "u_2", "analytic", "empirical", "absdiff"]

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

    def test_nonpositive_drift_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"alpha": 1.5, "s": 0.0})
        assert run_cli(["verify-charfn", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"

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
    "simulate": {"alpha", "eta", "steps", "noise_scale", "seed", "n", "d", "a", "data_csv",
                 "allow_unstable"},
    "bounds": {"R", "n", "p", "alpha", "sigma2", "sigma", "sigma_min", "lambda_min",
               "lambda_max", "delta1", "delta2", "dimension"},
    "threshold": {"alpha0", "p", "sigma_level", "lambda_min", "lambda_max"},
    "sweep": {"alpha_grid", "a_grid", "d_grid", "n", "population_size", "replications", "p",
              "eta", "steps", "noise_scale", "master_seed", "svg"},
    "estimate-tail": {"input_csv", "K1", "K2", "median_center"},
    "verify-charfn": {"alpha", "d", "s", "n_points", "u_max", "tolerance", "seed"},
}


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
                          "--lambda-min", "0.5", "--lambda-max", "2"]),
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

    def test_every_flag_is_a_config_key(self):
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(_DEFAULTS)
        for command, sp in subparsers.choices.items():
            dests = {a.dest for a in sp._actions} - {"help", "config", "out"}
            assert dests <= set(_DEFAULTS[command]), command

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
