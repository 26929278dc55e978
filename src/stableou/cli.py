"""Command-line front door.

Each subcommand reads a flat JSON config file (unknown keys are a hard
error), applies any flag overrides, runs, and writes a manifest.json
capturing the resolved config so the run can be reproduced bit-exactly.
Exit codes: 0 success, 1 validation error, 2 numerical-accuracy error;
errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BoundInputs,
    NoThreshold,
    classify_regime,
    threshold_alpha0,
    upper_bound_1d,
    upper_bound_dd,
    variance_threshold,
)
from .errors import AccuracyError, ParameterError, ShapeError, StableOUError
from .experiments import (
    SweepConfig,
    aggregate_median_iqr,
    generate_population,
    run_synthetic_sweep,
    write_aggregate,
    write_run_records,
    write_sweep_svg,
)
from .rng import RngStream
from .sampling import (
    StableParams,
    empirical_char_fn,
    sample_isotropic_stable,
    sample_sas_scalar,
    sample_skewed_positive_stable,
)
from .simulate import QuadraticProblem, SimConfig, euler_maruyama_run, stationary_sample, trajectory_to_csv
from .stationary import StationaryCharFn
from .tail import estimate_tail_index, median_center

_ALLOWED_KEYS = {
    "sample": {"kind", "alpha", "sigma", "d", "count", "seed"},
    "simulate": {
        "alpha",
        "eta",
        "steps",
        "noise_scale",
        "seed",
        "n",
        "d",
        "a",
        "data_csv",
        "allow_unstable",
    },
    "bounds": {
        "R",
        "n",
        "p",
        "alpha",
        "sigma2",
        "sigma",
        "sigma_min",
        "lambda_min",
        "lambda_max",
        "delta1",
        "delta2",
        "dimension",
        "general_sigma",
    },
    "threshold": {"alpha0", "p", "sigma_level", "lambda_min", "lambda_max"},
    "sweep": {
        "alpha_grid",
        "a_grid",
        "d_grid",
        "n",
        "population_size",
        "replications",
        "p",
        "eta",
        "steps",
        "noise_scale",
        "master_seed",
        "svg",
    },
    "estimate-tail": {"input_csv", "K1", "K2", "median_center"},
    "verify-charfn": {"alpha", "d", "s", "n_points", "u_max", "tolerance", "seed"},
}


def _load_config(path: Path | None, command: str) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(cfg) - _ALLOWED_KEYS[command])
    if unknown:
        raise ParameterError(
            f"unknown config keys for '{command}': {', '.join(unknown)}"
        )
    return cfg


def _merge_overrides(cfg: dict, args: argparse.Namespace, command: str) -> dict:
    merged = dict(cfg)
    for key in _ALLOWED_KEYS[command]:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ParameterError(f"missing required config key '{key}'")
    return cfg[key]


def _write_manifest(out_dir: Path, command: str, cfg: dict, outputs: list[str]) -> None:
    manifest = {
        "artifact_version": __version__,
        "subcommand": command,
        "config": cfg,
        "outputs": sorted(outputs),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_matrix_csv(arr: np.ndarray, path: Path, prefix: str = "x") -> None:
    arr = np.atleast_2d(arr)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{prefix}_{j + 1}" for j in range(arr.shape[1])])
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ShapeError(f"{path} contains no data")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1
    data = [[float(v) for v in r] for r in rows[start:]]
    if not data:
        raise ShapeError(f"{path} contains a header but no rows")
    return np.asarray(data, dtype=float)


def _print_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _cmd_sample(cfg: dict, out_dir: Path) -> int:
    kind = cfg.setdefault("kind", "sas")
    alpha = float(_require(cfg, "alpha"))
    count = int(cfg.setdefault("count", 1000))
    sigma = float(cfg.setdefault("sigma", 1.0))
    d = int(cfg.setdefault("d", 1))
    seed = int(cfg.setdefault("seed", 0))
    stream = RngStream(seed)
    if kind == "sas":
        data = sample_sas_scalar(StableParams(alpha=alpha, sigma=sigma), stream, size=count)
        data = np.asarray(data)[:, None]
    elif kind == "positive":
        data = sample_skewed_positive_stable(alpha, stream, size=count)
        data = np.asarray(data)[:, None]
    elif kind == "isotropic":
        data = sample_isotropic_stable(d, StableParams(alpha=alpha, sigma=sigma), stream, size=count)
    else:
        raise ParameterError(f"kind must be 'sas', 'positive' or 'isotropic', got {kind!r}")
    _write_matrix_csv(data, out_dir / "samples.csv")
    _write_manifest(out_dir, "sample", cfg, ["samples.csv"])
    print(f"wrote {count} {kind} samples (alpha={alpha}) to {out_dir / 'samples.csv'}")
    return 0


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    alpha = float(_require(cfg, "alpha"))
    eta = float(cfg.setdefault("eta", 0.1))
    steps = int(cfg.setdefault("steps", 3000))
    noise_scale = float(cfg.setdefault("noise_scale", 0.1))
    seed = int(cfg.setdefault("seed", 0))
    stream = RngStream(seed)
    if "data_csv" in cfg:
        data = _read_matrix_csv(cfg["data_csv"])
    else:
        n = int(_require(cfg, "n"))
        d = int(cfg.setdefault("d", 1))
        a = float(cfg.setdefault("a", 1.0))
        data = generate_population(a, d, n, stream.fork(0))
    problem = QuadraticProblem(data)
    sim = SimConfig(
        eta=eta,
        steps=steps,
        alpha=alpha,
        noise_scale=noise_scale,
        allow_unstable=bool(cfg.get("allow_unstable", False)),
    )
    traj = euler_maruyama_run(problem, sim, stream=stream.fork(1))
    trajectory_to_csv(traj, out_dir / "trajectory.csv")
    _write_manifest(out_dir, "simulate", cfg, ["trajectory.csv"])
    status = "diverged" if traj.diverged else "completed"
    print(
        f"{status}: {len(traj) - 1} steps, final iterate norm "
        f"{float(np.linalg.norm(traj.final)):.6g}"
    )
    return 0


def _cmd_bounds(cfg: dict, out_dir: Path) -> int:
    dimension = cfg.setdefault("dimension", "1d")
    if dimension not in ("1d", "dd"):
        raise ParameterError(f"dimension must be '1d' or 'dd', got {dimension!r}")
    general_sigma = bool(cfg.setdefault("general_sigma", False))
    inputs = BoundInputs(
        R=float(cfg.setdefault("R", 1.0)),
        n=int(cfg.setdefault("n", 1000)),
        p=float(_require(cfg, "p")),
        alpha=float(_require(cfg, "alpha")),
        sigma2=float(cfg.setdefault("sigma2", 1.0)),
        sigma=float(cfg.setdefault("sigma", 1.0)),
        sigma_min=float(cfg.setdefault("sigma_min", 1.0)),
        lambda_min=float(cfg.setdefault("lambda_min", 1.0)),
        lambda_max=float(cfg.setdefault("lambda_max", 1.0)),
        delta1=float(cfg.setdefault("delta1", 0.0)),
        delta2=float(cfg.setdefault("delta2", 0.0)),
    )
    if dimension == "1d":
        result = upper_bound_1d(inputs)
    else:
        result = upper_bound_dd(inputs, general_sigma=general_sigma)
    regime = classify_regime(inputs.p, inputs.alpha)
    report = {
        "inputs": {
            "R": inputs.R,
            "n": inputs.n,
            "p": inputs.p,
            "alpha": inputs.alpha,
            "sigma2": inputs.sigma2,
            "sigma": inputs.sigma,
            "sigma_min": inputs.sigma_min,
            "lambda_min": inputs.lambda_min,
            "lambda_max": inputs.lambda_max,
            "delta1": inputs.delta1,
            "delta2": inputs.delta2,
            "dimension": dimension,
            "general_sigma": general_sigma,
        },
        "regime": regime.value,
        "value": None if not isinstance(result, float) else result,
        "caveat": (
            f"holds with probability at least {inputs.confidence_floor:.6g} "
            "(1 - delta1 - 2*delta2); delta1, delta2 are user-supplied"
        ),
    }
    _print_report(report)
    with open(out_dir / "bounds.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "bounds", cfg, ["bounds.json"])
    return 0


def _cmd_threshold(cfg: dict, out_dir: Path) -> int:
    p = float(_require(cfg, "p"))
    lam_min = float(cfg.setdefault("lambda_min", 1.0))
    lam_max = float(cfg.setdefault("lambda_max", 1.0))
    report: dict = {"p": p, "lambda_min": lam_min, "lambda_max": lam_max}
    if "alpha0" not in cfg and "sigma_level" not in cfg:
        raise ParameterError("provide 'alpha0' (forward threshold) or 'sigma_level' (inverse)")
    if "alpha0" in cfg:
        alpha0 = float(cfg["alpha0"])
        report["alpha0"] = alpha0
        report["variance_threshold"] = variance_threshold(alpha0, p, lam_min, lam_max)
    if "sigma_level" in cfg:
        level = float(cfg["sigma_level"])
        found = threshold_alpha0(level, p, lam_min, lam_max)
        report["sigma_level"] = level
        if isinstance(found, NoThreshold):
            report["threshold_alpha0"] = None
            report["no_threshold"] = True
        else:
            report["threshold_alpha0"] = found
            report["no_threshold"] = False
    _print_report(report)
    with open(out_dir / "threshold.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "threshold", cfg, ["threshold.json"])
    return 0


def _cmd_sweep(cfg: dict, out_dir: Path) -> int:
    sweep = SweepConfig(
        alpha_grid=tuple(_require(cfg, "alpha_grid")),
        a_grid=tuple(_require(cfg, "a_grid")),
        d_grid=tuple(_require(cfg, "d_grid")),
        n=int(cfg.setdefault("n", 1000)),
        population_size=int(cfg.setdefault("population_size", 100000)),
        replications=int(cfg.setdefault("replications", 200)),
        p=float(cfg.setdefault("p", 1.0)),
        eta=float(cfg.setdefault("eta", 0.1)),
        steps=int(cfg.setdefault("steps", 3000)),
        noise_scale=float(cfg.setdefault("noise_scale", 0.1)),
        master_seed=int(cfg.setdefault("master_seed", 0)),
    )
    records = run_synthetic_sweep(sweep)
    write_run_records(records, out_dir / "records.csv")
    table = aggregate_median_iqr(records)
    write_aggregate(table, out_dir / "aggregate.csv")
    outputs = ["records.csv", "aggregate.csv"]
    if bool(cfg.setdefault("svg", True)):
        for d in sweep.d_grid:
            for a in sweep.a_grid:
                name = f"sweep_a{a:g}_d{d}.svg"
                write_sweep_svg(table, out_dir / name, a, d)
                outputs.append(name)
    _write_manifest(out_dir, "sweep", cfg, outputs)
    n_div = sum(r.diverged for r in records)
    print(f"wrote {len(records)} records ({n_div} diverged) and {len(table)} aggregate rows")
    return 0


def _cmd_estimate_tail(cfg: dict, out_dir: Path) -> int:
    data = _read_matrix_csv(_require(cfg, "input_csv"))
    k1 = int(_require(cfg, "K1"))
    k2 = int(_require(cfg, "K2"))
    if bool(cfg.setdefault("median_center", False)):
        data = median_center(data)
    est = estimate_tail_index(data, k1, k2)
    report = {
        "alpha_hat": est.alpha_hat,
        "K1": est.K1,
        "K2": est.K2,
        "sample_count_used": est.sample_count_used,
    }
    _print_report(report)
    with open(out_dir / "tail.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "estimate-tail", cfg, ["tail.json"])
    return 0


def _cmd_verify_charfn(cfg: dict, out_dir: Path) -> int:
    alpha = float(_require(cfg, "alpha"))
    d = int(cfg.setdefault("d", 1))
    seed = int(cfg.setdefault("seed", 0))
    stream = RngStream(seed)
    if d == 1:
        s = float(cfg.setdefault("s", 1.0))
        u_max = float(cfg.setdefault("u_max", 3.0))
        n_points = int(cfg.setdefault("n_points", 25))
        tolerance = float(cfg.setdefault("tolerance", 0.05))
        steps, n_samples = 100000, 10000
        problem = QuadraticProblem(math.sqrt(s) * np.ones(100))
        sim = SimConfig(eta=0.01, steps=steps, alpha=alpha, noise_scale=1.0)
        burn = int(math.ceil(10.0 / (0.01 * s)))
        thinning = max(1, (steps - burn) // n_samples)
        samples = stationary_sample(problem, sim, stream, n_samples, thinning=thinning)
        grid = np.linspace(-u_max, u_max, n_points)
        rows = []
        gaps = []
        for u in grid:
            analytic = math.exp(-abs(u) ** alpha / (alpha * s))
            empirical = empirical_char_fn(samples[:, 0], u)
            gap = abs(empirical - analytic)
            gaps.append(gap)
            rows.append([u, analytic, empirical.real, gap])
        max_gap = float(max(gaps))
        mode = "simulation vs closed form (max absolute gap)"
        header = ["u", "analytic", "empirical", "absdiff"]
    else:
        n_points = int(cfg.setdefault("n_points", 100))
        tolerance = float(cfg.setdefault("tolerance", 1e-6))
        sc = StationaryCharFn(np.eye(d), alpha)
        rows = []
        gaps = []
        for _ in range(n_points):
            u = stream.generator.standard_normal(d)
            analytic = math.exp(-float(np.linalg.norm(u)) ** alpha / alpha)
            value = sc.evaluate(u)
            gaps.append(abs(value - analytic) / analytic)
            rows.append(list(u) + [analytic, value, abs(value - analytic)])
        max_gap = float(max(gaps))
        mode = "quadrature vs closed form (max relative gap)"
        header = [f"u_{j + 1}" for j in range(d)] + ["analytic", "empirical", "absdiff"]
    passed = max_gap <= tolerance
    report = {
        "alpha": alpha,
        "d": d,
        "mode": mode,
        "max_gap": max_gap,
        "tolerance": tolerance,
        "passed": passed,
    }
    _print_report(report)
    with open(out_dir / "verify.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    with open(out_dir / "verify.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out_dir, "verify-charfn", cfg, ["verify.json", "verify.csv"])
    if not passed:
        raise AccuracyError(
            f"characteristic-function check failed: max gap {max_gap:.4g} "
            f"exceeds tolerance {tolerance:.4g}",
            estimate=max_gap,
        )
    return 0


_HANDLERS = {
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
    "estimate-tail": _cmd_estimate_tail,
    "verify-charfn": _cmd_verify_charfn,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stableou",
        description="Heavy-tailed OU simulation, stability bounds, and tail estimation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="flat JSON config file")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        return sp

    sp = add("sample", "draw stable random variates to CSV")
    sp.add_argument("--kind", choices=["sas", "positive", "isotropic"])
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--d", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--seed", type=int)

    sp = add("simulate", "run one noisy-recursion trajectory")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--noise-scale", type=float, dest="noise_scale")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--a", type=float)
    sp.add_argument("--data-csv", dest="data_csv")

    sp = add("bounds", "evaluate stability upper bounds")
    sp.add_argument("--R", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--sigma2", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--sigma-min", type=float, dest="sigma_min")
    sp.add_argument("--lambda-min", type=float, dest="lambda_min")
    sp.add_argument("--lambda-max", type=float, dest="lambda_max")
    sp.add_argument("--delta1", type=float)
    sp.add_argument("--delta2", type=float)
    sp.add_argument("--dimension", choices=["1d", "dd"])
    sp.add_argument("--general-sigma", action="store_const", const=True, dest="general_sigma")

    sp = add("threshold", "variance threshold and its inverse")
    sp.add_argument("--alpha0", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--sigma-level", type=float, dest="sigma_level")
    sp.add_argument("--lambda-min", type=float, dest="lambda_min")
    sp.add_argument("--lambda-max", type=float, dest="lambda_max")

    sp = add("sweep", "replicated generalization-error sweep")
    sp.add_argument("--replications", type=int)
    sp.add_argument("--master-seed", type=int, dest="master_seed")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--n", type=int)

    sp = add("estimate-tail", "tail-index estimate from a CSV of vectors")
    sp.add_argument("--input-csv", dest="input_csv")
    sp.add_argument("--k1", type=int, dest="K1")
    sp.add_argument("--k2", type=int, dest="K2")
    sp.add_argument("--median-center", action="store_const", const=True, dest="median_center")

    sp = add("verify-charfn", "check simulated or quadrature char. fn against closed form")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--d", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--tolerance", type=float)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for accuracy failures.
        return 0 if exc.code == 0 else 1
    try:
        cfg = _load_config(args.config, args.command)
        cfg = _merge_overrides(cfg, args, args.command)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, out_dir)
    except AccuracyError as exc:
        _emit_error(exc)
        return 2
    except (StableOUError, ValueError, KeyError, OSError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
