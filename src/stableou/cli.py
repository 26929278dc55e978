"""Command-line front door.

Each subcommand reads a flat JSON config file, applies any flag overrides,
runs, and writes a manifest.json capturing the resolved config so the run
can be reproduced bit-exactly. `_DEFAULTS` is the one declaration of each
subcommand's config keys: a key outside it is a hard error, a `REQUIRED`
key must be given, and `None` marks a key that is optional with no default.
Exit codes: 0 success, 1 validation error, 2 numerical-accuracy error;
errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import typing
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
    _write_csv,
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
from .simulate import (
    QuadraticProblem,
    SimConfig,
    default_burn_in,
    euler_maruyama_run,
    stationary_sample,
)
from .stationary import StationaryCharFn
from .tail import estimate_tail_index, median_center

REQUIRED = object()


def _dataclass_defaults(cls) -> dict:
    missing = dataclasses.MISSING
    return {f.name: REQUIRED if f.default is missing else f.default for f in dataclasses.fields(cls)}


# n of simulate is required unless data_csv is given; n_points and tolerance
# of verify-charfn default by mode in _cmd_verify_charfn.
_DEFAULTS = {
    "sample": {"kind": "sas", "alpha": REQUIRED, "sigma": 1.0, "d": 1, "count": 1000, "seed": 0},
    "simulate": {"alpha": REQUIRED, "eta": 0.1, "steps": 3000, "noise_scale": 0.1, "seed": 0,
                 "n": None, "d": 1, "a": 1.0, "data_csv": None, "allow_unstable": False},
    "bounds": {**_dataclass_defaults(BoundInputs), "R": 1.0, "n": 1000, "dimension": "1d"},
    "threshold": {"alpha0": None, "p": REQUIRED, "sigma_level": None, "lambda_min": 1.0,
                  "lambda_max": 1.0},
    "sweep": {**_dataclass_defaults(SweepConfig), "svg": True},
    "estimate-tail": {"input_csv": REQUIRED, "K1": REQUIRED, "K2": REQUIRED, "median_center": False},
    "verify-charfn": {"alpha": REQUIRED, "d": 1, "s": 1.0, "n_points": None, "u_max": 3.0,
                      "tolerance": None, "seed": 0},
}


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """The subcommand's config: each flag over the config file over `_DEFAULTS`."""
    table = _DEFAULTS[command]
    given = {}
    if args.config is not None:
        with open(args.config) as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ParameterError(f"config file {args.config} must contain a JSON object")
        unknown = sorted(set(given) - set(table))
        if unknown:
            raise ParameterError(f"unknown config keys for '{command}': {', '.join(unknown)}")
    cfg = {}
    for key, default in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = given.get(key)
        if value is None:
            value = default
        if value is REQUIRED:
            raise ParameterError(f"missing required config key '{key}'")
        if value is not None:
            cfg[key] = value
    return cfg


def _from_config(cls, cfg: dict):
    """The dataclass built from its fields in cfg, each coerced to its annotated type."""
    types = typing.get_type_hints(cls)
    return cls(**{f.name: types[f.name](cfg[f.name]) for f in dataclasses.fields(cls)})


def _finish(out_dir: Path, command: str, cfg: dict, outputs: list[str], report=None) -> None:
    """Prints the report, if any, and writes it to outputs[0]; then writes the manifest."""
    if report is not None:
        text = json.dumps(report, indent=2, sort_keys=True)
        print(text)
        (out_dir / outputs[0]).write_text(text + "\n")
    manifest = {"artifact_version": __version__, "subcommand": command, "config": cfg,
                "outputs": sorted(outputs)}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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


def _cmd_sample(cfg: dict, out_dir: Path) -> int:
    kind = cfg["kind"]
    alpha = float(cfg["alpha"])
    count = int(cfg["count"])
    stream = RngStream(int(cfg["seed"]))
    if kind == "sas":
        data = sample_sas_scalar(StableParams(alpha, float(cfg["sigma"])), stream, size=count)
        data = np.asarray(data)[:, None]
    elif kind == "positive":
        data = sample_skewed_positive_stable(alpha, stream, size=count)
        data = np.asarray(data)[:, None]
    elif kind == "isotropic":
        params = StableParams(alpha, float(cfg["sigma"]))
        data = sample_isotropic_stable(int(cfg["d"]), params, stream, size=count)
    else:
        raise ParameterError(f"kind must be 'sas', 'positive' or 'isotropic', got {kind!r}")
    _write_csv(out_dir / "samples.csv", [f"x_{j + 1}" for j in range(data.shape[1])], data)
    _finish(out_dir, "sample", cfg, ["samples.csv"])
    print(f"wrote {count} {kind} samples (alpha={alpha}) to {out_dir / 'samples.csv'}")
    return 0


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    stream = RngStream(int(cfg["seed"]))
    if "data_csv" in cfg:
        data = _read_matrix_csv(cfg["data_csv"])
    elif "n" not in cfg:
        raise ParameterError("missing required config key 'n'")
    else:
        data = generate_population(float(cfg["a"]), int(cfg["d"]), int(cfg["n"]), stream.fork(0))
    problem = QuadraticProblem(data)
    sim = SimConfig(
        eta=float(cfg["eta"]),
        steps=int(cfg["steps"]),
        alpha=float(cfg["alpha"]),
        noise_scale=float(cfg["noise_scale"]),
        allow_unstable=bool(cfg["allow_unstable"]),
    )
    traj = euler_maruyama_run(problem, sim, stream=stream.fork(1))
    header = ["step"] + [f"theta_{j + 1}" for j in range(problem.d)]
    rows = ([k, *theta] for k, theta in enumerate(traj.iterates))
    _write_csv(out_dir / "trajectory.csv", header, rows)
    _finish(out_dir, "simulate", cfg, ["trajectory.csv"])
    status = "diverged" if traj.diverged else "completed"
    # hypot scales its arguments, so a diverged iterate near 1e300 does not overflow.
    print(f"{status}: {len(traj) - 1} steps, final iterate norm {math.hypot(*traj.final):.6g}")
    return 0


def _cmd_bounds(cfg: dict, out_dir: Path) -> int:
    dimension = cfg["dimension"]
    if dimension not in ("1d", "dd"):
        raise ParameterError(f"dimension must be '1d' or 'dd', got {dimension!r}")
    inputs = _from_config(BoundInputs, cfg)
    result = upper_bound_1d(inputs) if dimension == "1d" else upper_bound_dd(inputs)
    report = {
        "inputs": {**dataclasses.asdict(inputs), "dimension": dimension},
        "regime": classify_regime(inputs.p, inputs.alpha).value,
        "value": None if not isinstance(result, float) else result,
        "caveat": (
            f"holds with probability at least {inputs.confidence_floor:.6g} "
            "(1 - delta1 - 2*delta2); delta1, delta2 are user-supplied"
        ),
    }
    _finish(out_dir, "bounds", cfg, ["bounds.json"], report)
    return 0


def _cmd_threshold(cfg: dict, out_dir: Path) -> int:
    p = float(cfg["p"])
    lam_min = float(cfg["lambda_min"])
    lam_max = float(cfg["lambda_max"])
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
        report["no_threshold"] = isinstance(found, NoThreshold)
        report["threshold_alpha0"] = None if report["no_threshold"] else found
    _finish(out_dir, "threshold", cfg, ["threshold.json"], report)
    return 0


def _cmd_sweep(cfg: dict, out_dir: Path) -> int:
    sweep = _from_config(SweepConfig, cfg)
    records = run_synthetic_sweep(sweep)
    write_run_records(records, out_dir / "records.csv")
    table = aggregate_median_iqr(records)
    write_aggregate(table, out_dir / "aggregate.csv")
    outputs = ["records.csv", "aggregate.csv"]
    if bool(cfg["svg"]):
        for d in sweep.d_grid:
            for a in sweep.a_grid:
                name = f"sweep_a{a:g}_d{d}.svg"
                try:
                    write_sweep_svg(table, out_dir / name, a, d)
                except ShapeError as exc:
                    # No alpha of this (a, d) has a finite median: there is no curve to draw.
                    print(f"skipped {name}: {exc}")
                    continue
                outputs.append(name)
    _finish(out_dir, "sweep", cfg, outputs)
    n_div = sum(r.diverged for r in records)
    print(f"wrote {len(records)} records ({n_div} diverged) and {len(table)} aggregate rows")
    return 0


def _cmd_estimate_tail(cfg: dict, out_dir: Path) -> int:
    data = _read_matrix_csv(cfg["input_csv"])
    if bool(cfg["median_center"]):
        data = median_center(data)
    est = estimate_tail_index(data, int(cfg["K1"]), int(cfg["K2"]))
    report = {
        "alpha_hat": est.alpha_hat,
        "K1": est.K1,
        "K2": est.K2,
        "sample_count_used": est.sample_count_used,
    }
    _finish(out_dir, "estimate-tail", cfg, ["tail.json"], report)
    return 0


def _cmd_verify_charfn(cfg: dict, out_dir: Path) -> int:
    alpha = float(cfg["alpha"])
    d = int(cfg["d"])
    n_points = int(cfg.setdefault("n_points", 25 if d == 1 else 100))
    tolerance = float(cfg.setdefault("tolerance", 0.05 if d == 1 else 1e-6))
    stream = RngStream(int(cfg["seed"]))
    rows = []
    gaps = []
    if d == 1:
        s = float(cfg["s"])
        u_max = float(cfg["u_max"])
        if not s > 0:
            raise ParameterError(f"s must be positive, got {s}")
        # eta * s = 0.1 decorrelates the thinned draws (lag factor 0.9^9 at thinning 9).
        eta = 0.1 / s
        steps, n_samples = 100000, 10000
        problem = QuadraticProblem(math.sqrt(s) * np.ones(100))
        sim = SimConfig(eta=eta, steps=steps, alpha=alpha, noise_scale=1.0)
        thinning = max(1, (steps - default_burn_in(problem, sim)) // n_samples)
        samples = stationary_sample(problem, sim, stream, n_samples, thinning=thinning)
        # The chain's exact stationary law: scale^alpha = eta / (1 - |1 - eta s|^alpha).
        scale_alpha = eta / (1.0 - abs(1.0 - eta * s) ** alpha)
        for u in np.linspace(-u_max, u_max, n_points):
            analytic = math.exp(-abs(u) ** alpha * scale_alpha)
            empirical = empirical_char_fn(samples[:, 0], u)
            gap = abs(empirical - analytic)
            gaps.append(gap)
            rows.append([u, analytic, empirical.real, gap])
        mode = "simulation vs exact discrete-time law (max absolute gap)"
        header = ["u", "analytic", "empirical", "absdiff"]
    else:
        sc = StationaryCharFn(np.eye(d), alpha)
        for _ in range(n_points):
            u = stream.generator.standard_normal(d)
            analytic = math.exp(-float(np.linalg.norm(u)) ** alpha / alpha)
            value = sc.evaluate(u)
            gaps.append(abs(value - analytic) / analytic)
            rows.append(list(u) + [analytic, value, abs(value - analytic)])
        mode = "quadrature vs closed form (max relative gap)"
        header = [f"u_{j + 1}" for j in range(d)] + ["analytic", "empirical", "absdiff"]
    max_gap = float(max(gaps))
    passed = max_gap <= tolerance
    report = {
        "alpha": alpha,
        "d": d,
        "mode": mode,
        "max_gap": max_gap,
        "tolerance": tolerance,
        "passed": passed,
    }
    _write_csv(out_dir / "verify.csv", header, rows)
    _finish(out_dir, "verify-charfn", cfg, ["verify.json", "verify.csv"], report)
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
        cfg = _resolve(args.command, args)
        args.out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](cfg, args.out)
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


if __name__ == "__main__":
    main()
