"""Command-line front door.

Each subcommand reads a flat JSON config file, applies any flag overrides,
runs, and writes a manifest.json capturing the resolved config so the run
can be reproduced bit-exactly. `_DEFAULTS` is the one declaration of each
subcommand's config keys and flags. A key maps to its default, or, when it
has none, to its type: a bare type such as `float` marks a required key and
`float | None` a key that may stay unset. A key outside the table is a hard
error. Each key that is not a list is also a flag, `--key` with dashes for
underscores (and in lower case too, so `--k1` sets `K1`).
`_resolve` types every value, flag or config, by one rule: a float key takes
a number within float range, not nan or inf; an int key an integral number
(so `40.0` is 40); a bool key only true or false, a str key only a string and
a sweep grid only a list; any other value is a TypeError naming the key.
Exit codes: 0 success, 1 validation error, 2 numerical-accuracy error; every
rejected input, flag or config, is a one-line JSON error on stderr.
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
from .errors import (AccuracyError, ParameterError, ShapeError, StableOUError, integer,
                     positive, reject_unread)
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
    euler_maruyama_run,
    stationary_sample,
)
from .tail import estimate_tail_index, median_center

def _dataclass_defaults(cls) -> dict:
    types = typing.get_type_hints(cls)
    return {f.name: types[f.name] if f.default is dataclasses.MISSING else f.default
            for f in dataclasses.fields(cls)}


# n of simulate is required unless data_csv is given.
_DEFAULTS = {
    "sample": {"kind": "sas", "alpha": float, "sigma": 1.0, "d": 1, "count": 1000, "seed": 0},
    "simulate": {"alpha": float, "eta": 0.1, "steps": 3000, "noise_scale": 0.1, "seed": 0,
                 "n": int | None, "d": 1, "a": 1.0, "data_csv": str | None},
    "bounds": {**_dataclass_defaults(BoundInputs), "R": 1.0, "n": 1000, "dimension": "1d"},
    "threshold": {"alpha0": float | None, "p": float, "sigma_level": float | None},
    "sweep": {**_dataclass_defaults(SweepConfig), "svg": True},
    "estimate-tail": {"input_csv": str, "K1": int, "K2": int, "median_center": False},
    "verify-charfn": {"alpha": float, "d": 1, "n_points": 25, "u_max": 3.0, "tolerance": 0.05,
                      "seed": 0},
}


def _key_type(entry) -> type:
    """The type of a key's values, read off its `_DEFAULTS` entry."""
    if isinstance(entry, type):
        return entry
    optional = typing.get_args(entry)
    return optional[0] if optional else type(entry)


# What each key type accepts, named for the TypeError.
_KINDS = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string",
          tuple: "a list"}


def _typed(key: str, kind: type, value):
    """value as a `kind`, or a TypeError naming key: the one typing rule of every CLI value."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind in (bool, str) and isinstance(value, kind) or kind is tuple and isinstance(value, list):
        return value
    raise TypeError(f"config key '{key}' must be {_KINDS[kind]}, got {value!r}")


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """The subcommand's config: each flag over the config file over `_DEFAULTS`, typed."""
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
    for key, entry in table.items():
        # A config value is typed even where a flag overrides it.
        values = [_typed(key, _key_type(entry), value)
                  for value in (getattr(args, key, None), given.get(key)) if value is not None]
        if values:
            cfg[key] = values[0]
        elif isinstance(entry, type):
            raise ParameterError(f"missing required config key '{key}'")
        elif not typing.get_args(entry):
            cfg[key] = entry
    return cfg


def _from_config(cls, cfg: dict):
    """The dataclass built from its fields in cfg."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


def _output(out_dir: Path, name: str) -> Path:
    """out_dir / name, creating out_dir on the first write.

    Every output goes through here, so an input a handler rejects leaves no directory.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _dumps(obj) -> str:
    # allow_nan=False: a non-finite value is a ValueError, never JSON's invalid NaN or Infinity.
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _finish(out_dir: Path, command: str, cfg: dict, outputs: list[str], report=None) -> None:
    """Prints the report, if any, and writes it to outputs[0]; then writes the manifest."""
    if report is not None:
        text = _dumps(report)
        print(text)
        _output(out_dir, outputs[0]).write_text(text + "\n")
    manifest = {"artifact_version": __version__, "subcommand": command, "config": cfg,
                "outputs": sorted(outputs)}
    _output(out_dir, "manifest.json").write_text(_dumps(manifest) + "\n")


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        lines, rows = [], []  # each non-blank row and the file line it ends on
        for r in reader:
            if r:
                lines.append(reader.line_num)
                rows.append(r)
    if not rows:
        raise ShapeError(f"{path} contains no data")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1
    if len(rows) == start:
        raise ShapeError(f"{path} contains a header but no rows")
    data = np.asarray([[float(v) for v in r] for r in rows[start:]], dtype=float)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        # float() reads nan, inf and 1e999 alike.
        row = start + int(bad[0])
        raise ParameterError(f"{path} row {lines[row]} is not finite: {','.join(rows[row])}")
    return data


# The sample settings each kind ignores.
_SAMPLE_UNREAD = {"sas": ("d",), "positive": ("sigma", "d"), "isotropic": ()}


def _cmd_sample(cfg: dict, out_dir: Path) -> int:
    """Draw stable random variates to CSV."""
    kind = cfg["kind"]
    if kind not in _SAMPLE_UNREAD:
        raise ParameterError(f"kind must be 'sas', 'positive' or 'isotropic', got {kind!r}")
    reject_unread(f"kind {kind!r}", _SAMPLE_UNREAD[kind], cfg, _DEFAULTS["sample"])
    alpha, count = cfg["alpha"], cfg["count"]
    stream = RngStream(cfg["seed"])
    if kind == "sas":
        data = sample_sas_scalar(StableParams(alpha, cfg["sigma"]), stream, size=count)
        data = np.asarray(data)[:, None]
    elif kind == "positive":
        data = sample_skewed_positive_stable(alpha, stream, size=count)
        data = np.asarray(data)[:, None]
    else:
        params = StableParams(alpha, cfg["sigma"])
        data = sample_isotropic_stable(cfg["d"], params, stream, size=count)
    _write_csv(_output(out_dir, "samples.csv"), [f"x_{j + 1}" for j in range(data.shape[1])], data)
    _finish(out_dir, "sample", cfg, ["samples.csv"])
    print(f"wrote {count} {kind} samples (alpha={alpha}) to {out_dir / 'samples.csv'}")
    return 0


def _cmd_simulate(cfg: dict, out_dir: Path) -> int:
    """Run one noisy-recursion trajectory."""
    stream = RngStream(cfg["seed"])
    if "data_csv" in cfg:
        reject_unread("simulate with data_csv", ("n", "d", "a"), cfg, _DEFAULTS["simulate"])
        data = _read_matrix_csv(cfg["data_csv"])
    elif "n" not in cfg:
        raise ParameterError("missing required config key 'n'")
    else:
        data = generate_population(cfg["a"], cfg["d"], cfg["n"], stream.fork(0))
    problem = QuadraticProblem(data)
    sim = SimConfig(eta=cfg["eta"], steps=cfg["steps"], alpha=cfg["alpha"],
                    noise_scale=cfg["noise_scale"])
    traj = euler_maruyama_run(problem, sim, stream=stream.fork(1))
    header = ["step"] + [f"theta_{j + 1}" for j in range(problem.d)]
    rows = ([k, *theta] for k, theta in enumerate(traj.iterates))
    _write_csv(_output(out_dir, "trajectory.csv"), header, rows)
    _finish(out_dir, "simulate", cfg, ["trajectory.csv"])
    status = "diverged" if traj.diverged else "completed"
    # hypot scales its arguments, so a diverged iterate near 1e300 does not overflow.
    print(f"{status}: {len(traj) - 1} steps, final iterate norm {math.hypot(*traj.final):.6g}")
    return 0


def _cmd_bounds(cfg: dict, out_dir: Path) -> int:
    """Evaluate stability upper bounds."""
    dimension = cfg["dimension"]
    if dimension not in ("1d", "dd"):
        raise ParameterError(f"dimension must be '1d' or 'dd', got {dimension!r}")
    inputs = _from_config(BoundInputs, cfg)
    try:
        result = upper_bound_1d(inputs) if dimension == "1d" else upper_bound_dd(inputs)
    except OverflowError:  # float ** raises where float * gives inf: the same overflow
        result = math.inf
    if isinstance(result, float) and not math.isfinite(result):
        raise OverflowError(f"report key 'value' overflows float range at dimension "
                            f"{dimension}, inputs {dataclasses.asdict(inputs)}")
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
    """Variance threshold and its inverse."""
    p = cfg["p"]
    report: dict = {"p": p}
    if "alpha0" not in cfg and "sigma_level" not in cfg:
        raise ParameterError("provide 'alpha0' (forward threshold) or 'sigma_level' (inverse)")
    if "alpha0" in cfg:
        alpha0 = cfg["alpha0"]
        report["alpha0"] = alpha0
        # +inf (alpha0 near p) is meant; JSON spells it null with the flag set.
        level = variance_threshold(alpha0, p)
        report["variance_threshold_infinite"] = math.isinf(level)
        report["variance_threshold"] = None if math.isinf(level) else level
    if "sigma_level" in cfg:
        level = cfg["sigma_level"]
        found = threshold_alpha0(level, p)
        report["sigma_level"] = level
        report["no_threshold"] = isinstance(found, NoThreshold)
        report["threshold_alpha0"] = None if report["no_threshold"] else found
    _finish(out_dir, "threshold", cfg, ["threshold.json"], report)
    return 0


def _cmd_sweep(cfg: dict, out_dir: Path) -> int:
    """Replicated generalization-error sweep."""
    sweep = _from_config(SweepConfig, cfg)
    records = run_synthetic_sweep(sweep)
    write_run_records(records, _output(out_dir, "records.csv"))
    table = aggregate_median_iqr(records)
    write_aggregate(table, _output(out_dir, "aggregate.csv"))
    outputs = ["records.csv", "aggregate.csv"]
    if cfg["svg"]:
        for d in sweep.d_grid:
            for a in sweep.a_grid:
                name = f"sweep_a{a:g}_d{d}.svg"
                try:
                    write_sweep_svg(table, _output(out_dir, name), a, d)
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
    """Tail-index estimate from a CSV of vectors."""
    data = _read_matrix_csv(cfg["input_csv"])
    if cfg["median_center"]:
        data = median_center(data)
    est = estimate_tail_index(data, cfg["K1"], cfg["K2"])
    report = {
        "alpha_hat": est.alpha_hat,
        "K1": est.K1,
        "K2": est.K2,
        "sample_count_used": est.sample_count_used,
    }
    _finish(out_dir, "estimate-tail", cfg, ["tail.json"], report)
    return 0


def _cmd_verify_charfn(cfg: dict, out_dir: Path) -> int:
    """Check the simulated chain's char. fn against its exact law."""
    alpha, d, u_max, tolerance = cfg["alpha"], cfg["d"], cfg["u_max"], cfg["tolerance"]
    integer("d", d, least=1)
    n_points = integer("n_points", cfg["n_points"], least=1)
    # At u_max = 0 every grid point is u = 0, where both char. fns are 1: no check at all.
    positive("u_max", u_max)
    stream = RngStream(cfg["seed"])
    # The Gram matrix is lambda I with lambda = 1 up to rounding. Drift 1 loses
    # nothing: at drift s and step 0.1/s the chain is s^(-1/alpha) times this
    # one, path by path, which only rescales u. eta = 0.1 decorrelates the
    # thinned draws (lag factor 0.9^9 at thinning 9), which fit in the 100000
    # steps after the burn-in of 100.
    eta = 0.1
    problem = QuadraticProblem(math.sqrt(d) * np.eye(d))
    sim = SimConfig(eta=eta, steps=100000, alpha=alpha, noise_scale=1.0)
    samples = stationary_sample(problem, sim, stream, 10000, thinning=9)
    # A rotationally invariant SaS vector projects on a unit vector as SaS of
    # the same scale, so one direction checks the joint law at every d.
    projected = samples @ np.full(d, 1.0 / math.sqrt(d))
    # The chain's exact stationary law: scale^alpha = eta / (1 - |1 - eta lambda|^alpha).
    scale_alpha = eta / (1.0 - abs(1.0 - eta * problem.lambda_max) ** alpha)
    rows = []
    for u in np.linspace(-u_max, u_max, n_points):
        analytic = math.exp(-abs(u) ** alpha * scale_alpha)
        empirical = empirical_char_fn(projected, u)
        rows.append([u, analytic, empirical.real, abs(empirical - analytic)])
    max_gap = float(max(row[3] for row in rows))
    passed = max_gap <= tolerance
    report = {
        "alpha": alpha,
        "d": d,
        "mode": "simulation vs exact discrete-time law (max absolute gap)",
        "max_gap": max_gap,
        "tolerance": tolerance,
        "passed": passed,
    }
    _write_csv(_output(out_dir, "verify.csv"), ["u", "analytic", "empirical", "absdiff"], rows)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParameterError instead of exiting 2."""

    def error(self, message):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stableou",
        description="Heavy-tailed OU simulation, stability bounds, and tail estimation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, table in _DEFAULTS.items():
        sp = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        sp.add_argument("--config", type=Path, help="flat JSON config file")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        for key, entry in table.items():
            kind = _key_type(entry)
            if kind is tuple:
                continue  # the sweep grids are set in the config file only
            flag = "--" + key.replace("_", "-")
            flags = dict.fromkeys([flag, flag.lower()])
            if kind is bool:
                sp.add_argument(*flags, dest=key, action=argparse.BooleanOptionalAction)
            else:
                sp.add_argument(*flags, dest=key, type=kind)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve(args.command, args)
        return _HANDLERS[args.command](cfg, args.out)
    except SystemExit as exc:  # only --help and --version exit; a usage error raises
        return exc.code
    except AccuracyError as exc:
        _emit_error(exc)
        return 2
    except (StableOUError, ValueError, TypeError, KeyError, OSError, MemoryError,
            OverflowError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
