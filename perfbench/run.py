"""Benchmark for stableou: four seeded workloads, checked against independent oracles.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, long_chain, coupled_gap, theory (see perfbench/README.md).
With --trace 0 the run does whole rounds of the workload until --seconds of
wall time have passed and reports the end-to-end metrics setup_s, ops_per_s
(operations per CPU second of the rounds) and peak_rss_mb. With --trace 1 it
runs the same rounds twice, untraced and then with every layer wrapped, and
reports the per-layer metrics and the tracing overhead. Either way the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

The BLAS thread count is pinned to 1 for this process and its children.
Besides itself the benchmark starts at most one process at a time (the
set-up probes), so it never runs more than two.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed for setup_s (process start to inputs ready), this
# many before the timed rounds and as many after them: the machine's speed
# drifts over tens of seconds, and probes on both sides of the rounds see more
# of that drift than probes taken back to back.
SETUP_PROBES = 3


def _import_program():
    """Import the package from this checkout's src/, never from an install."""
    if not (SRC / "stableou" / "__init__.py").is_file():
        raise SystemExit(f"error: no stableou package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import stableou

    if Path(stableou.__file__).resolve().parent != (SRC / "stableou").resolve():
        raise SystemExit(f"error: imported stableou from {stableou.__file__}, not from {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "long_chain", "coupled_gap", "theory"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def _setup_probes(args) -> list[float]:
    """Seconds from spawn to inputs ready, for SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.time()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return times


def _timed_rounds(wl, rounds: int | None = None, seconds: float | None = None):
    """Run whole rounds: a fixed number, or until ``seconds`` of wall time have passed.

    Returns the round results and, per round, the wall and CPU seconds.
    """
    results, wall, cpu = [], [], []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        results.append(wl.round(len(results)))
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        if rounds is not None and len(results) >= rounds:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return results, wall, cpu


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads

    workdir = HERE / ".runs" / f"{args.workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            cls(args.seed, workdir)
            print(repr(time.time()))
            return 0
        return _run(args, cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


def _run(args, cls, workdir: Path) -> int:
    env = _environment()
    probes = [] if args.trace else _setup_probes(args)
    wl = cls(args.seed, workdir / "run")
    if args.trace:
        from layers import Tracer

        rounds = max(1, round(args.seconds / 2.0 / cls.round_seconds))
        results, _, plain = _timed_rounds(wl, rounds=rounds)
        wl.workdir = workdir / "traced"
        with Tracer() as tracer:
            traced_results, _, traced = _timed_rounds(wl, rounds=rounds)
        attempted = sum(r["ops"] for r in results + traced_results)
        failures = [f"round {i} differs when traced"
                    for i, (a, b) in enumerate(zip(results, traced_results))
                    if cls.fingerprint(a) != cls.fingerprint(b)]
        metrics = {k: _metric(v, u) for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_pct"] = _metric(100.0 * (sum(traced) / sum(plain) - 1.0), "%")
        spans = {f"{p} > {c}": round(s, 6) for (p, c), s in sorted(tracer.parents.items())}
        print("# rounds per phase:", rounds, "; nested span seconds:", json.dumps(spans))
    else:
        results, wall, cpu = _timed_rounds(wl, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes += _setup_probes(args)
        attempted = sum(r["ops"] for r in results)
        metrics = {
            "setup_s": _metric(statistics.median(probes), "s"),
            "ops_per_s": _metric(attempted / sum(cpu), "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        failures = []
        print("# rounds:", len(results), "; wall seconds per round:",
              json.dumps([round(d, 4) for d in wall]), "; CPU seconds per round:",
              json.dumps([round(d, 4) for d in cpu]))
    failures += wl.check(results)
    for line in failures:
        print("CHECK FAILED:", line, file=sys.stderr)
    print("# environment:", json.dumps(env))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
