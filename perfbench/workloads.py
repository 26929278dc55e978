"""The four benchmark workloads.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up), runs one round of operations in ``round(i)`` (the timed part) and
checks every round's outputs in ``check`` (after the timing). Round ``i``
always does the same amount of work with inputs fixed by (seed, i), so two
rounds with the same index give identical outputs.

Calls into the program go through module attributes (``simulate.stationary_sample``
rather than a name imported once), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from stableou import bounds, cli, experiments, sampling, simulate, stationary
from stableou.rng import RngStream

import checks

# Per-round seeds are drawn once in set-up; a run longer than this many
# rounds reuses them cyclically.
MAX_ROUNDS = 4096


def _round_seeds(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2**63 - 1, size=MAX_ROUNDS, dtype=np.int64)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Sweep:
    """`stableou sweep` through `run_cli` at the acceptance-check-06 protocol.

    One round is one CLI call with its own master seed: 10 tail indices x
    a in {1, 8} x d = 100, two replications each. Operation: one replication.
    """

    name = "sweep"
    round_seconds = 3.0
    REPLICATIONS = 2
    CONFIG = {
        "alpha_grid": [round(float(a), 10) for a in np.linspace(1.1, 2.0, 10)],
        "a_grid": [1.0, 8.0],
        "d_grid": [100],
        "n": 1000,
        "population_size": 100_000,
        "replications": REPLICATIONS,
        "p": 1.0,
        "eta": 0.1,
        "steps": 3000,
        "noise_scale": 0.1,
    }
    OPS = len(CONFIG["alpha_grid"]) * len(CONFIG["a_grid"]) * len(CONFIG["d_grid"]) * REPLICATIONS
    # Tail indices at which the recursion residuals are checked against the driving law.
    RESIDUAL_ALPHAS = (1.1, 1.5, 2.0)

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.seeds = _round_seeds(self.rng)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(self.CONFIG))

    def round(self, i: int) -> dict:
        master_seed = int(self.seeds[i % MAX_ROUNDS])
        out = self.workdir / f"round-{i}"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            rc = cli.run_cli(
                ["sweep", "--config", str(self.config_path), "--master-seed", str(master_seed),
                 "--out", str(out)]
            )
        return {"ops": self.OPS, "rc": rc, "out": out, "master_seed": master_seed,
                "stdout": captured.getvalue()}

    @staticmethod
    def fingerprint(result: dict) -> bytes:
        return (result["out"] / "records.csv").read_bytes()

    def check(self, results: list[dict]) -> list[str]:
        bad = []
        for res in results:
            if res["rc"] != 0:
                bad.append(f"sweep exited {res['rc']} (master seed {res['master_seed']})")
                continue
            want = f"wrote {self.OPS} records (0 diverged) and 20 aggregate rows"
            if want not in res["stdout"]:
                bad.append(f"sweep reported {res['stdout'].strip()!r}")
            rows = _read_csv(res["out"] / "records.csv")
            bad += checks.check_sweep_records(rows, self.OPS)
            bad += checks.check_aggregate(rows, _read_csv(res["out"] / "aggregate.csv"))
            manifest = json.loads((res["out"] / "manifest.json").read_text())
            if manifest["config"]["master_seed"] != res["master_seed"]:
                bad.append("manifest does not record the master seed")
        bad += self._check_replay(results[0])
        bad += self._check_trajectories()
        return bad

    def _check_replay(self, res: dict) -> list[str]:
        """Two records of the first round replay bit-exactly."""
        cfg = experiments.SweepConfig(**{**self.CONFIG, "master_seed": res["master_seed"]})
        records = experiments.read_run_records(res["out"] / "records.csv")
        picks = self.rng.choice(len(records), size=2, replace=False)
        return [
            f"record {records[j]} does not replay bit-exactly"
            for j in picks
            if experiments.replay_record(cfg, records[j]) != records[j]
        ]

    def _check_trajectories(self) -> list[str]:
        """On a training set drawn here, residuals follow the driving law and
        the generalization error recomputes."""
        c = self.CONFIG
        d, a = c["d_grid"][0], c["a_grid"][1]
        train = self.rng.uniform(-a / 2.0, a / 2.0, size=(c["n"], d))
        population = self.rng.uniform(-a / 2.0, a / 2.0, size=(20_000, d))
        A = train.T @ train / c["n"]
        bad = []
        problem = simulate.QuadraticProblem(train)
        for alpha in self.RESIDUAL_ALPHAS:
            sim = simulate.SimConfig(eta=c["eta"], steps=c["steps"], alpha=alpha,
                                     noise_scale=c["noise_scale"])
            traj = simulate.euler_maruyama_run(
                problem, sim, stream=RngStream(int(self.rng.integers(2**63 - 1)))
            )
            if traj.diverged or len(traj) != c["steps"] + 1:
                bad.append(f"trajectory at alpha {alpha} diverged")
                continue
            bad += checks.check_residual_law(
                traj.iterates, A, np.zeros(d), c["eta"], alpha, c["noise_scale"]
            )
            reported = experiments.generalization_error(traj.final, train, population, c["p"])
            bad += checks.check_generalization_error(
                traj.final, train, population, c["p"], reported
            )
        return bad


class LongChain:
    """One long scalar chain, then its empirical char. fn (check-08 protocol).

    `stationary_sample` on QuadraticProblem(ones(100)) at eta = 0.1, thinning
    10, 2 x 10^4 samples; the tail index cycles through 1.2, 1.5, 1.8, 2.0
    with the round index. Operation: one recursion step.
    """

    name = "long_chain"
    round_seconds = 2.4
    ALPHAS = (1.2, 1.5, 1.8, 2.0)
    ETA = 0.1
    THINNING = 10
    SAMPLES = 20_000
    STEPS = 100 + THINNING * SAMPLES + 10
    GRID = np.linspace(-3.0, 3.0, 25)

    def __init__(self, seed: int, workdir: Path):
        self.seeds = _round_seeds(np.random.default_rng(seed))
        self.problem = simulate.QuadraticProblem(np.ones(100))
        self.configs = {
            a: simulate.SimConfig(eta=self.ETA, steps=self.STEPS, alpha=a, noise_scale=1.0)
            for a in self.ALPHAS
        }

    def round(self, i: int) -> dict:
        alpha = self.ALPHAS[i % len(self.ALPHAS)]
        samples = simulate.stationary_sample(
            self.problem, self.configs[alpha], RngStream(int(self.seeds[i % MAX_ROUNDS])),
            self.SAMPLES, thinning=self.THINNING,
        )
        ecf = [sampling.empirical_char_fn(samples[:, 0], u) for u in self.GRID]
        return {"ops": self.STEPS, "alpha": alpha, "samples": samples, "ecf": np.array(ecf)}

    @staticmethod
    def fingerprint(result: dict) -> bytes:
        return result["ecf"].tobytes()

    def check(self, results: list[dict]) -> list[str]:
        bad = []
        for res in results:
            if res["samples"].shape != (self.SAMPLES, 1):
                bad.append(f"stationary_sample returned shape {res['samples'].shape}")
                continue
            bad += checks.check_chain_char_fn(
                res["samples"][:, 0], self.GRID, res["ecf"], res["alpha"], self.ETA, s=1.0
            )
        return bad


class CoupledGap:
    """`empirical_stability_gap` at the check-07 protocol.

    X = ones(n) with one row set to 2, eta = 0.005, 10^4 coupled chain pairs,
    a burn-in of 2000 steps, alpha = 1.5; n cycles through 250, 500, 1000,
    2000 with the round index. Operation: one chain-pair step.
    """

    name = "coupled_gap"
    round_seconds = 2.5
    NS = (250, 500, 1000, 2000)
    ETA = 0.005
    BURN = 2000
    N_MC = 10_000
    ALPHA = 1.5

    def __init__(self, seed: int, workdir: Path):
        self.seeds = _round_seeds(np.random.default_rng(seed))
        self.pairs = {}
        for n in self.NS:
            X = np.ones(n)
            X_hat = X.copy()
            X_hat[0] = 2.0
            self.pairs[n] = stationary.NeighborPair(X, X_hat)
        self.sim = simulate.SimConfig(
            eta=self.ETA, steps=2 * self.BURN, alpha=self.ALPHA, noise_scale=1.0,
            burn_in=self.BURN,
        )
        self.probes = np.array([[1.0]])

    def round(self, i: int) -> dict:
        n = self.NS[i % len(self.NS)]
        est = experiments.empirical_stability_gap(
            self.pairs[n], self.probes, 1.0, self.ALPHA, self.sim, self.N_MC,
            RngStream(int(self.seeds[i % MAX_ROUNDS])),
        )
        return {"ops": self.N_MC * self.BURN, "n": n, "gap": est.gap}

    @staticmethod
    def fingerprint(result: dict) -> float:
        return result["gap"]

    def check(self, results: list[dict]) -> list[str]:
        return checks.check_gaps(
            [(r["n"], r["gap"]) for r in results], self.ALPHA, self.ETA, self.BURN
        )


class Theory:
    """Closed-form stability theory on random neighbour datasets (check-05 generator).

    Instance k has d = 1 + k % 5, alpha = (1.2, 1.5, 1.8, 2.0)[k % 4], n in
    [100, 300], X ~ N(0, v) with v in [1, 3] and row 0 redrawn in X_hat, 10
    frequencies with norms in [0.2, 1.5], and a variance level log-uniform on
    [10, 1000] for `threshold_alpha0` (levels above 71.55 have a threshold,
    the others none). A round is 20 consecutive instances, so every round has
    the same mix of d and alpha. Operation: one instance.
    """

    name = "theory"
    round_seconds = 0.2
    ALPHAS = (1.2, 1.5, 1.8, 2.0)
    PER_ROUND = 20
    POOL_ROUNDS = 160
    P = 1.0
    N_FREQ = 10
    # Instances that also get the scipy-quadrature and identity-drift checks.
    QUADRATURE_SAMPLE = 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pool = [self._instance(k, rng) for k in range(self.PER_ROUND * self.POOL_ROUNDS)]

    def _instance(self, k: int, rng: np.random.Generator) -> dict:
        d = 1 + k % 5
        n = int(rng.integers(100, 301))
        sd = math.sqrt(rng.uniform(1.0, 3.0))
        X = rng.normal(0.0, sd, (n, d))
        X_hat = X.copy()
        X_hat[0] = rng.normal(0.0, sd, d)
        us = rng.normal(size=(self.N_FREQ, d))
        us *= (rng.uniform(0.2, 1.5, self.N_FREQ) / np.linalg.norm(us, axis=1))[:, None]
        level = math.exp(rng.uniform(math.log(10.0), math.log(1000.0)))
        return {"k": k, "d": d, "alpha": self.ALPHAS[k % 4], "X": X, "X_hat": X_hat,
                "us": us, "level": level}

    def round(self, i: int) -> dict:
        start = (i % self.POOL_ROUNDS) * self.PER_ROUND
        out = []
        for inst in self.pool[start:start + self.PER_ROUND]:
            pair = stationary.NeighborPair(inst["X"], inst["X_hat"])
            alpha, d = inst["alpha"], inst["d"]
            exact, bound = [], []
            for u in inst["us"]:
                if d == 1:
                    exact.append(stationary.char_fn_diff_exact(pair, alpha, float(u[0])))
                    bound.append(stationary.char_fn_diff_bound_1d(pair, alpha, float(u[0])))
                else:
                    exact.append(stationary.char_fn_diff_exact(pair, alpha, u))
                    bound.append(stationary.char_fn_diff_bound_dd(pair, alpha, u))
            found = bounds.threshold_alpha0(inst["level"], self.P)
            out.append({"inst": inst, "exact": np.array(exact), "bound": np.array(bound),
                        "threshold": None if isinstance(found, bounds.NoThreshold) else found})
        return {"ops": len(out), "instances": out}

    @staticmethod
    def fingerprint(result: dict) -> tuple:
        return tuple((r["exact"].tobytes(), r["bound"].tobytes(), r["threshold"])
                     for r in result["instances"])

    def check(self, results: list[dict]) -> list[str]:
        seen = {}
        for res in results:
            for r in res["instances"]:
                seen[r["inst"]["k"]] = r
        bad = []
        quadrature_left = identity_left = self.QUADRATURE_SAMPLE
        for k in sorted(seen):
            r = seen[k]
            inst = r["inst"]
            bad += checks.check_bound_dominates(r["exact"], r["bound"])
            bad += checks.check_threshold(inst["level"], self.P, r["threshold"])
            if inst["alpha"] == 2.0:
                bad += checks.check_alpha2_closed_form(inst["X"], inst["X_hat"], inst["us"], r["exact"])
            elif quadrature_left > 0:
                quadrature_left -= 1
                bad += checks.check_quadrature(
                    inst["X"], inst["X_hat"], inst["alpha"], inst["us"][:2], r["exact"][:2]
                )
            if identity_left > 0:
                identity_left -= 1
                sc = stationary.StationaryCharFn(np.eye(inst["d"]), inst["alpha"])
                us = inst["us"][:2]
                bad += checks.check_identity_drift(us, inst["alpha"], [sc.evaluate(u) for u in us])
        return bad


WORKLOADS = {w.name: w for w in (Sweep, LongChain, CoupledGap, Theory)}
