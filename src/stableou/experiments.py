"""Seeded synthetic experiments for the stable-noise least-squares recursion.

Covers population generation, surrogate-loss risks, replicated sweeps over
(alpha, a, d) with per-record reproducibility, empirical uniform-stability
gaps estimated with common random numbers, and median/IQR aggregation with
CSV and SVG output.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, ShapeError, integer, is_real, loss_power, positive,
                     sample_rows)
from .rng import RngStream
from .sampling import sample_isotropic_stable  # noqa: F401  (looked up here by perfbench/layers.py)
from .simulate import (
    QuadraticProblem,
    SimConfig,
    coupled_stationary_draws,
    euler_maruyama_run,  # noqa: F401  (looked up here by perfbench/layers.py)
    final_iterate,
)
from .stationary import NeighborPair, _gap_probes

AGGREGATE_COLUMNS = ("alpha", "a", "d", "median", "q25", "q75", "n_diverged")
# Rows and columns of the fixed-shape product that scores every risk (see
# _chunked_risks): its float64 scratch is 32 x 2048, 512 KB, and the sweep's
# population chunk is 2048 x d, 16 KB per dimension (1.6 MB at d = 100).
_RISK_ROWS = 32
_RISK_COLS = 2048


@dataclass(frozen=True)
class SweepConfig:
    """Grid and protocol for the synthetic generalization experiment.

    Per replication: resample n rows with replacement from a size-N uniform
    population on (-a/2, a/2)^d, run the noisy recursion for `steps`
    iterations from zero, and score the final iterate's generalization error
    under the loss |theta^T x|^p.
    """

    alpha_grid: tuple
    a_grid: tuple
    d_grid: tuple
    n: int = 1000
    population_size: int = 100000
    replications: int = 200
    p: float = 1.0
    eta: float = 0.1
    steps: int = 3000
    noise_scale: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        for name, kind in (("alpha_grid", float), ("a_grid", float), ("d_grid", int)):
            grid = tuple(getattr(self, name))
            if not all(is_real(x, integral=kind is int) for x in grid):
                noun = "finite numbers" if kind is float else "integers"
                raise ParameterError(f"{name} entries must be {noun}, got {list(grid)}")
            if len(grid) == 0:
                raise ParameterError(f"{name} must be nonempty")
            if len(set(grid)) != len(grid):
                raise ParameterError(f"{name} has duplicate entries")
            object.__setattr__(self, name, tuple(kind(x) for x in grid))
        for name, least in (("n", 1), ("replications", 1), ("master_seed", None)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        object.__setattr__(self, "population_size",
                           integer("population_size", self.population_size, least=self.n))
        for a in self.a_grid:
            positive("a_grid entry", a)
        for d in self.d_grid:
            integer("d_grid entry", d, least=1)
        loss_power(self.p)
        for alpha in self.alpha_grid:  # SimConfig checks each chain as _grid_point_records runs it
            SimConfig(eta=self.eta, steps=self.steps, alpha=alpha, noise_scale=self.noise_scale)


@dataclass(frozen=True)
class RunRecord:
    """One replication's outcome, which replay_record recomputes from the sweep's config alone.

    Each field is coerced to its annotated type, so a record built from
    numpy scalars or from the strings of a CSV row holds plain Python values.
    """

    replication: int
    alpha: float
    a: float
    d: int
    n: int
    p: float
    seed: int
    gen_error: float
    diverged: bool

    def __post_init__(self):
        # The annotations are strings here; bool("0") is True, so a bool is parsed through int.
        parse = {"int": int, "float": float, "bool": lambda v: bool(int(v))}
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, parse[f.type](getattr(self, f.name)))


RUN_RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(RunRecord))


def _derive_seed(master_seed: int, key: tuple) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])


def _population_rows(gen: np.random.Generator, a: float, out: np.ndarray, rows=None) -> np.ndarray:
    """Fill out with points of the population law: coordinates uniform on (-a/2, a/2).

    Without rows, out (n, d) holds the next n rows that gen draws, in order.
    With rows, sorted distinct indices, out[j] holds row rows[j] of the
    population that gen would draw next: PCG64 spends one 64-bit output per
    double, so advancing it d outputs skips a row. The uniforms are scaled as
    Generator.uniform scales them, low + (high - low) * u, so the bits are
    those of gen.uniform(-a / 2, a / 2, size=(N, d)) at the same rows.
    """
    low, high = -a / 2.0, a / 2.0
    if rows is None:
        gen.random(out=out)
    else:
        d, start = out.shape[1], 0
        for row, i in zip(out, rows):
            gen.bit_generator.advance((i - start) * d)
            gen.random(out=row)
            start = i + 1
    out *= high - low
    out += low
    return out


def generate_population(a: float, d: int, N: int, stream: RngStream) -> np.ndarray:
    """N i.i.d. points with coordinates uniform on (-a/2, a/2)."""
    positive("a", a)
    d, N = integer("d", d, least=1), integer("N", N, least=1)
    return _population_rows(stream.generator, a, np.empty((N, d)))


def _population_chunks(a: float, d: int, N: int, stream: RngStream):
    """generate_population(a, d, N, stream) in successive chunks of _RISK_COLS rows.

    Each is a view of one reused buffer, which the next chunk overwrites.
    """
    chunk = np.empty((min(N, _RISK_COLS), d))
    for start in range(0, N, _RISK_COLS):
        yield _population_rows(stream.generator, a, chunk[: N - start])


def surrogate_risk(theta, data, p: float):
    """(1/m) sum |theta^T x_i|^p over the m rows of data, for one theta or a (k, d) stack.

    The data is scored in chunks of _RISK_COLS rows (see _chunked_risks), so
    a theta's risk has the same bits at any row of the stack and whatever
    the other rows hold. One theta gives a float, a stack an array of k risks.
    """
    loss_power(p)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    thetas = np.atleast_2d(theta)
    data = sample_rows(data)
    if thetas.ndim != 2 or data.shape[1] != thetas.shape[1]:
        raise ShapeError(f"data of shape {data.shape} does not match theta of shape {theta.shape}")
    m = data.shape[0]
    chunks = (data[col : col + _RISK_COLS] for col in range(0, m, _RISK_COLS))
    risks = _chunked_risks(thetas, chunks, m, p)
    return float(risks[0]) if theta.ndim == 1 else risks


def _chunked_risks(thetas: np.ndarray, chunks, m: int, p: float) -> np.ndarray:
    """The risks of a (k, d) stack on m data rows that arrive as an iterable of chunks.

    Every risk is one row of the same fixed-shape (_RISK_ROWS, d) @ (d, w)
    products, its theta written into a zeroed block, one product per chunk
    of w = _RISK_COLS float64 data rows (the last chunk holds the rest). Each
    row adds up its chunks' sums in order and divides by m once. The chunk
    loop runs outside the block loop, so each chunk is read once whatever k
    is, and chunks may be drawn one at a time.
    """
    k, d = thetas.shape
    blocks = np.zeros((-(-k // _RISK_ROWS), _RISK_ROWS, d))
    blocks.reshape(-1, d)[:k] = thetas
    scores = np.empty((_RISK_ROWS, min(m, _RISK_COLS)))
    sums = np.zeros(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            out = scores[:, : len(chunk)]
            for start, block in zip(range(0, k, _RISK_ROWS), blocks):
                np.matmul(block, chunk.T, out=out)
                used = out[: k - start]
                np.abs(used, out=used)
                np.power(used, p, out=used)
                sums[start : start + len(used)] += used.sum(axis=1)
    return sums / m


def generalization_error(theta, train, population, p: float) -> float:
    """|empirical risk - population risk| at theta."""
    with np.errstate(invalid="ignore"):
        return abs(surrogate_risk(theta, train, p) - surrogate_risk(theta, population, p))


def _grid_point_records(cfg: SweepConfig, di: int, ai: int, replications) -> list[RunRecord]:
    """The records of every alpha x replication r at grid point (d_grid[di], a_grid[ai]).

    Seed (master_seed, (di, ai, r)) opens replication r's stream, which every
    alpha shares (common random numbers): one training resample and
    QuadraticProblem, and per alpha a fresh fork(1), from which final_iterate
    draws the same h, uniforms and exponentials. The population (seed
    (di, ai)) is never formed: a replication draws its resampled rows from
    the population's stream, advancing past the rest, and the population
    risks are scored on chunks drawn from a fresh stream one after another,
    with the bits of generate_population(...)[idx] and of the whole array.
    One surrogate_risk call per replication scores the train risks, and one
    chunked pass every iterate on the population, a diverged one as a zero
    row. Records come alpha-major.
    """
    d, a, N = cfg.d_grid[di], cfg.a_grid[ai], cfg.population_size
    sims = [SimConfig(eta=cfg.eta, steps=cfg.steps, alpha=alpha, noise_scale=cfg.noise_scale)
            for alpha in cfg.alpha_grid]
    population_seed = _derive_seed(cfg.master_seed, (di, ai))
    thetas = np.zeros((len(replications), len(sims), d))
    # A diverged iterate gets a NaN train risk, so its gen_error is NaN.
    train_risks = np.full(thetas.shape[:2], np.nan)
    seeds = []
    for i, r in enumerate(replications):
        seeds.append(_derive_seed(cfg.master_seed, (di, ai, r)))
        stream = RngStream(seeds[-1])
        idx = stream.fork(0).generator.integers(0, N, size=cfg.n)
        rows, inverse = np.unique(idx, return_inverse=True)
        train = _population_rows(RngStream(population_seed).generator, a,
                                 np.empty((len(rows), d)), rows.tolist())[inverse]
        problem = QuadraticProblem(train)
        ok = np.zeros(len(sims), dtype=bool)
        for k, sim in enumerate(sims):
            theta, diverged = final_iterate(problem, sim, stream.fork(1))
            if not diverged:
                thetas[i, k], ok[k] = theta, True
        train_risks[i, ok] = surrogate_risk(thetas[i], train, cfg.p)[ok]
    population = _population_chunks(a, d, N, RngStream(population_seed))
    pop_risks = _chunked_risks(thetas.reshape(-1, d), population, N, cfg.p)
    with np.errstate(invalid="ignore"):
        gens = np.abs(train_risks - pop_risks.reshape(train_risks.shape))
    return [
        RunRecord(r, alpha, a, d, cfg.n, cfg.p, seed, gen, not math.isfinite(gen))
        for k, alpha in enumerate(cfg.alpha_grid)
        for r, seed, gen in zip(replications, seeds, gens[:, k])
    ]


def run_synthetic_sweep(cfg: SweepConfig) -> list[RunRecord]:
    """One RunRecord per (grid point x replication x alpha), in canonical grid order.

    Every record's randomness derives from its grid point and replication
    (see _grid_point_records), so any execution schedule produces the
    identical record set.
    """
    return [record for di in range(len(cfg.d_grid)) for ai in range(len(cfg.a_grid))
            for record in _grid_point_records(cfg, di, ai, range(cfg.replications))]


def replay_record(cfg: SweepConfig, record: RunRecord) -> RunRecord:
    """The record as the sweep's own call recomputes it, its seed derived from cfg, not read."""
    di, ai = cfg.d_grid.index(record.d), cfg.a_grid.index(record.a)
    records = _grid_point_records(cfg, di, ai, [record.replication])
    return records[cfg.alpha_grid.index(record.alpha)]


@dataclass(frozen=True, eq=False)
class StabilityGapEstimate:
    """Max-over-probes Monte-Carlo gap with its standard error at the arg-max probe.

    stderr is the sample standard error of the per-pair loss differences.
    When alpha < 2 <= 2p those differences have infinite variance, so it
    understates the gap's error and is no valid yardstick there.
    """

    gap: float
    stderr: float
    probe_index: int
    per_probe_gap: np.ndarray


def empirical_stability_gap(
    pair: NeighborPair,
    probe_points,
    p: float,
    alpha: float,
    sim: SimConfig,
    n_mc: int,
    stream: RngStream,
) -> StabilityGapEstimate:
    """Monte-Carlo estimate of max_z |E f(theta, z) - E f(theta_hat, z)|.

    theta and theta_hat are coupled stationary draws of the recursion on the
    two datasets; the returned gap is the signed difference at the probe
    with the largest absolute gap. `alpha` must be the chain's `sim.alpha`.
    """
    if sim.alpha != alpha:
        raise ParameterError(f"alpha={alpha} differs from the chain's sim.alpha={sim.alpha}")
    probes = _gap_probes(pair, probe_points, p, alpha)
    n_mc = integer("n_mc", n_mc)
    if n_mc < 100:
        warnings.warn(
            f"n_mc={n_mc} is very small; the gap estimate will be dominated by noise",
            RuntimeWarning,
            stacklevel=2,
        )
    theta, theta_hat = coupled_stationary_draws(pair.problem, pair.problem_hat, sim, n_mc, stream)
    diffs = np.abs(theta @ probes.T) ** p - np.abs(theta_hat @ probes.T) ** p
    gaps = diffs.mean(axis=0)
    j = int(np.argmax(np.abs(gaps)))
    return StabilityGapEstimate(
        gap=float(gaps[j]),
        stderr=float(diffs.std(axis=0, ddof=1)[j] / math.sqrt(n_mc)),
        probe_index=j,
        per_probe_gap=gaps,
    )


def cauchy_doubling_check(values, initial_window: int = 1000):
    """Whether prefix means settle under window doubling.

    Compares the running mean over the first w, 2w, 4w, ... values; returns
    (converged, max_relative_change), converged when no doubling moves the
    mean by more than 10 %. Divergent-mean losses (p >= alpha) keep drifting
    by a roughly constant factor per doubling and fail.
    """
    # max(0.0, nan) is 0.0, so a nan window would read as settled: sample_rows refuses it.
    x = sample_rows(values).reshape(-1)
    initial_window = integer("initial_window", initial_window, least=1)
    if x.shape[0] < 2 * initial_window:
        raise ShapeError(
            f"need at least 2*initial_window = {2 * initial_window} values, got {x.shape[0]}"
        )
    window = initial_window
    prev = float(np.mean(x[:window]))
    max_change = 0.0
    while 2 * window <= x.shape[0]:
        window *= 2
        cur = float(np.mean(x[:window]))
        denom = max(abs(prev), 1e-300)
        max_change = max(max_change, abs(cur - prev) / denom)
        prev = cur
    return max_change <= 0.1, max_change


def aggregate_median_iqr(records) -> list[dict]:
    """Median and quartiles of gen_error per (alpha, a, d) group.

    Divergent (or nonfinite) records are excluded from the quantiles but
    counted in n_diverged; a group with no usable records reports NaN
    quantiles alongside its divergence count.
    """
    group_keys = AGGREGATE_COLUMNS[:3]
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = tuple(getattr(rec, k) for k in group_keys)
        groups.setdefault(key, []).append(rec)
    table = []
    for key, recs in groups.items():
        usable = [r.gen_error for r in recs if not r.diverged and math.isfinite(r.gen_error)]
        n_diverged = len(recs) - len(usable)
        if usable:
            q25, med, q75 = (float(v) for v in np.percentile(usable, [25.0, 50.0, 75.0]))
        else:
            q25 = med = q75 = float("nan")
        row = dict(zip(group_keys, key))
        row.update(median=med, q25=q25, q75=q75, n_diverged=n_diverged)
        table.append(row)
    return table


def _write_csv(path, header, rows) -> None:
    """Write a CSV: int, bool and np.integer values as integers, all others as repr(float)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # np.float64 subclasses float but reprs as "np.float64(...)" under numpy 2.
            writer.writerow(
                [int(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row]
            )


def write_run_records(records, path) -> None:
    _write_csv(path, RUN_RECORD_COLUMNS, map(dataclasses.astuple, records))


def read_run_records(path) -> list[RunRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RUN_RECORD_COLUMNS:
            raise ShapeError(f"unexpected record CSV header: {header}")
        return [RunRecord(*row) for row in reader]


def write_aggregate(table, path) -> None:
    _write_csv(path, AGGREGATE_COLUMNS, ([row[c] for c in AGGREGATE_COLUMNS] for row in table))


def write_sweep_svg(table, path, a: float, d: int) -> None:
    """Static median-with-IQR-band plot of gen_error against alpha for one (a, d)."""
    rows = sorted(
        (r for r in table if r["a"] == a and r["d"] == d and math.isfinite(r["median"])),
        key=lambda r: r["alpha"],
    )
    if not rows:
        raise ShapeError(f"no finite aggregate rows for a={a}, d={d}")
    alphas = [r["alpha"] for r in rows]
    med = [r["median"] for r in rows]
    lo = [r["q25"] for r in rows]
    hi = [r["q75"] for r in rows]

    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 50
    x0, x1 = min(alphas), max(alphas)
    y0, y1 = min(lo), max(hi)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

    band = " ".join(
        [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(alphas, hi)]
        + [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(reversed(alphas), reversed(lo))]
    )
    line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(alphas, med))
    xticks = np.linspace(x0, x1, 5)
    yticks = np.linspace(y0, y1, 5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">generalization error vs alpha (a={a:g}, d={d})</text>',
        f'<polygon points="{band}" fill="#7aa6d8" fill-opacity="0.35" stroke="none"/>',
        f'<polyline points="{line}" fill="none" stroke="#1f4e8c" stroke-width="2"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for t in xticks:
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{height - mb}" x2="{sx(t):.2f}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{height - mb + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t:.3g}</text>'
        )
    for t in yticks:
        parts.append(
            f'<line x1="{ml - 5}" y1="{sy(t):.2f}" x2="{ml}" y2="{sy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{sy(t) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">alpha</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
