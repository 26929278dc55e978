"""Independent oracles and output checks for the benchmark workloads.

Nothing here imports the program: every expected value comes from a
closed form, from numpy or from scipy. Each ``check_*`` function returns a
list of failure messages; an empty list means the outputs passed. scipy is
imported inside the functions that use it, so that it never counts towards
a workload's set-up time or peak memory.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Deviations are judged in standard errors. Over 8 calibration chains x 25
# frequencies the largest on correct outputs was 3.2; samples at another tail
# index deviate by 14 or more, samples 10 % too wide by 6 to 17.
Z_LIMIT = 6.0
# The coupled-chain gap estimator averages a quantity with infinite variance
# (alpha < 2 <= 2p), so its own stderr is not a valid yardstick, and single
# estimates have heavy-tailed errors. The check takes the median relative
# error over a run's estimates: over 48 calibration estimates at alpha = 1.5
# the errors lay within +-0.15 (median -0.04); a doubled gap reads +1.
GAP_MEDIAN_REL_TOL = 0.25
# Slack for quadrature resolution where the 1-d bound is tight (the exact
# value reaches 0.999998 of the bound).
BOUND_REL_SLACK = 1e-6
CLOSED_FORM_ABS_TOL = 1e-9
QUADRATURE_ABS_TOL = 1e-8
IDENTITY_REL_TOL = 1e-8
THRESHOLD_ABS_TOL = 1e-8


# ----------------------------------------------------------------- sweep


def check_sweep_records(rows: list[dict], expected: int) -> list[str]:
    """records.csv rows: the full grid, nothing diverged, finite errors >= 0."""
    bad = []
    if len(rows) != expected:
        bad.append(f"records.csv has {len(rows)} rows, expected {expected}")
    for r in rows:
        g = float(r["gen_error"])
        if int(r["diverged"]) != 0:
            bad.append(f"replication {r['replication']} at alpha {r['alpha']} diverged")
        elif not (math.isfinite(g) and g >= 0.0):
            bad.append(f"gen_error {g!r} at alpha {r['alpha']} is not finite and >= 0")
    return bad


def check_aggregate(rows: list[dict], aggregate: list[dict]) -> list[str]:
    """aggregate.csv equals quartiles recomputed from records.csv."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        key = (float(r["alpha"]), float(r["a"]), int(r["d"]))
        groups.setdefault(key, []).append(float(r["gen_error"]))
    bad = []
    if len(aggregate) != len(groups):
        bad.append(f"aggregate.csv has {len(aggregate)} rows for {len(groups)} groups")
    for row in aggregate:
        key = (float(row["alpha"]), float(row["a"]), int(row["d"]))
        values = sorted(groups.get(key, []))
        if not values:
            bad.append(f"aggregate row {key} has no records")
            continue
        if len(values) == 1:
            want = (values[0],) * 3
        else:
            want = tuple(statistics.quantiles(values, n=4, method="inclusive"))
        got = (float(row["q25"]), float(row["median"]), float(row["q75"]))
        if not all(math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-300) for g, w in zip(got, want)):
            bad.append(f"aggregate row {key}: quartiles {got} != recomputed {want}")
        if int(row["n_diverged"]) != 0:
            bad.append(f"aggregate row {key} counts {row['n_diverged']} diverged")
    return bad


def _standard_error(values: np.ndarray, batches: int) -> np.ndarray:
    """Batch-means standard error of the column means of ``values``."""
    usable = values.shape[0] // batches * batches
    means = values[:usable].reshape(batches, -1, values.shape[1]).mean(axis=1)
    return means.std(axis=0, ddof=1) / math.sqrt(batches)


def check_residual_law(
    iterates: np.ndarray, A: np.ndarray, b: np.ndarray, eta: float, alpha: float,
    noise_scale: float,
) -> list[str]:
    """The recursion residuals follow the driving law, coordinate by coordinate.

    theta_{k+1} - (I - eta A) theta_k - eta b is eta^(1/alpha) noise_scale
    times an isotropic standard alpha-stable vector, whose coordinates have
    characteristic function exp(-eta noise_scale^alpha |u|^alpha). Steps are
    independent, so each step's coordinate mean of cos(u r) is one batch.
    """
    theta = iterates[:-1]
    resid = iterates[1:] - (theta - eta * (theta @ A.T - b))
    scale_a = eta * noise_scale**alpha
    targets = np.array([0.1, 0.3, 0.6, 1.0, 1.5, 2.5])
    bad = []
    for t in targets:
        u = (t / scale_a) ** (1.0 / alpha)
        cos_means = np.cos(u * resid).mean(axis=1)
        sin_means = np.sin(u * resid).mean(axis=1)
        n = cos_means.shape[0]
        for part, means, want in (("real", cos_means, math.exp(-t)), ("imag", sin_means, 0.0)):
            se = float(means.std(ddof=1)) / math.sqrt(n)
            dev = abs(float(means.mean()) - want)
            if dev > Z_LIMIT * se + 1e-12:
                bad.append(
                    f"residual char. fn ({part}) at |u|^alpha scale {t}: off by "
                    f"{dev:.3g} = {dev / max(se, 1e-300):.1f} standard errors (alpha {alpha})"
                )
    return bad


def check_generalization_error(theta, train, population, p: float, reported: float) -> list[str]:
    want = abs(
        float(np.mean(np.abs(train @ theta) ** p)) - float(np.mean(np.abs(population @ theta) ** p))
    )
    if not math.isclose(reported, want, rel_tol=1e-9, abs_tol=1e-15):
        return [f"generalization error {reported!r} != recomputed {want!r}"]
    return []


# ------------------------------------------------------------ long chain


def discrete_scale_alpha(eta: float, s: float, alpha: float) -> float:
    """scale^alpha of the Euler chain's exact stationary law in one dimension.

    theta_{k+1} = m theta_k + eta^(1/alpha) xi_k with m = 1 - eta s has the
    stationary law SaS with scale^alpha = eta / (1 - |m|^alpha).
    """
    m = 1.0 - eta * s
    return eta / (1.0 - abs(m) ** alpha)


def check_chain_char_fn(
    samples: np.ndarray, grid: np.ndarray, ecf: np.ndarray, alpha: float, eta: float, s: float,
    batches: int = 100,
) -> list[str]:
    """The chain's empirical char. fn matches the exact discrete law.

    ``ecf`` is the program's complex empirical characteristic function on
    ``grid``; the standard errors come from batch means of the samples, which
    absorb the correlation left between thinned draws.
    """
    x = np.asarray(samples, dtype=float).reshape(-1)
    ecf = np.asarray(ecf, dtype=complex)
    own = np.exp(1j * np.outer(x, grid))
    bad = []
    if not np.allclose(ecf, own.mean(axis=0), rtol=0.0, atol=1e-12):
        bad.append("empirical char. fn differs from the sample mean of exp(iux)")
    phi = np.exp(-discrete_scale_alpha(eta, s, alpha) * np.abs(grid) ** alpha)
    se_re = _standard_error(own.real, batches)
    se_im = _standard_error(own.imag, batches)
    dev_re = np.abs(ecf.real - phi)
    dev_im = np.abs(ecf.imag)
    over = (dev_re > Z_LIMIT * se_re + 1e-12) | (dev_im > Z_LIMIT * se_im + 1e-12)
    for j in np.flatnonzero(over):
        bad.append(
            f"char. fn at u={grid[j]:.3g}: {ecf[j]:.4f} vs exact {phi[j]:.4f} "
            f"(standard errors {se_re[j]:.2g}, {se_im[j]:.2g}; alpha {alpha})"
        )
    return bad


# ----------------------------------------------------------- coupled gap


def exact_gap(n: int, alpha: float, eta: float, burn: int) -> float:
    """E|theta| - E|theta_hat| for the coupled chains after ``burn`` steps from 0.

    X = ones(n) has s = 1; X_hat sets one row to 2, so s_hat = (n + 3) / n.
    Each chain is SaS with scale^alpha = eta (1 - |m|^(alpha burn)) / (1 - |m|^alpha),
    m = 1 - eta s, and E|X| = 2 Gamma(1 - 1/alpha) scale / pi.
    """
    out = []
    for s in (1.0, (n + 3.0) / n):
        m = abs(1.0 - eta * s)
        scale_a = eta * (1.0 - m ** (alpha * burn)) / (1.0 - m**alpha)
        out.append(2.0 * math.gamma(1.0 - 1.0 / alpha) * scale_a ** (1.0 / alpha) / math.pi)
    return out[0] - out[1]


def check_gaps(estimates: list[tuple[int, float]], alpha: float, eta: float, burn: int) -> list[str]:
    """Each gap is finite; their median relative error is within the tolerance."""
    bad = []
    rel = []
    for n, gap in estimates:
        if not math.isfinite(gap):
            bad.append(f"gap at n={n} is {gap!r}")
            continue
        rel.append(gap / exact_gap(n, alpha, eta, burn) - 1.0)
    if rel:
        med = statistics.median(rel)
        if abs(med) > GAP_MEDIAN_REL_TOL:
            bad.append(
                f"median relative error of {len(rel)} gaps is {med:+.3f} "
                f"(tolerance {GAP_MEDIAN_REL_TOL})"
            )
    return bad


# ---------------------------------------------------------------- theory


def gram(X: np.ndarray) -> np.ndarray:
    return X.T @ X / X.shape[0]


def check_bound_dominates(exact: np.ndarray, bound: np.ndarray) -> list[str]:
    over = np.flatnonzero(exact > bound * (1.0 + BOUND_REL_SLACK))
    return [f"exact difference {exact[j]:.6g} exceeds bound {bound[j]:.6g}" for j in over]


def check_alpha2_closed_form(X, X_hat, us: np.ndarray, exact: np.ndarray) -> list[str]:
    """At alpha = 2 the exponent is u^T A^-1 u / 2 for any positive definite A."""
    e = np.einsum("ij,ji->i", us, np.linalg.solve(gram(X), us.T)) / 2.0
    e_hat = np.einsum("ij,ji->i", us, np.linalg.solve(gram(X_hat), us.T)) / 2.0
    want = np.abs(np.exp(-e) - np.exp(-e_hat))
    off = np.flatnonzero(np.abs(exact - want) > CLOSED_FORM_ABS_TOL)
    return [f"alpha=2 difference {exact[j]!r} != closed form {want[j]!r}" for j in off]


def quadrature_exponent(A: np.ndarray, alpha: float, u: np.ndarray) -> float:
    """integral_0^inf ||exp(-sA) u||^alpha ds by scipy's adaptive quadrature."""
    from scipy.integrate import quad

    lam, q = np.linalg.eigh(A)
    w = q.T @ u

    def f(s):
        return float(np.sum((np.exp(-s * lam) * w) ** 2)) ** (alpha / 2.0)

    value, _ = quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return value


def check_quadrature(X, X_hat, alpha: float, us: np.ndarray, exact: np.ndarray) -> list[str]:
    bad = []
    for u, got in zip(us, exact):
        want = abs(
            math.exp(-quadrature_exponent(gram(X), alpha, u))
            - math.exp(-quadrature_exponent(gram(X_hat), alpha, u))
        )
        if abs(got - want) > QUADRATURE_ABS_TOL:
            bad.append(f"difference {got!r} != scipy quadrature {want!r} (alpha {alpha})")
    return bad


def check_identity_drift(us: np.ndarray, alpha: float, values) -> list[str]:
    """With A = I the stationary char. fn is exp(-||u||^alpha / alpha)."""
    bad = []
    for u, got in zip(us, values):
        want = math.exp(-float(np.linalg.norm(u)) ** alpha / alpha)
        if abs(got - want) > IDENTITY_REL_TOL * want:
            bad.append(f"identity drift char. fn {got!r} != {want!r} (alpha {alpha})")
    return bad


def threshold_oracle(level: float, p: float) -> float | None:
    """Smallest alpha0 in (p, 2] with exp(1 + 2/p - log alpha0 - psi(1 - p/alpha0)) <= level.

    Evaluated with scipy's digamma: a fine scan finds the first crossing and
    Brent's method refines it. None when no alpha0 qualifies.
    """
    from scipy.optimize import brentq
    from scipy.special import digamma

    def log_excess(a):
        return 1.0 + 2.0 / p - np.log(a) - digamma(1.0 - p / a) - math.log(level)

    grid = np.linspace(p + 1e-4 * (2.0 - p), 2.0, 20001)
    ok = np.flatnonzero(log_excess(grid) <= 0.0)
    if ok.size == 0:
        return None
    if ok[0] == 0:
        return float(grid[0])
    return brentq(log_excess, grid[ok[0] - 1], grid[ok[0]], xtol=1e-14, rtol=1e-14)


def check_threshold(level: float, p: float, found: float | None) -> list[str]:
    want = threshold_oracle(level, p)
    if None in (want, found):
        agree = found is want
    else:
        agree = abs(found - want) <= THRESHOLD_ABS_TOL
    return [] if agree else [f"threshold at level {level:.6g}: program {found!r}, oracle {want!r}"]
