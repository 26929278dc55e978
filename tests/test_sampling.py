import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stableou import (
    DegenerateDataError,
    ParameterError,
    RngStream,
    ShapeError,
    StableParams,
    empirical_char_fn,
    sample_isotropic_stable,
    sample_sas_scalar,
    sample_skewed_positive_stable,
    sas_abs_moment,
)
from stableou import sampling
from stableou.sampling import (_BLOCK, _angles, _bad_angles, _bad_exponentials, _exponentials,
                               _isotropic_blocks, _positive_exponentials, _uniform_angles)


@pytest.mark.parametrize("alpha", [0.0, -0.3, 2.0001, 3.0])
def test_params_reject_bad_alpha(alpha):
    with pytest.raises(ParameterError):
        StableParams(alpha=alpha, sigma=1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_params_reject_bad_sigma(sigma):
    with pytest.raises(ParameterError):
        StableParams(alpha=1.5, sigma=sigma)


def test_params_accept_boundaries():
    StableParams(alpha=2.0, sigma=1.0)
    StableParams(alpha=0.1, sigma=1e-6)


def test_scalar_draws_are_deterministic():
    p = StableParams(1.7, 2.0)
    a = sample_sas_scalar(p, RngStream(5), size=100)
    b = sample_sas_scalar(p, RngStream(5), size=100)
    np.testing.assert_array_equal(a, b)


def test_gaussian_case_variance():
    x = sample_sas_scalar(StableParams(2.0, 1.0), RngStream(0), size=100000)
    assert np.var(x) == pytest.approx(2.0, rel=0.05)


def test_gaussian_case_distribution():
    x = sample_sas_scalar(StableParams(2.0, 1.0), RngStream(1), size=100000)
    stat = scipy.stats.kstest(x, scipy.stats.norm(scale=math.sqrt(2.0)).cdf).statistic
    assert stat < 0.02


def test_cauchy_case_interquartile_range():
    x = sample_sas_scalar(StableParams(1.0, 1.0), RngStream(2), size=100000)
    q75, q25 = np.percentile(x, [75, 25])
    assert q75 - q25 == pytest.approx(2.0, rel=0.05)


def test_cauchy_case_distribution():
    x = sample_sas_scalar(StableParams(1.0, 1.0), RngStream(3), size=100000)
    stat = scipy.stats.kstest(x, scipy.stats.cauchy(scale=1.0).cdf).statistic
    assert stat < 0.02


def test_char_fn_at_unit_frequency():
    x = sample_sas_scalar(StableParams(1.5, 1.0), RngStream(4), size=100000)
    value = empirical_char_fn(x, 1.0)
    assert abs(value - math.exp(-1.0)) < 0.01


def test_draws_are_continuous_across_alpha_one():
    # One formula serves every alpha < 2; draws on either side of alpha = 1
    # must stay close in distribution.
    lo = sample_sas_scalar(StableParams(1.0 - 5e-9, 1.0), RngStream(6), size=50000)
    hi = sample_sas_scalar(StableParams(1.0 + 2e-7, 1.0), RngStream(6), size=50000)
    stat = scipy.stats.ks_2samp(lo, hi).statistic
    assert stat < 0.02


def test_alpha_one_draws_are_the_cauchy_tangent():
    # At alpha = 1 the CMS transform reduces to sigma tan(U), U the angle draws.
    x = sample_sas_scalar(StableParams(1.0, 2.5), RngStream(6), size=100000)
    u = _uniform_angles(RngStream(6).generator, 100000)
    np.testing.assert_allclose(x, 2.5 * np.tan(u), rtol=1e-15, atol=0.0)


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_scale_acts_linearly_on_draws(sigma, alpha):
    base = sample_sas_scalar(StableParams(alpha, 1.0), RngStream(8), size=64)
    scaled = sample_sas_scalar(StableParams(alpha, sigma), RngStream(8), size=64)
    np.testing.assert_allclose(scaled, sigma * base, rtol=1e-12)


def test_stability_under_addition():
    # Sum of K i.i.d. SaS draws, divided by K^(1/alpha), is again SaS of the
    # same scale.
    alpha, k, n = 1.5, 10, 100000
    draws = sample_sas_scalar(StableParams(alpha, 1.0), RngStream(9), size=k * n)
    sums = draws.reshape(k, n).sum(axis=0) / k ** (1.0 / alpha)
    for u in (0.3, 1.0, 2.0):
        target = math.exp(-abs(u) ** alpha)
        assert abs(empirical_char_fn(sums, u) - target) < 0.02


def test_char_fn_is_nearly_real():
    n = 100000
    x = sample_sas_scalar(StableParams(1.3, 1.0), RngStream(10), size=n)
    for u in (0.5, 1.0, 3.0):
        assert abs(empirical_char_fn(x, u).imag) < 3.0 / math.sqrt(n)
    mirrored = np.concatenate([x, -x])
    assert abs(empirical_char_fn(mirrored, 1.0).imag) < 1e-15


@pytest.mark.parametrize("alpha_prime", [0.0, 1.0, 1.3, -0.2])
def test_subordinator_rejects_bad_index(alpha_prime):
    with pytest.raises(ParameterError):
        sample_skewed_positive_stable(alpha_prime, RngStream(0), size=1)


class EndpointFirst:
    """A generator whose first uniform draw holds the lower endpoint and first exponential a 0.

    Every later draw comes from numpy's generator at the same seed.
    """

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = []

    def uniform(self, low, high, size):
        u = self.gen.uniform(low, high, size=size)
        if "uniform" not in self.calls:
            u[1] = low
        self.calls.append("uniform")
        return u

    def standard_exponential(self, size):
        w = self.gen.standard_exponential(size=size)
        if "standard_exponential" not in self.calls:
            w[2] = 0.0
        self.calls.append("standard_exponential")
        return w


@pytest.mark.parametrize("draw", [
    lambda stream: sample_sas_scalar(StableParams(1.5, 1.0), stream, size=4),
    lambda stream: sample_skewed_positive_stable(0.75, stream, size=4),
], ids=["sas_scalar", "skewed_positive"])
def test_endpoint_draws_are_redrawn(draw):
    # uniform() can return its lower endpoint -pi/2 and an exponential can be 0;
    # cos(-pi/2) and a zero divisor would break the CMS transform, so each is redrawn.
    gen = EndpointFirst(8)
    x = draw(SimpleNamespace(generator=gen))
    assert gen.calls == ["uniform", "uniform", "standard_exponential", "standard_exponential"]
    assert np.all(np.isfinite(x)) and np.all(x != 0.0)


def test_subordinator_draws_are_positive():
    for alpha_prime in (0.25, 0.5, 0.75, 0.95):
        a = sample_skewed_positive_stable(alpha_prime, RngStream(11), size=250000)
        assert np.all(a > 0.0)


def test_subordinator_half_matches_levy_law():
    # Laplace transform exp(-sqrt(lambda)) is the Levy law with scale 1/2,
    # which has a closed-form CDF.
    a = sample_skewed_positive_stable(0.5, RngStream(12), size=100000)
    law = scipy.stats.levy(scale=0.5)
    assert np.median(a) == pytest.approx(law.median(), rel=0.02)
    assert scipy.stats.kstest(a, law.cdf).statistic < 0.02


def test_subordinator_laplace_transform():
    a = sample_skewed_positive_stable(0.75, RngStream(13), size=100000)
    assert np.mean(np.exp(-a)) == pytest.approx(math.exp(-1.0), abs=0.01)


@pytest.mark.parametrize("alpha_prime", [0.005, 0.5, 0.75, 0.999])
@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_subordinator_in_blocks_matches_the_one_expression_transform(alpha_prime, size):
    # The transform ran as one expression over all the angles and exponentials;
    # in blocks every value, inf and nan included, must come out bit for bit.
    gen = RngStream(19).generator
    u = _uniform_angles(gen, size)
    w = _positive_exponentials(gen, size)
    shifted = alpha_prime * (u + np.pi / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        expected = (np.sin(shifted) / np.cos(u) ** (1.0 / alpha_prime)
                    * (np.cos(u - shifted) / w) ** ((1.0 - alpha_prime) / alpha_prime))
    got = sample_skewed_positive_stable(alpha_prime, RngStream(19), size)
    assert np.array_equal(got, expected, equal_nan=True)
    if alpha_prime == 0.005 and size >= _BLOCK:
        assert np.isinf(expected).any() and np.isnan(expected).any()


@pytest.mark.parametrize("widened", [False, True], ids=["rules", "widened_rules"])
@pytest.mark.parametrize("rows, size", [(1, 300), (7, 7 * 40 + 3), (_BLOCK, 2 * _BLOCK + 5)])
@pytest.mark.parametrize("alpha", [0.3, 1.5, 1.9, 2.0])
def test_isotropic_blocks_are_the_one_block_draw_in_order(alpha, rows, size, widened, monkeypatch):
    # The same values and stream end state as one block; a consumer that
    # stops early leaves the later Gaussian rows undrawn. Real draws almost
    # never need a redraw, so widened rules (|u| >= 1.5, w <= 0.05) refuse
    # about one angle and one exponential in 20, and some of their redraws
    # too, for the block-at-a-time draw to replay.
    if widened:
        monkeypatch.setattr(sampling, "_ANGLE_LIMIT", 1.5)
        monkeypatch.setattr(sampling, "_EXPONENTIAL_FLOOR", 0.05)
        assert _bad_angles(_angles(RngStream(20).generator, size)).size > 0
    params = StableParams(alpha, 0.7)
    whole, blocked = RngStream(20), RngStream(20)
    expected = sample_isotropic_stable(3, params, whole, size)
    blocks = list(_isotropic_blocks(3, params, blocked, size, rows))
    assert [len(b) for b in blocks] == [rows] * (size // rows) + [size % rows] * (size % rows > 0)
    np.testing.assert_array_equal(np.concatenate(blocks), expected)
    assert blocked.generator.bit_generator.state == whole.generator.bit_generator.state
    stopped, reference = RngStream(20), RngStream(20)
    next(_isotropic_blocks(3, params, stopped, size, rows))
    if alpha != 2.0:
        sample_skewed_positive_stable(alpha / 2.0, reference, size)
    reference.generator.standard_normal((rows, 3))
    assert stopped.generator.bit_generator.state == reference.generator.bit_generator.state


def test_widened_rules_redraw_in_several_rounds(monkeypatch):
    # On the stream and size of the test above, the widened rules refuse some
    # redrawn angles again, so the replay runs more than one round.
    monkeypatch.setattr(sampling, "_ANGLE_LIMIT", 1.5)
    monkeypatch.setattr(sampling, "_EXPONENTIAL_FLOOR", 0.05)
    gen, rounds = RngStream(20).generator, []

    def counted(draw):
        def wrapped(gen, n):
            rounds.append(n)
            return draw(gen, n)
        return wrapped

    sampling._redraw(gen, counted(_angles), _bad_angles, _angles(gen, 2 * _BLOCK + 5))
    assert len(rounds) >= 2


def test_redraw_search_allocates_nothing_the_size_of_the_draw():
    # A redraw is about 2^-53 likely per value, so the extremes are tested
    # before any mask is made; a bool mask of these draws takes 100 kB.
    gen = RngStream(21).generator
    u, w = _angles(gen, 10**5), _exponentials(gen, 10**5)
    tracemalloc.start()
    try:
        assert _bad_angles(u).size == 0 and _bad_exponentials(w).size == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**4


def test_isotropic_rejects_bad_dimension():
    with pytest.raises(ParameterError):
        sample_isotropic_stable(0, StableParams(1.5, 1.0), RngStream(0), size=1)


@pytest.mark.parametrize("alpha, sigma, d, seed", [
    (0.3, 1.0, 1, 40), (1.1, 0.7, 3, 41), (1.5, 1.0, 7, 42), (1.99, 2.5, 2, 43), (2.0, 1.3, 4, 44),
])
def test_isotropic_draws_rebuild_from_the_raw_draws(alpha, sigma, d, seed):
    # The subordinator's CMS transform on its angles and exponentials, then the
    # Gaussian block, in that stream order: the draws must not move by one bit.
    n = 500
    gen = RngStream(seed).generator
    if alpha == 2.0:
        expected = sigma * np.sqrt(2.0) * gen.standard_normal((n, d))
    else:
        ap = alpha / 2.0
        u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
        w = gen.standard_exponential(size=n)
        shifted = ap * (u + np.pi / 2.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a = (np.sin(shifted) / np.cos(u) ** (1.0 / ap)
                 * (np.cos(u - shifted) / w) ** ((1.0 - ap) / ap))
            expected = sigma * np.sqrt(2.0 * a)[:, None] * gen.standard_normal((n, d))
    got = sample_isotropic_stable(d, StableParams(alpha, sigma), RngStream(seed), size=n)
    np.testing.assert_array_equal(got, expected)


def test_isotropic_gaussian_coordinates():
    x = sample_isotropic_stable(3, StableParams(2.0, 1.0), RngStream(14), size=100000)
    assert x.shape == (100000, 3)
    np.testing.assert_allclose(np.var(x, axis=0), 2.0, rtol=0.05)


def test_isotropic_char_fn_rotational_symmetry():
    x = sample_isotropic_stable(2, StableParams(1.5, 1.0), RngStream(15), size=100000)
    for u in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        assert abs(empirical_char_fn(x, u) - math.exp(-1.0)) < 0.01
    assert empirical_char_fn(x, np.zeros(2)) == 1.0 + 0.0j


def test_isotropic_draws_beyond_float_range_are_quiet():
    # At alpha = 0.01 many exact draws exceed float range; they come out as
    # inf or nan without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = sample_isotropic_stable(3, StableParams(0.01, 1.0), RngStream(18), size=2000)
    assert x.shape == (2000, 3)
    assert not np.all(np.isfinite(x))


def test_isotropic_matches_scalar_law_in_one_dimension():
    iso = sample_isotropic_stable(1, StableParams(1.5, 1.0), RngStream(16), size=100000)
    sca = sample_sas_scalar(StableParams(1.5, 1.0), RngStream(17), size=100000)
    stat = scipy.stats.ks_2samp(iso[:, 0], sca).statistic
    assert stat < 0.02


def test_empirical_char_fn_edge_cases():
    assert empirical_char_fn(np.zeros((5, 3)), np.ones(3)) == 1.0 + 0.0j
    gauss = RngStream(18).generator.standard_normal(100000)
    assert abs(empirical_char_fn(gauss, 1.0) - math.exp(-0.5)) < 0.01
    assert abs(empirical_char_fn(gauss, 0.0)) == 1.0


def test_empirical_char_fn_modulus_bound():
    x = sample_sas_scalar(StableParams(1.2, 3.0), RngStream(19), size=1000)
    for u in np.linspace(-4.0, 4.0, 9):
        assert abs(empirical_char_fn(x, u)) <= 1.0 + 1e-12


def test_empirical_char_fn_rejects_bad_input():
    with pytest.raises(ShapeError, match="^sample rows must form a nonempty matrix"):
        empirical_char_fn(np.empty((0, 2)), np.ones(2))
    with pytest.raises(ShapeError):
        empirical_char_fn(np.ones((10, 2)), np.ones(3))


def test_abs_moment_gaussian_reduction():
    # At alpha = 2 the law is N(0, 2 sigma^2) with a classical |X|^p moment,
    # finite for orders p >= alpha too.
    for p in (0.5, 1.0, 1.7, 2.0, 3.0):
        for sigma in (1.0, 2.5):
            target = (
                (2.0 * sigma**2) ** (p / 2.0)
                * 2.0 ** (p / 2.0)
                * scipy.special.gamma((p + 1.0) / 2.0)
                / math.sqrt(math.pi)
            )
            assert sas_abs_moment(p, 2.0, sigma) == pytest.approx(target, rel=1e-12)


def test_abs_moment_monte_carlo():
    # Keep 2p < alpha so the MC estimator itself has finite variance.
    x = sample_sas_scalar(StableParams(1.5, 1.0), RngStream(20), size=200000)
    assert np.mean(np.abs(x) ** 0.5) == pytest.approx(
        sas_abs_moment(0.5, 1.5, 1.0), rel=0.02
    )


def test_abs_moment_scale_power():
    base = sas_abs_moment(0.7, 1.4, 1.0)
    assert sas_abs_moment(0.7, 1.4, 3.0) == pytest.approx(3.0**0.7 * base, rel=1e-12)


@pytest.mark.parametrize("p, alpha", [(1.5, 1.5), (2.0, 1.5), (1.0, 1.0), (-0.5, 1.5), (0.0, 2.0)])
def test_abs_moment_rejects_out_of_range_orders(p, alpha):
    with pytest.raises(ParameterError):
        sas_abs_moment(p, alpha)
