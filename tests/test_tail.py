import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stableou import (
    DegenerateDataError,
    ParameterError,
    RngStream,
    ShapeError,
    StableParams,
    TailEstimate,
    estimate_tail_index,
    median_center,
    sample_sas_scalar,
)


class TestEstimateValidation:
    def test_result_fields(self):
        est = TailEstimate(alpha_hat=1.4, K1=10, K2=5, sample_count_used=50)
        assert est.alpha_hat == 1.4

    def test_rejects_bad_estimates(self):
        with pytest.raises(ParameterError):
            TailEstimate(alpha_hat=0.0, K1=10, K2=5, sample_count_used=50)
        with pytest.raises(ParameterError):
            TailEstimate(alpha_hat=float("nan"), K1=10, K2=5, sample_count_used=50)

    def test_parameter_checks(self):
        data = np.ones(100)
        with pytest.raises(ParameterError):
            estimate_tail_index(data, K1=1, K2=10)
        with pytest.raises(ParameterError):
            estimate_tail_index(data, K1=10, K2=0)

    def test_requires_enough_vectors(self):
        with pytest.raises(ShapeError):
            estimate_tail_index(np.ones(99), K1=10, K2=10)

    def test_rejects_zero_norms(self):
        data = np.ones(100)
        data[17] = 0.0
        with pytest.raises(DegenerateDataError):
            estimate_tail_index(data, K1=10, K2=10)


def test_constant_input_estimates_one_exactly():
    # Blocks of K1 identical values sum to K1 times the value, so the
    # log-moment ratio is exactly log(K1)/log(K1).
    est = estimate_tail_index(np.full(200, 3.7), K1=10, K2=20)
    assert est.alpha_hat == 1.0
    assert est.sample_count_used == 200


def test_constant_input_exact_at_large_blocks_too():
    # log(300) - log(3) differs from log(100) by an ulp, so exactness here
    # requires the degenerate case to bypass the log-moment formula.
    est = estimate_tail_index(np.full(10000, 3.0), K1=100, K2=100)
    assert est.alpha_hat == 1.0


def test_constant_vectors_estimate_one_exactly():
    est = estimate_tail_index(np.tile([1.3, -0.7, 2.2], (60, 1)), K1=6, K2=10)
    assert est.alpha_hat == 1.0


def test_uses_exactly_the_first_k1_k2_vectors():
    gen = RngStream(70).generator
    data = np.abs(gen.standard_normal(500)) + 0.1
    est_all = estimate_tail_index(data, K1=10, K2=20)
    est_trim = estimate_tail_index(data[:200], K1=10, K2=20)
    assert est_all.alpha_hat == est_trim.alpha_hat
    assert est_all.sample_count_used == 200


def test_gaussian_data_estimates_two():
    gen = RngStream(71).generator
    est = estimate_tail_index(gen.standard_normal(10000), K1=100, K2=100)
    assert est.alpha_hat == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_stable_data_recovers_the_index(alpha):
    draws = sample_sas_scalar(StableParams(alpha, 1.0), RngStream(72), size=10000)
    est = estimate_tail_index(draws, K1=100, K2=100)
    assert est.alpha_hat == pytest.approx(alpha, abs=0.1)


def test_multivariate_rows_use_euclidean_norms():
    gen = RngStream(73).generator
    vecs = gen.standard_normal((10000, 3))
    est = estimate_tail_index(vecs, K1=100, K2=100)
    assert est.alpha_hat == pytest.approx(2.0, abs=0.15)


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=60, deadline=None)
def test_scale_invariance(c):
    gen = RngStream(74).generator
    data = np.abs(gen.standard_normal(400)) + 0.05
    base = estimate_tail_index(data, K1=20, K2=20).alpha_hat
    scaled = estimate_tail_index(c * data, K1=20, K2=20).alpha_hat
    assert scaled == pytest.approx(base, rel=1e-9)


class TestMedianCenter:
    def test_scalar_samples(self):
        out = median_center(np.array([1.0, 2.0, 3.0, 10.0]))
        assert np.median(out) == 0.0

    def test_vector_samples_center_each_coordinate(self):
        gen = RngStream(76).generator
        samples = gen.standard_normal((101, 3)) + np.array([5.0, -2.0, 0.5])
        out = median_center(samples)
        np.testing.assert_allclose(np.median(out, axis=0), 0.0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            median_center(np.empty(0))


def test_block_order_matters():
    # The block sums Y_i depend on how samples fall into blocks, so the
    # estimator is defined on the given order.
    gen = RngStream(78).generator
    data = np.abs(gen.standard_normal(400)) + 0.05
    base = estimate_tail_index(data, K1=20, K2=20).alpha_hat
    permuted = estimate_tail_index(gen.permutation(data), K1=20, K2=20).alpha_hat
    assert permuted != base


def test_accuracy_improves_with_more_blocks():
    # Median absolute error over repeated trials should not get worse as the
    # block count K2 grows.
    alpha, k1 = 1.5, 100
    errors = {}
    for k2 in (25, 100, 400):
        errs = []
        for trial in range(50):
            draws = sample_sas_scalar(
                StableParams(alpha, 1.0), RngStream(1000 + trial).fork(k2), size=k1 * k2
            )
            errs.append(abs(estimate_tail_index(draws, k1, k2).alpha_hat - alpha))
        errors[k2] = float(np.median(errs))
    assert errors[100] <= errors[25]
    assert errors[400] <= errors[100]


def test_centering_enables_estimation_on_shifted_data():
    # A large location offset hides the tail in raw norms; the estimator's
    # intended pipeline removes it first.
    draws = sample_sas_scalar(StableParams(1.5, 1.0), RngStream(77), size=10000) + 50.0
    raw = estimate_tail_index(draws, K1=100, K2=100).alpha_hat
    centered = estimate_tail_index(median_center(draws), K1=100, K2=100).alpha_hat
    assert abs(centered - 1.5) < 0.1
    assert abs(centered - 1.5) < abs(raw - 1.5)
