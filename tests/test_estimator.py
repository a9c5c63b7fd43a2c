import math

import numpy as np
import pytest

from flmarket import estimator as est
from flmarket.estimator import EstimatorParams
from flmarket.market import DataOwner, Quality

from conftest import assert_matches_row_predict, central_difference, make_history


def _project(theta, Q):
    # scale theta down by the smallest factor restoring 1 + theta.q >= eps
    dots = Q @ theta
    m = dots.min()
    if 1.0 + m < est.CLAMP_EPS:
        return theta * ((est.CLAMP_EPS - 1.0) / m), True
    return theta, False


def reference_fit(Q, y, params):
    """The unfused loop: step with est.gradient, project, check with est.loss.

    Returns (theta, None, projected steps) on success and (None, step,
    projected steps) where a divergence rule fires.
    """
    theta = np.zeros(Q.shape[1])
    prev = est.loss(theta, Q, y)
    bad = projections = 0
    for step in range(params.epochs):
        theta = theta - params.learning_rate * est.gradient(theta, Q, y)
        theta, projected = _project(theta, Q)
        projections += projected
        cur = est.loss(theta, Q, y)
        if cur > prev or (projected and cur >= prev):
            bad += 1
            if bad >= 10:
                return None, step, projections
        else:
            bad = 0
        prev = cur
    if prev > est.loss(np.zeros_like(theta), Q, y):
        return None, params.epochs - 1, projections
    return theta, None, projections


class TestPredict:
    def test_zero_theta(self, rng):
        q = np.array([1.0, rng.uniform(), rng.uniform()])
        assert est.predict(np.zeros(3), q) == 0.0

    def test_ln_e(self):
        theta = np.array([1.0, 0.0, 0.0])
        q = np.array([math.e - 1.0, 0.3, 0.9])
        assert est.predict(theta, q) == pytest.approx(1.0)

    def test_clamp_floor(self):
        theta = np.array([-0.999999, 0.0, 0.0])
        q = np.array([1.0, 0.5, 0.5])
        assert est.predict(theta, q) == pytest.approx(math.log(est.CLAMP_EPS))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            est.predict(np.zeros(2), np.zeros(3))

    def test_matrix_rows_match_single_rows(self, rng):
        theta = np.array([0.3, 0.9, 2.0])
        Q = np.column_stack([np.ones(50), rng.uniform(0, 1, (50, 2))])
        s = est.predict(theta, Q)
        assert s.shape == (50,)
        assert_matches_row_predict(theta, Q, s)
        # 1 + theta.q below the clamp floor on the first row only
        clamped = est.predict(np.array([-2.0, 0.0, 1.0]), np.array([[1.0, 0.5, 0.5], [1.0, 0.5, 2.5]]))
        assert clamped.tolist() == [math.log(est.CLAMP_EPS), math.log(1.5)]
        with pytest.raises(ValueError):
            est.predict(theta, np.zeros((4, 2)))

    def test_monotone_in_dot_product(self):
        q = np.array([1.0, 0.5, 0.5])
        vals = [est.predict(np.array([t, 0.0, 0.0]), q) for t in np.linspace(-0.5, 2, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestLoss:
    def test_perfect_fit(self, rng):
        theta = np.array([0.2, 0.4, 0.1])
        Q, y = make_history(theta, 1, rng)
        assert est.loss(theta, Q, y) == pytest.approx(0.0, abs=1e-15)

    def test_zero_theta_y_two(self):
        assert est.loss(np.zeros(3), np.array([[1.0, 0.5, 0.5]]), np.array([2.0])) == pytest.approx(2.0)

    def test_order_invariance(self, rng):
        Q, y = make_history([0.3, 0.6, 0.9], 10, rng)
        theta = np.array([0.1, 0.2, 0.3])
        assert est.loss(theta, Q, y) == pytest.approx(est.loss(theta, Q[::-1], y[::-1]))

    def test_empty_history(self):
        with pytest.raises(ValueError):
            est.fit(np.zeros((0, 3)), np.zeros(0), EstimatorParams())


class TestGradient:
    def test_zero_everything(self):
        g = est.gradient(np.zeros(3), np.array([[1.0, 0.5, 0.5]]), np.zeros(1))
        np.testing.assert_allclose(g, np.zeros(3))

    def test_linearity_of_sum(self, rng):
        Q, y = make_history([0.3, 0.6, 0.9], 1, rng)
        theta = np.array([0.1, -0.2, 0.3])
        g1 = est.gradient(theta, Q, y)
        g2 = est.gradient(theta, np.vstack([Q, Q]), np.concatenate([y, y]))
        np.testing.assert_allclose(g2, 2 * g1)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            Q, y = make_history(rng.uniform(-0.2, 0.5, 3), rng.integers(1, 8), rng)
            theta = rng.uniform(-0.3, 0.3, 3)
            # keep away from the clamp region
            if min(1.0 + Q @ theta) < 0.1:
                continue
            g = est.gradient(theta, Q, y)
            fd = central_difference(lambda t: est.loss(t, Q, y), theta)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


class TestFit:
    def test_synthetic_self_recovery(self, rng):
        theta_star = np.array([0.5, 1.0, 2.0])
        Q, y = make_history(theta_star, 20, rng)
        initial = est.loss(np.zeros(3), Q, y)
        theta = est.fit(Q, y, EstimatorParams(learning_rate=0.05, epochs=5000))
        assert est.loss(theta, Q, y) <= 1e-3 * initial

    def test_single_point_interpolation(self):
        q = np.array([1.0, 0.5, 0.5])
        theta = est.fit(q[None, :], np.array([0.8]), EstimatorParams(learning_rate=0.05, epochs=5000))
        assert est.predict(theta, q) == pytest.approx(0.8, abs=1e-3)

    def test_zero_epochs(self, rng):
        Q, y = make_history([0.3, 0.6, 0.9], 5, rng)
        np.testing.assert_array_equal(est.fit(Q, y, EstimatorParams(epochs=0)), np.zeros(3))

    def test_divergence_reports_step(self, rng):
        Q, y = make_history([0.5, 1.0, 2.0], 500, rng)
        with pytest.raises(est.DivergenceError) as exc:
            est.fit(Q, y, EstimatorParams(learning_rate=0.05, epochs=5000))
        assert exc.value.step >= 0

    def test_backoff_recovers(self, rng):
        Q, y = make_history([0.5, 1.0, 2.0], 500, rng)
        theta, used = est.fit_with_backoff(Q, y, EstimatorParams(0.05, 5000))
        assert used.learning_rate < 0.05
        assert est.loss(theta, Q, y) <= 1e-3 * est.loss(np.zeros(3), Q, y)

    def test_small_rate_monotone_trajectory(self, rng):
        # replay the update rule step by step and assert per-step descent
        Q, y = make_history([0.5, 1.0, 2.0], 20, rng)
        theta = np.zeros(3)
        prev = est.loss(theta, Q, y)
        for _ in range(2000):
            theta = theta - 0.01 * est.gradient(theta, Q, y)
            theta, _ = _project(theta, Q)
            cur = est.loss(theta, Q, y)
            assert cur <= prev + 1e-12
            prev = cur


    @pytest.mark.parametrize(
        "theta_star,rows,lr,outcome",
        [
            ([0.5, 1.0, 2.0], 1, 0.05, "converged"),
            ([0.5, 1.0, 2.0], 20, 0.05, "converged"),
            ([0.5, 1.0, 2.0], 500, 0.0125, "converged"),
            ([-0.2, 0.5, -1.0], 20, 0.001, "projected"),
            ([-0.1, -0.5, -0.9], 20, 0.05, "10 consecutive"),
            ([0.0, -0.5, -0.5], 20, 0.004, "10 consecutive"),
            ([0.5, 1.0, 2.0], 500, 0.05, "theta = 0"),
        ],
    )
    def test_bit_identical_to_reference_loop(self, rng, theta_star, rows, lr, outcome):
        Q, y = make_history(theta_star, rows, rng)
        params = EstimatorParams(learning_rate=lr, epochs=5000)
        theta, step, projections = reference_fit(Q, y, params)
        if step is None:
            np.testing.assert_array_equal(est.fit(Q, y, params), theta)
            assert (projections > 0) == (outcome == "projected")
        else:
            with pytest.raises(est.DivergenceError, match=outcome) as exc:
                est.fit(Q, y, params)
            assert exc.value.step == step
            assert (step == params.epochs - 1) == (outcome == "theta = 0")

    def test_non_finite_loss_diverges(self, rng):
        # the first step overflows theta, so the loss is inf or NaN
        Q, y = make_history([0.5, 1.0, 2.0], 20, rng)
        with pytest.raises(est.DivergenceError, match="loss is (nan|inf)") as exc:
            with np.errstate(over="ignore", invalid="ignore"):
                est.fit(Q, y, EstimatorParams(learning_rate=1e308, epochs=50))
        assert 0 <= exc.value.step < 50

    def test_backoff_exhaustion_names_last_rate(self, rng):
        Q, y = make_history([-0.2, 0.5, -1.0], 20, rng)
        with pytest.raises(est.DivergenceError, match="after 2 rates, the last 0.0125") as exc:
            est.fit_with_backoff(Q, y, EstimatorParams(0.05, 300), max_retries=2)
        assert exc.value.step == -1


class TestTrueUtility:
    def _owner(self, quality, n):
        return DataOwner(1, n, quality, 0)

    def test_clean_1000(self):
        assert est.true_utility(self._owner(Quality.CLEAN, 1000)) == pytest.approx(
            math.log(2), abs=1e-4
        )

    def test_blurred_1000(self):
        assert est.true_utility(self._owner(Quality.BLURRED, 1000)) == pytest.approx(
            0.4 * math.log(2), abs=1e-4
        )

    def test_monotone_in_samples(self):
        for quality in Quality:
            vals = [est.true_utility(self._owner(quality, n)) for n in range(1000, 10001, 500)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_clean_beats_blurred(self):
        for n in (1000, 3000, 10000):
            assert est.true_utility(self._owner(Quality.CLEAN, n)) > est.true_utility(
                self._owner(Quality.BLURRED, n)
            )
