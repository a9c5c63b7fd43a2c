import math

import numpy as np
import pytest

from flmarket import estimator as est
from flmarket.config import RunConfig
from flmarket.experiment import run_experiment
from flmarket.market import request_features

from conftest import (
    assert_matches_row_predict,
    central_difference,
    make_history,
    reference_lm_fit,
)


class TestPredict:
    def test_zero_theta(self, rng):
        q = np.array([1.0, rng.uniform(), rng.uniform()])
        assert est.predict(np.zeros(3), q) == 0.0

    def test_ln_e(self):
        theta = np.array([1.0, 0.0, 0.0])
        q = np.array([math.e - 1.0, 0.3, 0.9])
        assert est.predict(theta, q) == pytest.approx(1.0)

    def test_clamp_floor(self):
        # 1 + theta.q = 1e-7 lies below the documented floor of 1e-6
        theta = np.array([-0.9999999, 0.0, 0.0])
        q = np.array([1.0, 0.5, 0.5])
        assert est.predict(theta, q) == pytest.approx(math.log(1e-6))

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
            est.fit(np.zeros((0, 3)), np.zeros(0))


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
        result = est.fit(Q, y)
        assert result.converged
        assert result.loss <= 1e-3 * initial
        np.testing.assert_allclose(result.theta, theta_star, rtol=1e-9)

    def test_single_point_interpolation(self):
        q = np.array([1.0, 0.5, 0.5])
        result = est.fit(q[None, :], np.array([0.8]))
        assert result.converged
        assert est.predict(result.theta, q) == pytest.approx(0.8, abs=1e-3)

    def test_zero_epochs(self, rng, monkeypatch):
        # a cap of 0 solves returns theta = 0 unfitted
        Q, y = make_history([0.3, 0.6, 0.9], 5, rng)
        monkeypatch.setattr(est, "MAX_SOLVES", 0)
        zero = est.fit(Q, y)
        np.testing.assert_array_equal(zero.theta, np.zeros(3))
        assert (zero.iterations, zero.grad_rel, zero.converged) == (0, 1.0, False)

    def test_iteration_cap_reports_not_converged(self, rng, monkeypatch):
        Q, y = make_history([0.3, 0.6, 0.9], 5, rng)
        monkeypatch.setattr(est, "MAX_SOLVES", 1)
        one = est.fit(Q, y)
        assert one.iterations == 1 and not one.converged
        assert one.loss <= est.loss(np.zeros(3), Q, y)

    def test_backoff_recovers(self, rng):
        # fixed-rate gradient descent overshot on this summed gradient and backed
        # off its rate; fit_with_backoff is now one fit, and it converges
        Q, y = make_history([0.5, 1.0, 2.0], 500, rng)
        result = est.fit_with_backoff(Q, y)
        assert result.converged
        assert result.loss <= 1e-3 * est.loss(np.zeros(3), Q, y)
        np.testing.assert_array_equal(result.theta, est.fit(Q, y).theta)

    def test_small_rate_monotone_trajectory(self, rng):
        # small steps along -gradient lower the loss at every step
        Q, y = make_history([0.5, 1.0, 2.0], 20, rng)
        theta = np.zeros(3)
        prev = est.loss(theta, Q, y)
        for _ in range(2000):
            theta = theta - 0.01 * est.gradient(theta, Q, y)
            assert min(1.0 + Q @ theta) >= est.CLAMP_EPS
            cur = est.loss(theta, Q, y)
            assert cur <= prev + 1e-12
            prev = cur

    def test_floor_holds_where_gradient_descent_diverged(self, rng):
        # the labels sit on the clamp floor, so the best feasible theta is on it
        Q, y = make_history([-0.1, -0.5, -0.9], 20, rng)
        result = est.fit(Q, y)
        assert min(1.0 + Q @ result.theta) >= est.CLAMP_EPS
        assert result.loss <= est.loss(np.zeros(3), Q, y)

    def test_each_accepted_step_lowers_the_loss(self, monkeypatch):
        # noisy labels make some undamped steps overshoot; those must be rejected
        rng = np.random.default_rng(5)
        for _ in range(20):
            Q, y = make_history(rng.uniform(-1, 3, 3), 30, rng)
            y = y + rng.normal(0, 2.0, len(y))
            losses = []
            for k in range(30):
                monkeypatch.setattr(est, "MAX_SOLVES", k)
                losses.append(est.fit(Q, y).loss)
            assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_zero_gradient_at_start(self):
        # y = 0 is fitted by theta = 0 exactly
        result = est.fit(np.array([[1.0, 0.5, 0.5], [1.0, 0.2, 0.9]]), np.zeros(2))
        np.testing.assert_array_equal(result.theta, np.zeros(3))
        assert (result.iterations, result.grad_rel, result.converged) == (0, 0.0, True)

    @pytest.mark.parametrize(
        "theta_star,rows,max_iterations",
        [
            ([0.5, 1.0, 2.0], 1, 200),
            ([0.5, 1.0, 2.0], 20, 200),
            ([0.5, 1.0, 2.0], 500, 200),
            ([-0.2, 0.5, -1.0], 20, 200),
            ([-0.1, -0.5, -0.9], 20, 200),
            ([0.0, -0.5, -0.5], 20, 200),
            ([0.5, 1.0, 2.0], 500, 0),
        ],
        # each id names the learning rate the deleted gradient-descent fit
        # was checked at on this history, and how that fit ended
        ids=[
            "theta_star0-1-0.05-converged",
            "theta_star1-20-0.05-converged",
            "theta_star2-500-0.0125-converged",
            "theta_star3-20-0.001-projected",
            "theta_star4-20-0.05-10 consecutive",
            "theta_star5-20-0.004-10 consecutive",
            "theta_star6-500-0.05-theta = 0",
        ],
    )
    def test_bit_identical_to_reference_loop(self, rng, monkeypatch, theta_star, rows, max_iterations):
        Q, y = make_history(theta_star, rows, rng)
        monkeypatch.setattr(est, "MAX_SOLVES", max_iterations)
        result = est.fit(Q, y)
        theta, iterations, loss, grad_rel = reference_lm_fit(Q, y, max_iterations)
        np.testing.assert_array_equal(result.theta, theta)
        assert (result.iterations, result.loss, result.grad_rel) == (iterations, loss, grad_rel)
        # the fit reports loss() and gradient() at theta, bit for bit
        assert result.loss == est.loss(theta, Q, y)
        g0 = np.linalg.norm(est.gradient(np.zeros(3), Q, y))
        assert result.grad_rel == np.linalg.norm(est.gradient(theta, Q, y)) / g0
        assert result.converged == (grad_rel <= est.CONVERGED_GRAD_REL)
        assert min(1.0 + Q @ theta) >= est.CLAMP_EPS

    def test_singular_solve_is_a_rejected_step(self, rng, monkeypatch):
        # a solve that raises counts as a solve and leaves theta where it was
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        Q, y = make_history([0.5, 1.0, 2.0], 20, rng)
        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(est, "MAX_SOLVES", 7)
        result = est.fit(Q, y)
        np.testing.assert_array_equal(result.theta, np.zeros(3))
        assert (result.iterations, result.loss, result.converged) == (7, est.loss(np.zeros(3), Q, y), False)

    def test_constant_size_column(self, monkeypatch):
        # every owner has one size, so the size feature is a multiple of the bias
        # column and J^T J has rank 2; as mu shrinks, A + mu I turns singular
        solve, singular = np.linalg.solve, []

        def counting_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        for pool_size, size in [(20, 10**6), (50, 10**5), (50, 10**6), (100, 10**5)]:
            owners = np.arange(1, pool_size + 1)
            sizes = np.full(pool_size, size)
            Q = request_features(owners, sizes, pool_size)
            y = est.true_utility(sizes, owners <= pool_size // 2)
            result = est.fit(Q, y)
            assert min(1.0 + Q @ result.theta) >= est.CLAMP_EPS
            assert result.loss < est.loss(np.zeros(3), Q, y)
            assert result.converged == (result.grad_rel <= est.CONVERGED_GRAD_REL)
            assert result.iterations <= 200
        assert singular  # these histories reach the singular solve

    @pytest.mark.parametrize(
        "seed,pool_size", [(seed, 100) for seed in range(10)] + [(4, 1000)]
    )
    def test_bootstrap_fits_are_stationary(self, tmp_path, seed, pool_size):
        cfg = RunConfig(
            master_seed=seed, pool_size=pool_size, train_fl=False, output_dir=str(tmp_path)
        )
        fits = 0
        calibration = run_experiment(cfg).calibration
        for j, spec in enumerate(cfg.agents):
            cal = calibration[spec.name]
            if cal.fit is None:
                continue
            won = cal.history[cal.history["winner"] == j]
            Q = request_features(won["owner_id"], won["num_samples"], pool_size)
            # owners 1..ceil(pool_size / 2) are blurred
            y = est.true_utility(won["num_samples"], won["owner_id"] <= math.ceil(pool_size / 2))
            grad_rel = np.linalg.norm(est.gradient(cal.theta, Q, y)) / np.linalg.norm(
                est.gradient(np.zeros(3), Q, y)
            )
            assert grad_rel <= 1e-6 and cal.fit.converged
            fits += 1
        assert fits == 4


def repeated_history(rng, distinct=40):
    """Distinct noisy records, win counts, and the records repeated that often, shuffled."""
    Q, y = make_history(rng.uniform(-0.2, 2.0, 3), distinct, rng)
    y = y + rng.normal(0.0, 0.1, distinct)
    counts = rng.integers(1, 30, distinct)
    order = rng.permutation(int(counts.sum()))
    return Q, y, counts, np.repeat(Q, counts, axis=0)[order], np.repeat(y, counts)[order]


class TestWeightedFit:
    def test_counts_fit_the_repeated_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            Q, y, counts, Q_rep, y_rep = repeated_history(rng)
            weighted, repeated = est.fit(Q, y, counts), est.fit(Q_rep, y_rep)
            assert weighted.converged and repeated.converged
            np.testing.assert_allclose(weighted.theta, repeated.theta, rtol=1e-12)
            assert weighted.loss == pytest.approx(repeated.loss, rel=1e-12)

    def test_unit_counts_keep_the_bits(self, rng):
        Q, y, _, _, _ = repeated_history(rng)
        ones = np.ones(len(y), dtype=np.int64)
        weighted, plain = est.fit(Q, y, ones), est.fit(Q, y)
        np.testing.assert_array_equal(weighted.theta, plain.theta)
        assert (weighted.iterations, weighted.loss, weighted.grad_rel) == (
            plain.iterations, plain.loss, plain.grad_rel
        )
        theta = plain.theta
        assert est.loss(theta, Q, y, ones) == est.loss(theta, Q, y)
        np.testing.assert_array_equal(est.gradient(theta, Q, y, ones), est.gradient(theta, Q, y))

    def test_reports_the_weighted_loss_and_gradient(self, rng):
        Q, y, counts, _, _ = repeated_history(rng)
        result = est.fit(Q, y, counts)
        assert result.loss == est.loss(result.theta, Q, y, counts)
        g0 = np.linalg.norm(est.gradient(np.zeros(3), Q, y, counts))
        assert result.grad_rel == np.linalg.norm(est.gradient(result.theta, Q, y, counts)) / g0

    def test_weighted_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            Q, y, counts, _, _ = repeated_history(rng, distinct=int(rng.integers(1, 8)))
            theta = rng.uniform(-0.3, 0.3, 3)
            if min(1.0 + Q @ theta) < 0.1:
                continue
            fd = central_difference(lambda t: est.loss(t, Q, y, counts), theta)
            np.testing.assert_allclose(est.gradient(theta, Q, y, counts), fd, rtol=1e-5, atol=1e-8)


class TestTrueUtility:
    def test_clean_1000(self):
        assert est.true_utility(np.array([1000]), np.array([False])) == pytest.approx(
            [math.log(2)], abs=1e-4
        )

    def test_blurred_1000(self):
        assert est.true_utility(np.array([1000]), np.array([True])) == pytest.approx(
            [0.4 * math.log(2)], abs=1e-4
        )

    def test_monotone_in_samples(self):
        n = np.arange(1000, 10001, 500)
        for blurred in (False, True):
            vals = est.true_utility(n, np.full(len(n), blurred))
            assert np.all(np.diff(vals) > 0)

    def test_clean_beats_blurred(self):
        n = np.array([1000, 3000, 10000])
        assert np.all(est.true_utility(n, np.zeros(3, bool)) > est.true_utility(n, np.ones(3, bool)))
