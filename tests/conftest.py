import numpy as np
import pytest

from flmarket import estimator as est


def central_difference(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def criterion_triples(n):
    """The (s, c, lambda) triples acceptance criteria 1-3 certify the closed forms on."""
    rng = np.random.default_rng(20240815)
    return [
        (rng.uniform(1e-3, 10.0), rng.uniform(1e-3, 5.0), rng.uniform(0.0, 5.0))
        for _ in range(n)
    ]


def make_history(theta_star, num_records, rng, feature_scale=1.0):
    """Won records (Q, y) labeled by a known parameter vector."""
    Q = np.ones((num_records, 3))
    Q[:, 1:] = rng.uniform(0, feature_scale, (num_records, 2))
    return Q, est.predict(np.asarray(theta_star, dtype=float), Q)


def row_predict_bound(theta, Q):
    """Per-row predict of each row of Q, and how far the matrix predict may differ.

    The two sum theta.q in different orders.  Each is within 1.5 eps *
    sum |theta_i q_i| of the exact dot product, the log turns an error dz
    in z = 1 + theta.q into dz / z, and each log rounds once more.
    """
    eps = np.finfo(float).eps
    rows = np.array([est.predict(theta, q) for q in Q])
    z = np.exp(rows)
    return rows, eps * (3.0 * (np.abs(Q) @ np.abs(theta)) + z) / z + eps * np.abs(rows)


def assert_matches_row_predict(theta, Q, s):
    """Matrix predict equals per-row predict up to the rounding of theta.q."""
    rows, bound = row_predict_bound(theta, Q)
    assert np.all(np.abs(s - rows) <= bound)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
