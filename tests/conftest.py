import numpy as np
import pytest

from flmarket import estimator as est
from flmarket import fltrain


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


def reference_lm_fit(Q, y, max_iterations):
    """``estimator.fit`` as its docstring states it, recomputing each quantity from theta.

    Returns theta, the solves made, the loss and the relative gradient norm.
    """

    def at(theta):
        z = 1.0 + Q @ theta
        r = np.log(z) - y
        J = Q / z[:, None]
        return 0.5 * float(r @ r), est.gradient(theta, Q, y), J.T @ J

    theta = np.zeros(Q.shape[1])
    cur, g, A = at(theta)
    g0 = np.linalg.norm(g)
    mu = 1e-3 * np.max(np.diag(A))
    iterations = 0
    while iterations < max_iterations and np.linalg.norm(g) > est.GRAD_REL_TARGET * g0:
        iterations += 1
        trial = theta + np.linalg.solve(A + mu * np.eye(len(theta)), -g)
        if np.array_equal(trial, theta):
            break
        if np.min(1.0 + Q @ trial) >= est.CLAMP_EPS and at(trial)[0] < cur:
            theta = trial
            cur, g, A = at(theta)
            mu /= 3.0
        else:
            mu *= 2.0
    return theta, iterations, cur, (np.linalg.norm(g) / g0 if g0 > 0 else 0.0)


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


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(weights, X, y):
    """Mean softmax cross-entropy of a (K, d + 1) model on features X and labels y."""
    p = softmax(fltrain._augment(X) @ weights.T)
    return float(-np.mean(np.log(p[np.arange(len(y)), y] + 1e-300)))


def cross_entropy_gradient(weights, X, y):
    """Gradient of ``cross_entropy`` in the weights; local_train steps along it."""
    Xa = fltrain._augment(X)
    p = softmax(Xa @ weights.T)
    onehot = np.zeros_like(p)
    onehot[np.arange(len(y)), y] = 1.0
    return (p - onehot).T @ Xa / len(y)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
