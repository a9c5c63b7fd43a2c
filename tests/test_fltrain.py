import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from flmarket import fltrain
from flmarket.config import config_from_mapping
from flmarket.experiment import train_federated
from flmarket.fltrain import LocalDataset
from flmarket.market import MarketResult, generate_do_pool, outcome_dtype

from conftest import cross_entropy, cross_entropy_gradient

# the unpatched ones, while a test spies on them
SYNTH_DATASET, LOCAL_TRAIN, FEDAVG = fltrain.synth_dataset, fltrain.local_train, fltrain.fedavg


def blobs(rng, n=400, spread=4.0, num_classes=4, dim=3):
    centers = rng.normal(scale=spread, size=(num_classes, dim))
    y = rng.integers(0, num_classes, n)
    design = np.ones((n, dim + 1))
    design[:, :dim] = centers[y] + rng.standard_normal((n, dim))
    return LocalDataset(design, y), centers


class TestSynthDataset:
    def test_clean_no_label_noise(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        a = fltrain.synth_dataset(2000, False, centers, 0.4, np.random.default_rng(1))
        b = fltrain.synth_dataset(2000, False, centers, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_blurred_noise_fraction(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        noisy = fltrain.synth_dataset(10_000, True, centers, 0.4, np.random.default_rng(2))
        clean = fltrain.synth_dataset(10_000, True, centers, 0.0, np.random.default_rng(2))
        changed = np.mean(noisy.labels != clean.labels)
        # binomial(10000, 0.4 * 9/10) around 0.36
        assert 0.33 <= changed <= 0.39

    def test_deterministic(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        a = fltrain.synth_dataset(2000, True, centers, 0.4, np.random.default_rng(7))
        b = fltrain.synth_dataset(2000, True, centers, 0.4, np.random.default_rng(7))
        np.testing.assert_array_equal(a.design, b.design)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("blurred,classes", [(False, None), (True, None), (True, [2, 7])])
    def test_features_pinned_to_the_draws(self, blurred, classes):
        # labels, then (n, d) noise from the same generator, added to the centers
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        classes = None if classes is None else np.array(classes)
        data = fltrain.synth_dataset(700, blurred, centers, 0.4, np.random.default_rng(5), classes)
        rng = np.random.default_rng(5)
        labels = rng.choice(np.arange(10) if classes is None else classes, size=700)
        np.testing.assert_array_equal(data.design[:, :-1], centers[labels] + rng.standard_normal((700, 8)))
        assert data.design.shape == (700, 9) and np.all(data.design[:, -1] == 1.0)

    def test_shard_restriction(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        data = fltrain.synth_dataset(
            5000, False, centers, 0.0, np.random.default_rng(3), classes=np.array([2, 7])
        )
        assert set(np.unique(data.labels)) == {2, 7}


class TestPartitionMode:
    """The class support train_federated gives each owner under the partition setting."""

    @staticmethod
    def owner_classes(monkeypatch, **settings):
        """Each of 12 won owners' classes and the consumer's accuracy."""
        cfg = config_from_mapping({"master_seed": 1, "pool_size": 12, "sample_range": [100, 200],
                                   "local_epochs": 3, **settings})
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, np.random.default_rng(5))
        outcomes = np.zeros(len(pool), outcome_dtype(1))
        outcomes["owner_id"] = pool["id"]  # agent 0 wins every owner
        seen = []

        def spy(num_samples, *args, classes=None):
            seen.append((num_samples, classes))
            return SYNTH_DATASET(num_samples, *args, classes=classes)

        monkeypatch.setattr(fltrain, "synth_dataset", spy)
        result = MarketResult(["a"], outcomes)
        accuracy = train_federated(cfg, pool, result, np.random.default_rng(2))["a"]
        # the test set is one draw of 2,000 points over every class; owners hold 100-200
        assert [c for n, c in seen if n == 2000] == [None]
        return [c for n, c in seen if n != 2000], accuracy

    def test_iid(self, monkeypatch):
        seen, _ = self.owner_classes(monkeypatch, partition="iid")
        assert len(seen) == 12 and all(c is None for c in seen)

    def test_niid(self, monkeypatch):
        seen, _ = self.owner_classes(monkeypatch, partition="niid", shards_per_owner=2)
        assert len(seen) == 12
        for c in seen:
            assert len(c) == 2 and 0 <= c[0] < c[1] < fltrain.NUM_CLASSES
        assert len({tuple(c) for c in seen}) > 1

    def test_niid_full_support_is_iid_like(self, monkeypatch):
        # every class as one owner's shards is a valid config, and it trains on the iid data
        K = fltrain.NUM_CLASSES
        seen, niid = self.owner_classes(monkeypatch, partition="niid", shards_per_owner=K)
        assert all(c.tolist() == list(range(K)) for c in seen)
        assert niid == self.owner_classes(monkeypatch, partition="iid")[1]

    def test_iid_covers_all_classes(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        data = fltrain.synth_dataset(1000, False, centers, 0.0, np.random.default_rng(4))
        assert len(np.unique(data.labels)) == fltrain.NUM_CLASSES


def sequential_train_federated(cfg, pool, result, rng):
    """The one-owner-at-a-time loop that train_federated must match: agent ->
    (accuracy, its owners' (weights, num_samples) in won-id order)."""
    centers_rng, shard_rng, test_rng = rng.spawn(3)
    centers = fltrain.make_class_centers(centers_rng)
    K, d = centers.shape
    niid = cfg.partition == "niid"
    class_support = [
        np.sort(shard_rng.choice(K, cfg.shards_per_owner, replace=False)) if niid else None
        for _ in range(len(pool))
    ]
    test_labels = test_rng.integers(0, K, 2000)
    test_X = centers[test_labels] + test_rng.standard_normal((2000, d))
    test_set = LocalDataset(np.hstack([test_X, np.ones((2000, 1))]), test_labels)
    out = {}
    for j, name in enumerate(result.agent_names):
        updates = []
        for oid in np.sort(result.outcomes["owner_id"][result.outcomes["winner"] == j]).tolist():
            _, n, blurred, seed = pool[oid - 1].tolist()
            data = SYNTH_DATASET(n, blurred, centers, cfg.noise_rate_blurred,
                                 np.random.default_rng(seed), classes=class_support[oid - 1])
            updates.append((LOCAL_TRAIN(np.zeros((K, d + 1)), data, local_epochs=cfg.local_epochs), n))
        accuracy = fltrain.evaluate(FEDAVG(updates), test_set) if updates else None
        out[name] = accuracy, updates
    return out


class TestTrainFederated:
    """Owners train on a thread pool with the bits of the sequential loop."""

    @staticmethod
    def market(partition="iid"):
        """16 owners auctioned out of id order: a and b win five or six each, c
        wins none and five go unsold."""
        cfg = config_from_mapping({"master_seed": 3, "pool_size": 16, "sample_range": [50, 400],
                                   "local_epochs": 5, "partition": partition})
        pool = generate_do_pool(cfg.pool_size, cfg.sample_range, np.random.default_rng(8))
        outcomes = np.zeros(len(pool), outcome_dtype(3))
        outcomes["owner_id"] = np.random.default_rng(9).permutation(pool["id"])
        outcomes["winner"] = np.array([0, 1, -1])[np.arange(len(pool)) % 3]
        return cfg, pool, MarketResult(["a", "b", "c"], outcomes)

    def assert_matches_sequential(self, monkeypatch, partition):
        cfg, pool, result = self.market(partition)
        averaged = []

        def spy(updates):
            averaged.append(updates)
            return FEDAVG(updates)

        monkeypatch.setattr(fltrain, "fedavg", spy)
        accuracy = train_federated(cfg, pool, result, np.random.default_rng(2))
        expected = sequential_train_federated(cfg, pool, result, np.random.default_rng(2))
        assert accuracy == {name: acc for name, (acc, _) in expected.items()}
        assert accuracy["c"] is None
        reference = [updates for _, updates in expected.values() if updates]
        assert len(averaged) == len(reference) == 2
        for got, want in zip(averaged, reference):
            assert [n for _, n in got] == [n for _, n in want]
            for (w, _), (v, _) in zip(got, want):
                np.testing.assert_array_equal(w, v)

    @pytest.mark.parametrize("partition", ["iid", "niid"])
    def test_same_bits_as_the_sequential_loop(self, monkeypatch, partition):
        self.assert_matches_sequential(monkeypatch, partition)

    @pytest.mark.parametrize("partition", ["iid", "niid"])
    def test_same_bits_on_one_cpu(self, monkeypatch, partition):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        workers = set()

        def spy(*args, **kwargs):
            workers.add(threading.get_ident())
            return LOCAL_TRAIN(*args, **kwargs)

        monkeypatch.setattr(fltrain, "local_train", spy)
        self.assert_matches_sequential(monkeypatch, partition)
        assert len(workers) == 1 and threading.get_ident() not in workers

    def test_same_bits_with_more_threads_than_cores(self, monkeypatch):
        # eight threads switching every microsecond on however many cores there are
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_matches_sequential(monkeypatch, "niid")
        finally:
            sys.setswitchinterval(interval)

    def test_owner_error_reaches_the_caller(self, monkeypatch):
        cfg, pool, result = self.market()
        failing_size = int(pool["num_samples"][result.outcomes["owner_id"][0] - 1])

        def local_train(weights, dataset, local_epochs):
            if len(dataset.labels) == failing_size:
                raise FloatingPointError("non-finite weights at local step 0")
            return LOCAL_TRAIN(weights, dataset, local_epochs=local_epochs)

        monkeypatch.setattr(fltrain, "local_train", local_train)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="local step 0"):
            train_federated(cfg, pool, result, np.random.default_rng(2))
        assert threading.active_count() == before

    def test_no_thread_outlives_the_run(self):
        before = threading.active_count()
        train_federated(*self.market(), np.random.default_rng(2))
        assert threading.active_count() == before


class TestLocalTrain:
    def test_zero_epochs(self, rng):
        data, _ = blobs(rng)
        w0 = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(fltrain.local_train(w0, data, 0), w0)

    def test_gradient_matches_finite_differences(self, rng):
        data, _ = blobs(rng, n=30)
        w = rng.standard_normal((4, 4)) * 0.1
        g = cross_entropy_gradient(w, data.design, data.labels)
        h = 1e-6
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                e = np.zeros_like(w)
                e[i, j] = h
                fd = (
                    cross_entropy(w + e, data.design, data.labels)
                    - cross_entropy(w - e, data.design, data.labels)
                ) / (2 * h)
                assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @staticmethod
    def reference_train(w, data, steps, lr):
        for _ in range(steps):
            w = w - lr * cross_entropy_gradient(w, data.design, data.labels)
        return w

    @pytest.mark.parametrize(
        "K,d,n,classes,blurred",
        [
            (10, 8, 500, None, False),
            (4, 3, 300, None, False),
            (10, 8, 1, None, False),
            (10, 8, 200, [6], False),
            (10, 8, 1500, [1, 8], True),
            (8, 8, 700, None, False),
            (9, 8, 700, None, True),
            (17, 5, 700, None, True),
            (10, 8, 10_000, None, True),
            (200, 4, 500, None, True),
        ],
        ids=[
            "default",
            "k4_d3",
            "one_sample",
            "single_label",
            "blurred_niid",
            "k8",
            "k9_blurred",
            "k17_d5_blurred",
            "largest_owner",
            "k200_past_old_cap",
        ],
    )
    def test_bit_identical_to_gradient_loop(self, rng, K, d, n, classes, blurred):
        centers = rng.normal(scale=fltrain.CENTER_SPREAD, size=(K, d))  # make_class_centers' draw
        classes = None if classes is None else np.array(classes)
        data = fltrain.synth_dataset(n, blurred, centers, 0.4, rng, classes=classes)
        w0 = np.zeros((K, d + 1))
        np.testing.assert_array_equal(
            fltrain.local_train(w0, data, local_epochs=100),
            self.reference_train(w0, data, 100, 0.05),
        )

    def test_bit_identical_under_sse3_blas_kernels(self):
        # OpenBLAS rounds logits or gradient products taken on (K, n) buffers
        # like the row-major ones only on some kernels; its SSE3 kernels run
        # on any x86-64 host and round them differently.  Other BLAS builds
        # ignore the variable, and this repeats the check above.
        code = (
            "import numpy as np\n"
            "from flmarket import fltrain\n"
            "from test_fltrain import TestLocalTrain\n"
            "rng = np.random.default_rng(3)\n"
            "centers = fltrain.make_class_centers(rng)\n"
            "data = fltrain.synth_dataset(500, True, centers, 0.4, rng)\n"
            "w0 = np.zeros((10, 9))\n"
            "np.testing.assert_array_equal(fltrain.local_train(w0, data, 20),\n"
            "                              TestLocalTrain.reference_train(w0, data, 20, 0.05))\n"
        )
        here = Path(__file__).resolve().parent
        path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_inputs_unchanged(self, rng):
        data = fltrain.synth_dataset(
            300, True, fltrain.make_class_centers(rng), 0.4, rng
        )
        w0 = 0.1 * rng.standard_normal((fltrain.NUM_CLASSES, fltrain.FEATURE_DIM + 1))
        copies = w0.copy(), data.design.copy(), data.labels.copy()
        w = fltrain.local_train(w0, data, 10)
        for before, after in zip(copies, (w0, data.design, data.labels)):
            np.testing.assert_array_equal(after, before)
        assert not np.shares_memory(w, w0)

    def test_non_finite_weights_name_the_step(self, rng, monkeypatch):
        data, _ = blobs(rng, n=50, spread=1e150)
        monkeypatch.setattr(fltrain, "LR", 1e300)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite weights at local step \d+"
        ):
            fltrain.local_train(np.zeros((4, 4)), data, local_epochs=10)

    def test_loss_decreases(self, rng):
        data, _ = blobs(rng)
        w0 = np.zeros((4, 4))
        w = fltrain.local_train(w0, data, 100)
        assert cross_entropy(w, data.design, data.labels) < cross_entropy(
            w0, data.design, data.labels
        )

    def test_converged_accuracy_on_own_labels(self, rng, monkeypatch):
        data, _ = blobs(rng, n=600, spread=5.0)
        monkeypatch.setattr(fltrain, "LR", 0.1)
        w = fltrain.local_train(np.zeros((4, 4)), data, 500)
        assert fltrain.evaluate(w, data) >= 0.95


class TestFedAvg:
    def test_identity(self, rng):
        w = rng.standard_normal((3, 4))
        np.testing.assert_allclose(fltrain.fedavg([(w, 10), (w, 25)]), w)

    def test_equal_weighting(self, rng):
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        np.testing.assert_allclose(fltrain.fedavg([(w1, 5), (w2, 5)]), (w1 + w2) / 2)

    def test_sample_weighting(self, rng):
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        np.testing.assert_allclose(fltrain.fedavg([(w1, 1), (w2, 3)]), 0.25 * w1 + 0.75 * w2)

    def test_permutation_invariance(self, rng):
        ups = [(rng.standard_normal((3, 4)), int(n)) for n in rng.integers(1, 50, 6)]
        np.testing.assert_allclose(fltrain.fedavg(ups), fltrain.fedavg(ups[::-1]), atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            fltrain.fedavg([])


class TestEvaluate:
    def test_constant_class_model_balanced(self):
        K, d, n = 10, 8, 5000
        w = np.zeros((K, d + 1))
        w[3, -1] = 10.0  # always predicts class 3
        y = np.tile(np.arange(K), n // K)
        design = np.zeros((n, d + 1))
        design[:, -1] = 1.0
        assert fltrain.evaluate(w, LocalDataset(design, y)) == pytest.approx(1 / K)

    def test_ordering_invariance(self, rng):
        data, centers = blobs(rng)
        w = fltrain.local_train(np.zeros((4, 4)), data, 50)
        perm = rng.permutation(len(data.labels))
        a = fltrain.evaluate(w, data)
        b = fltrain.evaluate(w, LocalDataset(data.design[perm], data.labels[perm]))
        assert a == b

    def test_in_unit_interval(self, rng):
        data, _ = blobs(rng)
        w = rng.standard_normal((4, 4))
        assert 0.0 <= fltrain.evaluate(w, data) <= 1.0


@pytest.mark.parametrize("seed", range(5))
def test_clean_cohort_beats_blurred_cohort(seed):
    rng = np.random.default_rng(seed)
    centers = fltrain.make_class_centers(rng)
    test_y = rng.integers(0, 10, 2000)
    test_design = np.ones((2000, centers.shape[1] + 1))
    test_design[:, :-1] = centers[test_y] + rng.standard_normal((2000, centers.shape[1]))
    sizes = rng.integers(1000, 4000, 4)

    def cohort_accuracy(blurred):
        updates = []
        for i, n in enumerate(sizes.tolist()):
            data = fltrain.synth_dataset(n, blurred, centers, 0.4, np.random.default_rng(seed * 100 + i))
            w = fltrain.local_train(np.zeros((fltrain.NUM_CLASSES, fltrain.FEATURE_DIM + 1)), data, 100)
            updates.append((w, n))
        return fltrain.evaluate(fltrain.fedavg(updates), LocalDataset(test_design, test_y))

    assert cohort_accuracy(False) >= cohort_accuracy(True)

