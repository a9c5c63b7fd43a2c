import numpy as np
import pytest

from flmarket import fltrain
from flmarket.fltrain import LocalDataset
from flmarket.market import ConfigurationError, DataOwner, Quality

from conftest import cross_entropy, cross_entropy_gradient


def owner(quality=Quality.CLEAN, n=2000, oid=60, seed=5):
    return DataOwner(oid, n, quality, seed)


def blobs(rng, n=400, spread=4.0, num_classes=4, dim=3):
    centers = rng.normal(scale=spread, size=(num_classes, dim))
    y = rng.integers(0, num_classes, n)
    X = centers[y] + rng.standard_normal((n, dim))
    return LocalDataset(X, y, 1), centers


class TestSynthDataset:
    def test_clean_no_label_noise(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        a = fltrain.synth_dataset(owner(), centers, 0.4, np.random.default_rng(1))
        b = fltrain.synth_dataset(owner(), centers, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_blurred_noise_fraction(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        blurred = owner(Quality.BLURRED, 10_000, oid=3)
        noisy = fltrain.synth_dataset(blurred, centers, 0.4, np.random.default_rng(2))
        clean = fltrain.synth_dataset(blurred, centers, 0.0, np.random.default_rng(2))
        changed = np.mean(noisy.labels != clean.labels)
        # binomial(10000, 0.4 * 9/10) around 0.36
        assert 0.33 <= changed <= 0.39

    def test_deterministic(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        a = fltrain.synth_dataset(owner(Quality.BLURRED, oid=2), centers, 0.4, np.random.default_rng(7))
        b = fltrain.synth_dataset(owner(Quality.BLURRED, oid=2), centers, 0.4, np.random.default_rng(7))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_shard_restriction(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        data = fltrain.synth_dataset(
            owner(n=5000), centers, 0.0, np.random.default_rng(3), classes=np.array([2, 7])
        )
        assert set(np.unique(data.labels)) == {2, 7}


class TestPartitionMode:
    def test_iid(self):
        assert fltrain.partition_mode("iid", 2) == ("iid", None)

    def test_niid(self):
        assert fltrain.partition_mode("niid", 2) == ("niid", 2)

    def test_niid_full_support_is_iid_like(self):
        mode, shards = fltrain.partition_mode("niid", fltrain.NUM_CLASSES)
        assert shards == fltrain.NUM_CLASSES

    @pytest.mark.parametrize("shards", [0, 11])
    def test_invalid_shards(self, shards):
        with pytest.raises(ConfigurationError):
            fltrain.partition_mode("niid", shards)

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            fltrain.partition_mode("dirichlet", 2)

    def test_iid_covers_all_classes(self):
        centers = fltrain.make_class_centers(np.random.default_rng(0))
        data = fltrain.synth_dataset(owner(n=1000), centers, 0.0, np.random.default_rng(4))
        assert len(np.unique(data.labels)) == fltrain.NUM_CLASSES


class TestLocalTrain:
    def test_zero_epochs(self, rng):
        data, _ = blobs(rng)
        w0 = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(fltrain.local_train(w0, data, 0, 0.1), w0)

    def test_gradient_matches_finite_differences(self, rng):
        data, _ = blobs(rng, n=30)
        w = rng.standard_normal((4, 4)) * 0.1
        g = cross_entropy_gradient(w, data.features, data.labels)
        h = 1e-6
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                e = np.zeros_like(w)
                e[i, j] = h
                fd = (
                    cross_entropy(w + e, data.features, data.labels)
                    - cross_entropy(w - e, data.features, data.labels)
                ) / (2 * h)
                assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    @staticmethod
    def reference_train(w, data, steps, lr):
        for _ in range(steps):
            w = w - lr * cross_entropy_gradient(w, data.features, data.labels)
        return w

    @pytest.mark.parametrize(
        "K,d,n,classes,quality",
        [
            (10, 8, 500, None, Quality.CLEAN),
            (4, 3, 300, None, Quality.CLEAN),
            (10, 8, 1, None, Quality.CLEAN),
            (10, 8, 200, [6], Quality.CLEAN),
            (10, 8, 1500, [1, 8], Quality.BLURRED),
        ],
        ids=["default", "k4_d3", "one_sample", "single_label", "blurred_niid"],
    )
    def test_bit_identical_to_gradient_loop(self, rng, K, d, n, classes, quality):
        centers = fltrain.make_class_centers(rng, K, d)
        classes = None if classes is None else np.array(classes)
        data = fltrain.synth_dataset(owner(quality, n), centers, 0.4, rng, classes=classes)
        w0 = fltrain.zero_model(K, d)
        np.testing.assert_array_equal(
            fltrain.local_train(w0, data, local_epochs=100, lr=0.05),
            self.reference_train(w0, data, 100, 0.05),
        )

    def test_non_finite_weights_name_the_step(self, rng):
        data, _ = blobs(rng, n=50, spread=1e150)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite weights at local step \d+"
        ):
            fltrain.local_train(fltrain.zero_model(4, 3), data, local_epochs=10, lr=1e300)

    def test_loss_decreases(self, rng):
        data, _ = blobs(rng)
        w0 = fltrain.zero_model(4, 3)
        w = fltrain.local_train(w0, data, 100, 0.05)
        assert cross_entropy(w, data.features, data.labels) < cross_entropy(
            w0, data.features, data.labels
        )

    def test_converged_accuracy_on_own_labels(self, rng):
        data, _ = blobs(rng, n=600, spread=5.0)
        w = fltrain.local_train(fltrain.zero_model(4, 3), data, 500, 0.1)
        assert fltrain.evaluate(w, data.features, data.labels) >= 0.95


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
        X = np.zeros((n, d))
        assert fltrain.evaluate(w, X, y) == pytest.approx(1 / K)

    def test_ordering_invariance(self, rng):
        data, centers = blobs(rng)
        w = fltrain.local_train(fltrain.zero_model(4, 3), data, 50, 0.1)
        perm = rng.permutation(len(data.labels))
        a = fltrain.evaluate(w, data.features, data.labels)
        b = fltrain.evaluate(w, data.features[perm], data.labels[perm])
        assert a == b

    def test_in_unit_interval(self, rng):
        data, _ = blobs(rng)
        w = rng.standard_normal((4, 4))
        assert 0.0 <= fltrain.evaluate(w, data.features, data.labels) <= 1.0


@pytest.mark.parametrize("seed", range(5))
def test_clean_cohort_beats_blurred_cohort(seed):
    rng = np.random.default_rng(seed)
    centers = fltrain.make_class_centers(rng)
    test_y = rng.integers(0, 10, 2000)
    test_X = centers[test_y] + rng.standard_normal((2000, centers.shape[1]))
    sizes = rng.integers(1000, 4000, 4)

    def cohort_accuracy(quality, id_base):
        updates = []
        for i, n in enumerate(sizes):
            o = DataOwner(id_base + i, int(n), quality, seed * 100 + i)
            data = fltrain.synth_dataset(o, centers, 0.4, np.random.default_rng(o.local_seed))
            w = fltrain.local_train(fltrain.zero_model(), data, 100, 0.05)
            updates.append((w, o.num_samples))
        return fltrain.evaluate(fltrain.fedavg(updates), test_X, test_y)

    assert cohort_accuracy(Quality.CLEAN, 60) >= cohort_accuracy(Quality.BLURRED, 1)

