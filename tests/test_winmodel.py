import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from flmarket import winmodel as wm
from flmarket.winmodel import WinForm, WinningFunctionModel


class TestWinProb:
    @pytest.mark.parametrize("form", list(WinForm))
    def test_half_at_c(self, form):
        for c in (0.3, 1.0, 4.2):
            assert wm.win_prob(WinningFunctionModel(form, c), c) == pytest.approx(0.5)

    @pytest.mark.parametrize("form", list(WinForm))
    def test_zero_bid(self, form):
        assert wm.win_prob(WinningFunctionModel(form, 1.0), 0.0) == 0.0

    @pytest.mark.parametrize("form", list(WinForm))
    def test_range_and_monotone(self, form):
        model = WinningFunctionModel(form, 0.8)
        b = np.linspace(0, 50, 400)
        w = wm.win_prob(model, b)
        assert np.all(w >= 0) and np.all(w < 1)
        assert np.all(np.diff(w) > 0)

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            wm.win_prob(WinningFunctionModel(WinForm.SIMPLE, 1.0), -0.1)

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            WinningFunctionModel(WinForm.SIMPLE, 0.0)

    @given(
        b=hs.floats(0.01, 50), c=hs.floats(0.01, 10), k=hs.floats(0.01, 100),
        form=hs.sampled_from(list(WinForm)),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_covariance(self, b, c, k, form):
        w1 = wm.win_prob(WinningFunctionModel(form, c), b)
        w2 = wm.win_prob(WinningFunctionModel(form, k * c), k * b)
        assert w2 == pytest.approx(w1, rel=1e-9)

    def test_simple_form_concave(self):
        model = WinningFunctionModel(WinForm.SIMPLE, 1.3)
        w = wm.win_prob(model, np.linspace(0, 20, 300))
        assert np.all(np.diff(w, 2) <= 1e-12)


class TestDerivative:
    def test_simple_at_zero(self):
        assert wm.win_prob_derivative(WinningFunctionModel(WinForm.SIMPLE, 1.0), 0.0) == 1.0

    def test_complex_at_zero(self):
        for c in (0.5, 2.0):
            assert wm.win_prob_derivative(WinningFunctionModel(WinForm.COMPLEX, c), 0.0) == 0.0

    @pytest.mark.parametrize("form", list(WinForm))
    def test_matches_finite_difference(self, form, rng):
        model = WinningFunctionModel(form, 1.7)
        h = 1e-6
        for b in rng.uniform(0.05, 8.0, 50):
            fd = (wm.win_prob(model, b + h) - wm.win_prob(model, b - h)) / (2 * h)
            assert wm.win_prob_derivative(model, b) == pytest.approx(fd, abs=1e-7)


def reference_curve(bids, won, num_buckets):
    """Per-bucket mask-and-mean: bucket k holds edges[k] <= b < edges[k+1],
    and the last bucket also holds b == max."""
    edges = np.linspace(0.0, bids.max(), num_buckets + 1)
    mids, rates, counts = [], [], []
    for k in range(num_buckets):
        last = k == num_buckets - 1
        mask = (bids >= edges[k]) & ((bids < edges[k + 1]) | last)
        if mask.any():
            mids.append(0.5 * (edges[k] + edges[k + 1]))
            rates.append(won[mask].astype(float).mean())
            counts.append(int(mask.sum()))
    return np.array(mids), np.array(rates), np.array(counts)


class TestWinCurve:
    def test_all_won(self):
        _, rates, _ = wm.empirical_win_curve(0.1 * np.arange(1, 30), np.ones(29, bool))
        assert np.all(rates == 1.0)

    def test_all_lost(self):
        _, rates, _ = wm.empirical_win_curve(0.1 * np.arange(1, 30), np.zeros(29, bool))
        assert np.all(rates == 0.0)

    def test_counts_partition(self, rng):
        mids, _, counts = wm.empirical_win_curve(
            rng.uniform(0, 2, 200), rng.integers(0, 2, 200) == 1
        )
        assert counts.sum() == 200
        assert np.all(np.diff(mids) > 0)

    def test_empty_records(self):
        with pytest.raises(wm.InsufficientDataError):
            wm.empirical_win_curve([], [])

    @pytest.mark.parametrize("num_buckets", [2, 7, 20, 64])
    def test_matches_per_bucket_reference(self, num_buckets, rng, monkeypatch):
        monkeypatch.setattr(wm, "NUM_BUCKETS", num_buckets)
        for _ in range(20):
            n = int(rng.integers(2, 400))
            bids = rng.uniform(0.0, rng.uniform(0.1, 5.0), n)
            bids[0] = bids.max()  # the top bid twice
            width = bids.max() / num_buckets
            bids = np.where(bids < width, bids + width, bids)  # bucket 0 empty
            # a bid on each inner edge belongs to the bucket above it
            edges = np.linspace(0.0, bids.max(), num_buckets + 1)
            bids, n = np.concatenate([bids, edges[1:-1]]), n + num_buckets - 1
            won = rng.random(n) < 0.4
            curve = wm.empirical_win_curve(bids, won)
            for got, want in zip(curve, reference_curve(bids, won, num_buckets)):
                np.testing.assert_array_equal(got, want)
            mids, _, counts = curve
            assert mids[0] > width and counts.sum() == n
            assert counts[-1] >= 2 and mids[-1] > bids.max() - width

    def test_top_bid_in_last_bucket(self, monkeypatch):
        monkeypatch.setattr(wm, "NUM_BUCKETS", 4)
        mids, rates, counts = wm.empirical_win_curve([0.1, 1.0], [False, True])
        np.testing.assert_array_equal(mids, [0.125, 0.875])
        np.testing.assert_array_equal(rates, [0.0, 1.0])
        np.testing.assert_array_equal(counts, [1, 1])


def exact_curve(form, c0, num=15, hi=5.0):
    mids = np.linspace(hi / num, hi, num)
    return mids, wm.win_prob(WinningFunctionModel(form, c0), mids), np.full(num, 100)


def monte_carlo_curve(form, c_star, n, rng):
    model = WinningFunctionModel(form, c_star)
    bids = rng.uniform(0.0, 5.0 * c_star, n)
    wins = rng.random(n) < wm.win_prob(model, bids)
    return wm.empirical_win_curve(bids, wins)


def calibration_curves():
    """(form, curve) of TestCalibration's recoveries and of acceptance criterion 6."""
    out = [(form, exact_curve(form, 2.3)) for form in WinForm]
    for form, c_star, seeds in ((WinForm.SIMPLE, 2.0, [11]), (WinForm.COMPLEX, 1.5, [12])):
        for seed in seeds + list(range(600, 610)):
            rng = np.random.default_rng(seed)
            out.append((form, monte_carlo_curve(form, c_star, 10_000, rng)))
    return out


class TestCalibration:
    @pytest.mark.parametrize("form", list(WinForm))
    def test_exact_curve_recovery(self, form):
        assert wm.calibrate_c(exact_curve(form, 2.3), form)[0] == pytest.approx(2.3, abs=1e-4)

    def test_monte_carlo_simple(self):
        rng = np.random.default_rng(11)
        curve = monte_carlo_curve(WinForm.SIMPLE, 2.0, 10_000, rng)
        assert 1.9 <= wm.calibrate_c(curve, WinForm.SIMPLE)[0] <= 2.1

    def test_monte_carlo_complex(self):
        rng = np.random.default_rng(12)
        curve = monte_carlo_curve(WinForm.COMPLEX, 1.5, 10_000, rng)
        assert 1.42 <= wm.calibrate_c(curve, WinForm.COMPLEX)[0] <= 1.58

    def test_degenerate_curve(self):
        with pytest.raises(wm.InsufficientDataError):
            wm.calibrate_c(
                (np.array([0.5, 1.5]), np.zeros(2), np.array([10, 10])), WinForm.SIMPLE
            )

    def test_too_few_buckets(self):
        with pytest.raises(wm.InsufficientDataError):
            wm.calibrate_c((np.array([0.5]), np.array([0.5]), np.array([10])), WinForm.SIMPLE)

    @pytest.mark.parametrize("form", list(WinForm))
    @pytest.mark.parametrize("c_true,edge", [(1000.0, True), (1e-7, True), (2.3, False)])
    def test_bracket_edge_flag(self, form, c_true, edge):
        # the bracket is [1e-4, 10 * 5.0]; c_true beyond it pins c to an end
        curve = exact_curve(form, c_true)
        c, at_edge = wm.calibrate_c(curve, form)
        assert at_edge is edge
        if edge:
            assert c == (50.0 if c_true > 50.0 else 1e-4)
        else:
            assert c == pytest.approx(c_true, abs=1e-4)

    @pytest.mark.parametrize("form", list(WinForm))
    def test_slope_matches_finite_difference(self, form, rng):
        curve = monte_carlo_curve(form, 1.8, 5_000, rng)
        for c in rng.uniform(1e-2, 20.0, 50):
            h = 1e-6 * c
            up, down = (wm.calibration_objective(curve, form, c + d) for d in (h, -h))
            fd = (up - down) / (2 * h)
            assert wm.calibration_slope(curve, form, c) == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_c_ends_on_the_slope_sign_change(self):
        # c is the largest float in the bracket where the slope is <= 0
        for form, curve in calibration_curves():
            c, at_edge = wm.calibrate_c(curve, form)
            assert at_edge is False
            above = np.nextafter(c, np.inf)
            assert wm.calibration_slope(curve, form, c) <= 0 < wm.calibration_slope(curve, form, above)

    @pytest.mark.parametrize("form", list(WinForm))
    def test_objective_matches_per_bucket_sum(self, form, rng):
        curve = monte_carlo_curve(form, 1.8, 5_000, rng)
        for c in rng.uniform(1e-3, 20.0, 50):
            model = WinningFunctionModel(form, c)
            ref = sum(
                n * (wm.win_prob(model, b) - r) ** 2 for b, r, n in zip(*curve)
            )
            # the two sum in different orders: within len(curve) roundings
            got = wm.calibration_objective(curve, form, c)
            assert abs(got - ref) <= len(curve[0]) * np.finfo(float).eps * ref

    @pytest.mark.parametrize("form", list(WinForm))
    def test_objective_unimodal(self, form, rng):
        curve = monte_carlo_curve(form, 1.8, 5_000, rng)
        hi = 10.0 * curve[0].max()
        grid = np.linspace(1e-4, hi, 200)
        obj = np.array([wm.calibration_objective(curve, form, c) for c in grid])
        sign = np.sign(np.diff(obj))
        # monotone decrease then monotone increase
        descents = np.where(sign < 0)[0]
        ascents = np.where(sign > 0)[0]
        if len(descents) and len(ascents):
            assert descents.max() < ascents.min()
