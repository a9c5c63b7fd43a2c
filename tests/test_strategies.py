import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from flmarket import experiment
from flmarket import strategies as st
from flmarket.config import RunConfig, default_agent_lineup
from flmarket.strategies import LambdaSolution
from flmarket.winmodel import WinForm, WinningFunctionModel

import golden
from conftest import criterion_triples


def simple(c):
    return WinningFunctionModel(WinForm.SIMPLE, c)


def complex_(c):
    return WinningFunctionModel(WinForm.COMPLEX, c)


class TestBaselines:
    def test_const(self):
        np.testing.assert_array_equal(st.bid_const(5), np.full(5, 0.5))

    def test_rand_range(self, rng, monkeypatch):
        monkeypatch.setattr(st, "RAND_MAX", 0.7)
        draws = st.bid_rand(rng, 500)
        assert draws.shape == (500,)
        assert np.all((draws > 0) & (draws <= 0.7))

    def test_rand_column_equals_scalar_draws(self, monkeypatch):
        monkeypatch.setattr(st, "RAND_MAX", 0.7)
        column = st.bid_rand(np.random.default_rng(9), 300)
        scalar_rng = np.random.default_rng(9)
        scalars = [0.7 - float(scalar_rng.uniform(0.0, 0.7)) for _ in range(300)]
        assert column.tolist() == scalars

    def test_bmub_zero_utility(self, rng):
        np.testing.assert_array_equal(st.bid_bmub(np.zeros(3), rng), np.zeros(3))

    def test_bmub_range(self, rng):
        draws = st.bid_bmub(np.full(500, 1.3), rng)
        assert np.all((draws > 0) & (draws <= 1.3))

    def test_bmub_draws_only_where_utility_is_positive(self):
        # one draw per positive utility, in order: the stream stays aligned
        s = np.array([0.4, 0.0, -0.2, 1.3, 0.0, 0.9])
        column = st.bid_bmub(s, np.random.default_rng(3))
        scalar_rng = np.random.default_rng(3)
        expected = [x - float(scalar_rng.uniform(0.0, x)) if x > 0 else 0.0 for x in s]
        assert column.tolist() == expected

    def test_lin(self, monkeypatch):
        monkeypatch.setattr(st, "LIN_COEF", 2.0)
        bids = st.bid_lin(np.array([0.7, 0.0, -0.3]))
        assert bids[0] == pytest.approx(1.4)
        assert bids[1:].tolist() == [0.0, 0.0]


class TestClosedForms:
    def test_fbs_zero_utility(self):
        assert st.bid_fbs(0.0, 1.7, 0.3) == 0.0

    def test_fbs_known_values(self):
        assert st.bid_fbs(3.0, 1.0, 0.0) == pytest.approx(1.0)
        assert st.bid_fbs(8.0, 2.0, 1.0) == pytest.approx(math.sqrt(12) - 2)

    def test_fbc_zero_utility(self, rng):
        assert st.bid_fbc(0.0, 1.7, 0.3) == 0.0
        assert st.bid_fbc(0.0, 3.0, 4.9) == 0.0
        for c, lam in zip(rng.uniform(1e-3, 5.0, 200), rng.uniform(0.0, 5.0, 200)):
            assert st.bid_fbc(0.0, c, lam) == 0.0

    def test_fbc_known_value(self):
        # unique real root of b^3 + 3b = 4
        assert st.bid_fbc(2.0, 1.0, 0.0) == pytest.approx(1.0)

    def test_fbc_cubic_identity(self, rng):
        for _ in range(200):
            s, c, lam = rng.uniform(0.01, 10), rng.uniform(0.01, 5), rng.uniform(0, 5)
            b = st.bid_fbc(s, c, lam)
            rhs = 2 * c * c * s / (lam + 1)
            assert abs(b**3 + 3 * c * c * b - rhs) <= 1e-8 * (1 + abs(rhs))

    def test_invalid_arguments(self):
        for fn in (st.bid_fbs, st.bid_fbc):
            with pytest.raises(ValueError):
                fn(-1.0, 1.0, 0.0)
            with pytest.raises(ValueError):
                fn(1.0, 0.0, 0.0)
            with pytest.raises(ValueError):
                fn(1.0, 1.0, -0.5)
            # one short line for a large pool: min(s), not every utility
            with pytest.raises(ValueError, match="lambda=-1.0") as err:
                fn(np.linspace(0.0, 1.0, 1000), 0.5, -1.0)
            assert "\n" not in str(err.value) and len(str(err.value)) < 100

    @given(s=hs.floats(1e-3, 10), c=hs.floats(1e-3, 5), lam=hs.floats(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_shading_below_utility(self, s, c, lam):
        assert st.bid_fbs(s, c, lam) < s
        assert st.bid_fbc(s, c, lam) < s

    @given(c=hs.floats(1e-2, 5), lam=hs.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_utility(self, c, lam):
        grid = np.linspace(0.1, 10, 40)
        for fn in (st.bid_fbs, st.bid_fbc):
            bids = [fn(s, c, lam) for s in grid]
            assert all(b2 > b1 for b1, b2 in zip(bids, bids[1:]))

    @given(c=hs.floats(1e-2, 5), s=hs.floats(0.1, 10))
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_lambda(self, c, s):
        lams = np.linspace(0, 5, 20)
        for fn in (st.bid_fbs, st.bid_fbc):
            bids = [fn(s, c, lam) for lam in lams]
            assert all(b2 < b1 for b1, b2 in zip(bids, bids[1:]))
            assert bids[0] == max(bids)


def utility_array(rng, n=2_000):
    """Log-uniform utilities in [1e-300, 1e3] with exact zeros mixed in."""
    s = 10.0 ** rng.uniform(-300, 3, n)
    s[rng.integers(0, n, n // 20)] = 0.0
    return s


class TestArrayForms:
    def test_array_matches_scalar_calls(self, rng):
        for _ in range(20):
            s, c, lam = utility_array(rng), rng.uniform(1e-3, 5.0), rng.uniform(0.0, 5.0)
            fbs = st.bid_fbs(s, c, lam)
            fbc = st.bid_fbc(s, c, lam)
            fbs_1 = np.array([st.bid_fbs(x, c, lam) for x in s])
            fbc_1 = np.array([st.bid_fbc(x, c, lam) for x in s])
            np.testing.assert_array_equal(fbs, fbs_1)
            assert np.all(np.abs(fbc - fbc_1) <= 4 * np.spacing(fbc_1))
            zero = s == 0.0
            assert np.all(fbs[zero] == 0.0) and np.all(fbc[zero] == 0.0)
            assert np.all(fbs[~zero] > 0.0) and np.all(fbc[~zero] > 0.0)

    def test_scalar_in_float_out(self):
        for fn in (st.bid_fbs, st.bid_fbc):
            assert type(fn(1.5, 1.0, 0.2)) is float
            assert type(fn(np.float64(1.5), 1.0, 0.2)) is float
            assert fn(np.array([1.5]), 1.0, 0.2).shape == (1,)

    def test_negative_element_rejected(self, rng):
        s = utility_array(rng, 100)
        s[37] = -1e-12
        for fn in (st.bid_fbs, st.bid_fbc):
            with pytest.raises(ValueError):
                fn(s, 1.0, 0.5)

    def test_closed_form_bid_zeroes_negative_utility(self, rng):
        s = rng.uniform(-2.0, 2.0, 500)
        for model in (simple(0.7), complex_(0.7)):
            bids = st.closed_form_bid(s, model, 0.4)
            assert np.all(bids[s <= 0] == 0.0) and np.all(bids[s > 0] > 0.0)
            np.testing.assert_array_equal(bids[s > 0], st.closed_form_bid(s[s > 0], model, 0.4))
            assert st.closed_form_bid(-3.0, model, 0.4) == 0.0


def newton_root(coeffs, start):
    """Positive root of the polynomial with ``coeffs`` (highest power first).

    Newton's method in 60-digit decimal arithmetic.  The polynomials here
    are increasing and convex on b >= 0, so it converges from any b > 0
    without evaluating a closed form.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        coeffs = [Decimal(a) for a in coeffs]
        deriv = [a * (len(coeffs) - 1 - i) for i, a in enumerate(coeffs[:-1])]
        b = Decimal(start)
        for _ in range(500):
            p = dp = Decimal(0)
            for a in coeffs:
                p = p * b + a
            for a in deriv:
                dp = dp * b + a
            step = p / dp
            b -= step
            if abs(step) <= b * Decimal("1e-55"):
                return b
    raise AssertionError("Newton reference did not converge")


class TestTinyUtility:
    @given(
        s=hs.floats(1e-300, 1e3), c=hs.floats(1e-3, 5.0), lam=hs.floats(0.0, 5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_accurate_to_tiny_s(self, s, c, lam):
        with localcontext() as ctx:
            ctx.prec = 60
            S, C, L1 = Decimal(s), Decimal(c), Decimal(lam) + 1
            x = S * C / L1  # fbs: b^2 + 2 c b - x = 0
            k = 2 * C * C * S / L1  # fbc: b^3 + 3 c^2 b - k = 0
            refs = {
                st.bid_fbs: newton_root([1, 2 * C, -x], x / (2 * C)),
                st.bid_fbc: newton_root([1, 0, 3 * C * C, -k], k / (3 * C * C)),
            }
        for bid_fn, ref in refs.items():
            b = bid_fn(s, c, lam)
            assert b >= 0
            assert abs(Decimal(b) - ref) <= Decimal("1e-12") * ref


class TestFirstOrderCondition:
    def test_closed_forms_satisfy_foc(self, rng):
        for _ in range(100):
            s, c, lam = rng.uniform(0.01, 10), rng.uniform(0.01, 5), rng.uniform(0, 5)
            r_s = st.check_foc(s, st.bid_fbs(s, c, lam), simple(c), lam)
            r_c = st.check_foc(s, st.bid_fbc(s, c, lam), complex_(c), lam)
            assert abs(r_s) <= 1e-9 * (1 + s)
            assert abs(r_c) <= 1e-9 * (1 + s)

    def test_overbidding_sign(self):
        # bidding the full utility violates the optimality condition from above
        for lam in (0.0, 0.5, 2.0):
            assert st.check_foc(3.0, 3.0, simple(1.0), lam) < 0


def surplus(s, c, lam, form, b):
    """(s - (1+lam) b) W(b), written out apart from the package."""
    b = np.asarray(b, dtype=float)
    win = b / (c + b) if form is WinForm.SIMPLE else b * b / (c * c + b * b)
    return (s - (1.0 + lam) * b) * win


class TestOracle:
    def test_zero_utility(self):
        assert st.oracle_optimal_bid(0.0, simple(1.0), 0.0) == 0.0

    @pytest.mark.parametrize("form_fn,bid_fn", [(simple, st.bid_fbs), (complex_, st.bid_fbc)])
    def test_agrees_with_closed_form(self, form_fn, bid_fn):
        rng = np.random.default_rng(7)
        for _ in range(25):
            s, c, lam = rng.uniform(0.01, 10), rng.uniform(0.01, 5), rng.uniform(0, 5)
            oracle = st.oracle_optimal_bid(s, form_fn(c), lam)
            closed = bid_fn(s, c, lam)
            assert abs(closed - oracle) <= 1e-4 * (1 + oracle)

    def test_beats_dense_grid_without_closed_forms(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle must not call a closed form")

        monkeypatch.setattr(st, "bid_fbs", refuse)
        monkeypatch.setattr(st, "bid_fbc", refuse)
        for s, c, lam in criterion_triples(1000):
            grid = np.linspace(0.0, s, 10_001)
            for form in WinForm:
                b = st.oracle_optimal_bid(s, WinningFunctionModel(form, c), lam)
                best = surplus(s, c, lam, form, grid).max()
                assert surplus(s, c, lam, form, b) >= best - 1e-12 * abs(best)


class TestSolveLambda:
    def _samples(self, rng, n=300):
        return rng.uniform(0.0, 2.0, n)

    def test_non_binding_budget(self, rng):
        sol = st.solve_lambda(self._samples(rng), simple(1.0), budget=1e6)
        assert sol.lam == 0.0
        assert sol.expected_spend_per_request <= sol.target

    def test_binding_budget_hits_target(self, rng):
        samples = self._samples(rng)
        g0 = st.expected_spend_per_request(samples, simple(1.0), 0.0)
        budget = 0.1 * g0 * len(samples)
        sol = st.solve_lambda(samples, simple(1.0), budget)
        assert sol.lam > 0
        assert abs(sol.expected_spend_per_request - sol.target) <= 0.01 * sol.target

    def test_bracket_collapses(self, rng, monkeypatch):
        brackets, narrow = [], st._regula_falsi

        def recorded(*args):
            brackets.append(narrow(*args))
            return brackets[-1]

        monkeypatch.setattr(st, "_regula_falsi", recorded)
        for form in (simple(0.8), complex_(0.8)):
            samples = self._samples(rng)
            budget = 0.1 * st.expected_spend_per_request(samples, form, 0.0) * len(samples)
            sol = st.solve_lambda(samples, form, budget)
            lo, hi, _ = brackets[-1]
            assert hi == math.nextafter(lo, math.inf)
            assert sol.lam == 1.0 / lo - 1.0
            assert sol.expected_spend_per_request == st.expected_spend_per_request(samples, form, sol.lam)
            assert sol.expected_spend_per_request <= sol.target
            assert st.expected_spend_per_request(samples, form, 1.0 / hi - 1.0) > sol.target

    def test_tiny_budget_paces_with_finite_lambda(self):
        # the root is lambda = 5e149, far past any fixed cap on a lambda bracket
        sol = st.solve_lambda(np.ones(3), simple(1.0), 3e-300)
        assert math.isfinite(sol.lam)
        assert sol.expected_spend_per_request <= sol.target
        assert sol.expected_spend_per_request >= (1 - 1e-12) * sol.target

    def test_spend_decreasing_in_lambda(self, rng):
        for form in (simple(0.8), complex_(0.8)):
            samples = self._samples(rng)
            g = [st.expected_spend_per_request(samples, form, lam) for lam in np.linspace(0, 10, 50)]
            assert all(b < a for a, b in zip(g, g[1:]))

    def test_halving_budget_raises_lambda(self, rng):
        for _ in range(5):
            samples = self._samples(rng)
            g0 = st.expected_spend_per_request(samples, simple(1.2), 0.0)
            budget = 0.2 * g0 * len(samples)
            lam_full = st.solve_lambda(samples, simple(1.2), budget).lam
            lam_half = st.solve_lambda(samples, simple(1.2), budget / 2).lam
            assert lam_half > lam_full

    def test_all_zero_samples(self):
        sol = st.solve_lambda(np.zeros(10), simple(1.0), 5.0)
        assert (sol.lam, sol.expected_spend_per_request, sol.target, sol.iterations) == (0.0, 0.0, 0.5, 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            st.solve_lambda([], simple(1.0), 5.0)
        for budget in (-5.0, 0.0, math.nan, 5e-324):  # the last gives a target of 0
            with pytest.raises(ValueError):
                st.solve_lambda([1.0] * 10, simple(1.0), budget)


def lambda_by_halving(samples, model, budget):
    """The lambda that plain halving of k = 1/(1+lambda) on [0, 1] to adjacent
    floats finds, and its number of halvings; 0 and no halvings where the spend
    at k = 1 is within the budget."""
    target, lo, hi, halvings = budget / len(samples), 0.0, 1.0, 0
    if st.expected_spend_per_request(samples, model, 0.0) <= target:
        return 0.0, 0
    while lo < (k := 0.5 * (lo + hi)) < hi:
        if st.expected_spend_per_request(samples, model, 1.0 / k - 1.0) <= target:
            lo = k
        else:
            hi = k
        halvings += 1
    return 1.0 / lo - 1.0, halvings


@pytest.fixture(scope="module")
def run_solves(tmp_path_factory):
    """The solve_lambda arguments of the golden set's runs without FL."""
    solves, solve = [], experiment.solve_lambda

    def recorded(*args):
        solves.append(args)
        return solve(*args)

    experiment.solve_lambda = recorded
    try:
        for name, kwargs in golden.runs().items():
            if not kwargs.get("train_fl", True):
                out = tmp_path_factory.mktemp(name)
                experiment.run_experiment(RunConfig(output_dir=str(out), **kwargs))
    finally:
        experiment.solve_lambda = solve
    return solves


class TestRegulaFalsi:
    """The root finder ends where halving ends, with fewer evaluations."""

    def test_same_lambda_as_halving_on_random_spend_curves(self):
        rng = np.random.default_rng(23)
        for i in range(200):
            n = int(rng.integers(1, 300))
            samples = 10.0 ** rng.uniform(-6, 1, n)
            samples[rng.random(n) < 0.1] = 0.0
            samples[0] = 1.0
            form = (simple, complex_)[i % 2](10.0 ** rng.uniform(-3, 1))
            g0 = st.expected_spend_per_request(samples, form, 0.0)
            budget = 10.0 ** rng.uniform(-12, -1e-3) * g0 * n
            sol = st.solve_lambda(samples, form, budget)
            lam, halvings = lambda_by_halving(samples, form, budget)
            assert sol.lam == lam
            assert 0 < sol.iterations <= halvings

    def test_same_lambda_as_halving_on_the_runs(self, run_solves):
        # one solve per closed-form agent in each run without FL; const agents solve none
        closed_forms = sum(
            spec.strategy in st.WIN_FORM
            for kwargs in golden.runs().values() if not kwargs.get("train_fl", True)
            for spec in kwargs.get("agents", default_agent_lineup())
        )
        assert closed_forms > 0 and len(run_solves) == closed_forms
        for args in run_solves:
            sol = st.solve_lambda(*args)
            lam, halvings = lambda_by_halving(*args)
            assert sol.lam == lam
            assert sol.iterations <= halvings

    def test_ends_on_adjacent_floats_with_the_given_end_values(self):
        calls = []

        def g(x):
            calls.append(x)
            return x**3 - 0.3

        lo, hi, evaluations = st._regula_falsi(g, 0.0, 1.0, -0.3, 0.7)
        assert evaluations == len(calls) and not {0.0, 1.0} & set(calls)
        assert hi == math.nextafter(lo, math.inf) and g(lo) <= 0 < g(hi)

    def test_exact_zero_ends_on_the_next_float(self):
        # the chord of x - 0.5 on [0, 1] lands on 0.5; the float above it ends the search
        calls = []

        def g(x):
            calls.append(x)
            return x - 0.5

        assert st._regula_falsi(g, 0.0, 1.0, -0.5, 0.5) == (0.5, math.nextafter(0.5, 1.0), 2)
        assert calls == [0.5, math.nextafter(0.5, 1.0)]

    def test_zero_on_a_run_of_floats_doubles_the_step(self):
        # g = 0 on [0.25, 0.75]: steps of 1, 2, 4, ... floats up from 0.5, then halving,
        # not one step per float
        calls = []

        def g(x):
            calls.append(x)
            assert len(calls) <= 2 * 53  # twice the 53 steps of plain halving
            return min(x - 0.25, 0.0) + max(x - 0.75, 0.0)

        lo, hi, evaluations = st._regula_falsi(g, 0.0, 1.0, -0.25, 0.25)
        assert (lo, hi) == (0.75, math.nextafter(0.75, 1.0)) and evaluations == len(calls)
        ulp = math.ulp(0.5)
        assert calls[:4] == [0.5, 0.5 + ulp, 0.5 + 3 * ulp, 0.5 + 7 * ulp]

    def test_oracle_steps_over_a_run_of_zeros(self, monkeypatch):
        # at s = 1e-160 both terms of the complex form's f' are subnormal, so f' is
        # exactly 0 on a run of floats around the optimum 2s/(3(1+lambda))
        calls, foc = [], st.check_foc

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 2 * 53  # twice the 53 steps of plain halving
            return foc(*args)

        monkeypatch.setattr(st, "check_foc", counted)
        assert st.oracle_optimal_bid(1e-160, complex_(1.0), 0.5) == pytest.approx(2e-160 / 4.5, rel=1e-3)

    def test_oracle_ends_on_adjacent_floats_across_a_sign_change(self):
        for s, c, lam in criterion_triples(500):
            for form in WinForm:
                model = WinningFunctionModel(form, c)
                b = st.oracle_optimal_bid(s, model, lam)
                above = math.nextafter(b, math.inf)
                assert st.check_foc(s, b, model, lam) >= 0 > st.check_foc(s, above, model, lam)

    @pytest.mark.parametrize("s", [1e-200, 1e-300, 1e-310])
    def test_oracle_where_f_prime_underflows_on_the_whole_bracket(self, s):
        # f' is 0 at both ends, so the chord is 0/0; every bid is optimal in floats
        assert 0.0 <= st.oracle_optimal_bid(s, complex_(1.0), 0.5) <= s / 1.5

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("target", [1e-6, 1e-11, 1e-15])
    def test_tiny_target_does_not_creep(self, power, target):
        # from lo = 0 the chord lands near the target and then doubles k per step
        # (35 and 48 evaluations at power 3, targets 1e-11 and 1e-15, before the
        # geometric halving); halving alone takes 59-77.  The exact counts pin
        # when the geometric step starts.
        def g(k):
            return k**power - target

        lo, hi, evaluations = st._regula_falsi(g, 0.0, 1.0, -target, 1.0 - target)
        a, b = 0.0, 1.0
        while a < (k := 0.5 * (a + b)) < b:
            a, b = (k, b) if g(k) <= 0 else (a, k)
        counts = {2: {1e-6: 17, 1e-11: 17, 1e-15: 17}, 3: {1e-6: 21, 1e-11: 20, 1e-15: 27}}
        assert (lo, hi) == (a, b) and evaluations == counts[power][target]
