import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from flmarket import estimator as est
from flmarket import market
from flmarket import strategies as st
from flmarket.market import (
    ConsumerAgent,
    MarketResult,
    POOL_DTYPE,
    compute_metrics,
    generate_do_pool,
    outcome_dtype,
    _clear,
    random_bid_history,
    request_features,
    run_market,
)
from flmarket.strategies import WIN_FORM, Strategy
from flmarket.winmodel import WinForm, WinningFunctionModel

from conftest import row_predict_bound

ROW_PREDICT = est.predict  # the one-request form, kept while a test patches est.predict


def const_agent(name="a", budget=1.0):
    return ConsumerAgent(name, Strategy.CONST, budget)


def rand_agent(name, budget):
    return ConsumerAgent(name, Strategy.RAND, budget)


# a baseline strategy's module constant, and the function of market that bids it
BASELINE_CONSTANT = {
    Strategy.CONST: ("CONST_BID", "bid_const"),
    Strategy.RAND: ("RAND_MAX", "bid_rand"),
    Strategy.LIN: ("LIN_COEF", "bid_lin"),
}


def baseline_value(agent, values):
    """The constant a const, rand or lin agent bids with: ``values[name]``, or the module's."""
    return values.get(agent.name, getattr(st, BASELINE_CONSTANT[agent.strategy][0]))


def bid_per_agent(monkeypatch, agents, values):
    """Make each baseline agent named in ``values`` bid with its own constant.

    ``values`` maps a const, rand or lin agent's name to its CONST_BID, RAND_MAX or LIN_COEF.
    run_market asks for one bid column per agent, in agent order, so a fake of market's
    bid function sets the module constant to the next agent's value for one call and bids
    as the library does; each market starts the order again.
    """
    def fake(bid, constant, names):
        def call(*args):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(st, constant, baseline_value(by_name[next(names)], values))
                return bid(*args)
        return call

    by_name = {a.name: a for a in agents}
    for strategy in {by_name[name].strategy for name in values}:
        constant, bid = BASELINE_CONSTANT[strategy]
        names = itertools.cycle([a.name for a in agents if a.strategy is strategy])
        monkeypatch.setattr(market, bid, fake(getattr(market, bid), constant, names))


def winner_names(result):
    return [result.agent_names[j] if j >= 0 else None for j in result.outcomes["winner"]]


def scalar_raw_bid(agent, q, rng, values):
    """One agent's bid on one request, drawn as the per-auction market did."""
    if agent.strategy is Strategy.CONST:
        return baseline_value(agent, values)
    if agent.strategy is Strategy.RAND:
        rand_max = baseline_value(agent, values)
        return rand_max - float(rng.uniform(0.0, rand_max))
    s = ROW_PREDICT(agent.theta, q)
    if agent.strategy is Strategy.BMUB:
        return 0.0 if s <= 0 else s - float(rng.uniform(0.0, s))
    if agent.strategy is Strategy.LIN:
        return baseline_value(agent, values) * max(s, 0.0)
    bid = st.bid_fbs if agent.strategy is Strategy.FBS else st.bid_fbc
    return bid(max(s, 0.0), agent.win_model.c, agent.lam)


def reference_market(agents, pool, rng, values=None):
    """The per-auction market: a feature row, a dict of bids and one clearing per request.

    ``values`` gives baseline agents their own constants, as in ``bid_per_agent``."""
    names = [a.name for a in agents]
    order_rng, tie_rng, *agent_rngs = rng.spawn(2 + len(agents))
    remaining = {a.name: a.budget for a in agents}
    out = np.zeros(len(pool), outcome_dtype(len(agents)))
    for i, k in enumerate(order_rng.permutation(len(pool))):
        oid, num_samples, _, _ = pool[k].tolist()
        q = np.array([1.0, oid / len(pool), num_samples / 10000.0])
        bids = {}
        for agent, arng in zip(agents, agent_rngs):
            raw = scalar_raw_bid(agent, q, arng, values or {})
            if remaining[agent.name] > 0:
                bids[agent.name] = min(raw, remaining[agent.name])
        positive = {n: b for n, b in bids.items() if b > 0}
        winner, price = -1, 0.0
        if positive:
            price = max(positive.values())
            top = sorted(n for n, b in positive.items() if b == price)
            name = top[0] if len(top) == 1 else top[int(tie_rng.integers(len(top)))]
            remaining[name] -= price
            winner = names.index(name)
        out[i] = (oid, num_samples, [bids.get(n, math.nan) for n in names], winner, price)
    return out


def scalar_clear(raw, budgets, names, tie_rng):
    """Clear ``raw`` one row at a time: clamp to the budgets left, take the top bid, pay it."""
    left = list(budgets)
    by_name = sorted(range(len(names)), key=names.__getitem__)
    bids, winner, price = np.empty(raw.shape), np.empty(len(raw), np.int64), np.empty(len(raw))
    for r, row in enumerate(raw.tolist()):
        live = [min(b, x) if x > 0 else math.nan for b, x in zip(row, left)]
        best = max((b for b in live if b > 0), default=0.0)
        j = -1
        if best > 0:
            top = [i for i in by_name if live[i] == best]
            j = top[0] if len(top) == 1 else top[int(tie_rng.integers(len(top)))]
            left[j] -= best
        bids[r], winner[r], price[r] = live, j, best
    return bids, winner, price


def same_as_reference(agents, pool, seed, values=None):
    """The market's outcomes, after checking that they have the bits of ``reference_market``'s."""
    expected = reference_market(agents, pool, np.random.default_rng(seed), values)
    got = run_market(agents, pool, np.random.default_rng(seed)).outcomes
    assert got.tobytes() == expected.tobytes()
    return got


def random_agents(seed, strategies):
    """One agent per strategy plus two more, in random order; sorted names run backwards.

    Returns the agents and the baseline agents' own constants, for ``bid_per_agent``:
    every const agent bids the same, so exact ties reach the tie draw, and each rand
    and lin agent draws its own.
    """
    g = np.random.default_rng(seed)
    kinds = list(strategies) + [strategies[i] for i in g.integers(len(strategies), size=2)]
    kinds = [kinds[i] for i in g.permutation(len(kinds))]
    const_bid = float(g.choice([0.3, 0.5]))
    agents, values = [], {}
    for i, kind in enumerate(kinds):
        name = f"{'zyxwvutsrq'[i]}_{kind.value}"
        budget = float(g.uniform(0.3, 3.0))
        # every agent draws a rand_max and a lin_coef, so later draws do not depend on its kind
        own = {Strategy.CONST: const_bid, Strategy.RAND: float(g.uniform(0.1, 1.0)),
               Strategy.LIN: float(g.uniform(0.2, 1.5))}
        if kind in own:
            values[name] = own[kind]
        form = WIN_FORM.get(kind, WinForm.COMPLEX)  # only fbs and fbc read it
        agents.append(
            ConsumerAgent(
                name=name,
                strategy=kind,
                budget=budget,
                theta=g.uniform(-0.6, 1.5, 3),
                win_model=WinningFunctionModel(form, float(g.uniform(0.1, 2.0))),
                lam=float(g.uniform(0.0, 3.0)),
            )
        )
    return agents, values


class TestConsumerAgent:
    def test_infinite_budget_accepted(self):
        # the bootstrap history has the bits of rand agents with unlimited budgets
        assert ConsumerAgent("a", Strategy.RAND, math.inf).budget == math.inf

    POOL = generate_do_pool(40, (1000, 10000), np.random.default_rng(3))

    def assert_win_nothing(self, out):
        """``out`` wins nothing and spends nothing beside a valid rand agent, which wins."""
        metrics = compute_metrics(run_market([rand_agent("valid", 3.0), *out], self.POOL,
                                             np.random.default_rng(0)))
        assert metrics["valid"].num_owners_won > 0
        assert all(metrics[a.name].num_owners_won == 0 == metrics[a.name].spend for a in out)

    def test_budgets_the_config_rejects_win_nothing(self):
        # ConsumerAgent is a plain record; the market still keeps such agents out.
        # Each bids the positive CONST_BID, so its budget alone keeps it out.
        self.assert_win_nothing([const_agent("zero", 0.0), const_agent("negative", -1.0),
                                 const_agent("nan", math.nan)])

    def test_bids_that_are_not_positive_win_nothing(self, monkeypatch):
        # each agent has a valid budget, so its bid alone keeps it out: 0, negative or NaN
        theta, fbs = np.array([0.5, 0.2, 0.3]), WinningFunctionModel(WinForm.SIMPLE, 0.5)
        monkeypatch.setattr(st, "CONST_BID", 0.0)
        monkeypatch.setattr(st, "LIN_COEF", -1.0)
        self.assert_win_nothing([
            const_agent("free", 5.0),
            ConsumerAgent("neg_lin", Strategy.LIN, 5.0, theta=theta),
            ConsumerAgent("nan_lam", Strategy.FBS, 5.0, theta=theta, win_model=fbs, lam=math.nan),
        ])
        # a negative lambda is still refused where the closed forms are evaluated
        negative = ConsumerAgent("neg_lam", Strategy.FBS, 5.0, theta=theta, win_model=fbs, lam=-1.0)
        with pytest.raises(ValueError, match="lambda=-1.0"):
            run_market([rand_agent("valid", 3.0), negative], self.POOL, np.random.default_rng(0))


class TestBidRequest:
    """The feature row each owner's bid request carries."""

    @pytest.mark.parametrize(
        "oid,n,expected",
        [
            (50, 10000, [1.0, 0.5, 1.0]),
            (100, 1000, [1.0, 1.0, 0.1]),
            (1, 1000, [1.0, 0.01, 0.1]),
        ],
    )
    def test_features(self, oid, n, expected):
        Q = request_features([oid], [n], 100)
        assert Q.shape == (1, 3)
        np.testing.assert_allclose(Q[0], expected)

    def test_feature_bounds(self):
        pool = generate_do_pool(40, (1000, 10000), np.random.default_rng(5))
        Q = request_features(pool["id"], pool["num_samples"], 40)
        assert np.all(Q[:, 0] == 1.0)
        assert np.all(Q[:, 1:] >= 0) and np.all(Q[:, 1:] <= 1)

    def test_market_rows_carry_owners(self):
        pool = generate_do_pool(30, (1000, 10000), np.random.default_rng(6))
        out = run_market([const_agent()], pool, np.random.default_rng(0)).outcomes
        assert sorted(out["owner_id"]) == pool["id"].tolist()
        sizes = dict(zip(pool["id"].tolist(), pool["num_samples"].tolist()))
        assert out["num_samples"].tolist() == [sizes[i] for i in out["owner_id"].tolist()]


class TestPool:
    def test_paper_scale_pool(self):
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(7))
        assert pool.dtype == POOL_DTYPE and len(pool) == 100
        assert pool["id"].tolist() == list(range(1, 101))
        assert np.all((pool["num_samples"] >= 1000) & (pool["num_samples"] <= 10000))
        assert np.all(pool["blurred"][:50]) and not np.any(pool["blurred"][50:])

    def test_degenerate_range(self):
        pool = generate_do_pool(2, (5, 5), np.random.default_rng(99))
        assert pool["num_samples"].tolist() == [5, 5]
        assert pool["blurred"].tolist() == [True, False]

    def test_deterministic(self):
        pools = [generate_do_pool(30, (10, 20), np.random.default_rng(3)) for _ in range(2)]
        assert pools[0].tobytes() == pools[1].tobytes()

    def test_odd_pool_blur_split(self):
        pool = generate_do_pool(5, (10, 10), np.random.default_rng(0))
        assert pool["blurred"].tolist() == [True] * 3 + [False] * 2

    def test_draw_order_pinned(self):
        # the one (N, 2) draw keeps the interleaved order, size then seed per owner;
        # drawing all sizes and then all seeds in one call each would change every later number
        pool = generate_do_pool(6, (1000, 10000), np.random.default_rng(3))
        assert pool["num_samples"].tolist() == [8304, 2615, 2632, 8823, 1354, 3990]
        assert pool["local_seed"].tolist() == [
            183930185, 508546690, 1720723810, 1250183451, 202139719, 930133021
        ]

    @pytest.mark.parametrize("size", [2, 101])
    @pytest.mark.parametrize("lo,hi", [(1000, 10000), (5, 5), (1, 2**32), (2**31, 2**33),
                                       (1, 2**63 - 1), (2**63 - 1, 2**63 - 1)])
    def test_same_bits_as_scalar_draws(self, lo, hi, size):
        for seed in range(5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pool = generate_do_pool(size, (lo, hi), got_rng)
            want = [(int(want_rng.integers(lo, hi + 1)), int(want_rng.integers(0, 2**31 - 1)))
                    for _ in range(size)]
            assert list(zip(pool["num_samples"].tolist(), pool["local_seed"].tolist())) == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestAuction:
    """Clearing: the highest positive bid wins and pays its bid."""

    def test_strict_max(self, monkeypatch):
        pool = generate_do_pool(3, (5, 5), np.random.default_rng(0))
        agents = [const_agent("A", 10.0), const_agent("B", 10.0)]
        bid_per_agent(monkeypatch, agents, {"A": 0.5, "B": 0.8})
        result = run_market(agents, pool, np.random.default_rng(0))
        assert winner_names(result) == ["B"] * 3
        assert result.outcomes["price"].tolist() == [0.8] * 3
        assert result.outcomes["bids"].tolist() == [[0.5, 0.8]] * 3

    def test_tie_seeded(self):
        pool = generate_do_pool(20, (5, 5), np.random.default_rng(0))

        def winners(seed):
            agents = [const_agent("B", 100.0), const_agent("A", 100.0)]
            return winner_names(run_market(agents, pool, np.random.default_rng(seed)))

        assert set(winners(0)) == {"A", "B"}
        assert {winners(s)[0] for s in range(20)} == {"A", "B"}
        # same seed, same winners
        assert winners(4) == winners(4)

    def test_no_positive_bid(self):
        pool = generate_do_pool(4, (5, 5), np.random.default_rng(0))
        # 1 + theta.q is below the clamp floor, so the utility and the bid are 0
        agent = ConsumerAgent("a", Strategy.LIN, 1.0, theta=np.array([-2.0, 0.0, 0.0]))
        out = run_market([agent], pool, np.random.default_rng(0)).outcomes
        assert out["winner"].tolist() == [-1] * 4
        assert out["price"].tolist() == [0.0] * 4
        assert out["bids"].tolist() == [[0.0]] * 4


class TestMarket:
    def test_budget_clamping(self, monkeypatch):
        pool = generate_do_pool(3, (10, 10), np.random.default_rng(1))
        monkeypatch.setattr(st, "CONST_BID", 0.6)
        agent = const_agent(budget=1.0)
        result = run_market([agent], pool, np.random.default_rng(0))
        out = result.outcomes
        assert out["price"][out["winner"] == 0].tolist() == [0.6, pytest.approx(0.4)]
        assert out["bids"][:2, 0].tolist() == [0.6, pytest.approx(0.4)]
        assert compute_metrics(result)["a"].spend == pytest.approx(1.0)
        assert agent.budget == 1.0

    def test_termination_when_broke(self):
        pool = generate_do_pool(5, (10, 10), np.random.default_rng(1))
        result = run_market([const_agent(budget=st.CONST_BID)], pool, np.random.default_rng(0))
        assert winner_names(result) == ["a"] + [None] * 4
        # no budget left: no bid at all
        assert np.all(np.isnan(result.outcomes["bids"][1:]))
        assert result.outcomes["price"][1:].tolist() == [0.0] * 4

    def test_empty_inputs(self):
        # the config requires an agent; the library raises numpy's ValueError without one
        pool = generate_do_pool(2, (5, 5), np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_market([], pool, np.random.default_rng(0))
        result = run_market([const_agent()], pool[:0], np.random.default_rng(0))
        assert result.agent_names == ["a"] and len(result.outcomes) == 0

    def test_determinism(self):
        pool = generate_do_pool(10, (10, 100), np.random.default_rng(2))

        def go():
            agents = [const_agent("a", 2.0), rand_agent("b", 2.0)]
            return run_market(agents, pool, np.random.default_rng(7)).outcomes.tobytes()

        assert go() == go()

    def test_same_agents_twice(self):
        # the budgets live in the clearing loop, so the agents are not spent
        pool = generate_do_pool(20, (10, 100), np.random.default_rng(2))
        agents = [const_agent("a", 1.0), rand_agent("b", 1.5)]
        first = run_market(agents, pool, np.random.default_rng(7)).outcomes
        second = run_market(agents, pool, np.random.default_rng(7)).outcomes
        assert first.tobytes() == second.tobytes()
        assert np.count_nonzero(first["winner"] >= 0) > 2

    def test_conservation(self, monkeypatch):
        pool = generate_do_pool(20, (10, 100), np.random.default_rng(2))
        agents = [const_agent(f"a{i}", 3.0) for i in range(3)]
        bid_per_agent(monkeypatch, agents, {f"a{i}": 0.4 + 0.1 * i for i in range(3)})
        result = run_market(agents, pool, np.random.default_rng(1))
        out = result.outcomes
        assert len(out) == len(pool)
        assert sorted(out["owner_id"]) == pool["id"].tolist()
        metrics = compute_metrics(result)
        assert sum(m.num_owners_won for m in metrics.values()) + np.sum(out["winner"] < 0) == len(pool)
        sizes = dict(zip(pool["id"].tolist(), pool["num_samples"].tolist()))
        for j, name in enumerate(result.agent_names):
            won = out["owner_id"][out["winner"] == j].tolist()
            assert metrics[name].total_samples == sum(sizes[i] for i in won)

    def test_budget_safety_prefix(self, monkeypatch):
        pool = generate_do_pool(30, (10, 100), np.random.default_rng(4))
        monkeypatch.setattr(st, "RAND_MAX", 0.8)
        agents = [rand_agent("r1", 1.5), rand_agent("r2", 0.7)]
        result = run_market(agents, pool, np.random.default_rng(3))
        running = [0.0, 0.0]
        for j, price in zip(result.outcomes["winner"].tolist(), result.outcomes["price"].tolist()):
            if j >= 0:
                running[j] += price
                assert running[j] <= [1.5, 0.7][j]

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_market_pressure_const(self, seed):
        pool = generate_do_pool(25, (10, 100), np.random.default_rng(seed))

        def wins_at(budget):
            agents = [const_agent("c", budget), rand_agent("r", 3.0)]
            r = run_market(agents, pool, np.random.default_rng(seed + 100))
            return compute_metrics(r)["c"].num_owners_won

        assert wins_at(2.0) >= wins_at(1.0)


class TestReferenceLoop:
    """The columnar market against the per-auction loop it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "strategies",
        [
            (Strategy.CONST, Strategy.RAND),
            (Strategy.CONST, Strategy.RAND, Strategy.BMUB),
            (Strategy.CONST, Strategy.RAND, Strategy.BMUB, Strategy.LIN, Strategy.FBS),
        ],
        ids=["const-rand", "const-rand-bmub", "no-fbc"],
    )
    def test_bit_identical_given_row_predict(self, monkeypatch, seed, strategies):
        # with predict taken row by row, only fbc's vectorized pow could differ
        monkeypatch.setattr(est, "predict", lambda theta, Q: np.array([ROW_PREDICT(theta, q) for q in Q]))
        agents, values = random_agents(seed, strategies)
        bid_per_agent(monkeypatch, agents, values)
        pool = generate_do_pool(40, (1000, 10000), np.random.default_rng(seed))
        expected = reference_market(agents, pool, np.random.default_rng(seed), values)
        got = run_market(agents, pool, np.random.default_rng(seed)).outcomes
        assert got.tobytes() == expected.tobytes()

    def test_reference_markets_reach_ties_and_spent_budgets(self):
        ties = spent = clamped = 0
        for seed in range(8):
            agents, values = random_agents(seed, (Strategy.CONST, Strategy.RAND))
            pool = generate_do_pool(40, (1000, 10000), np.random.default_rng(seed))
            out = reference_market(agents, pool, np.random.default_rng(seed), values)
            bids = out["bids"]
            ties += np.sum(np.sum(bids == out["price"][:, None], axis=1) > 1)
            spent += np.sum(np.isnan(bids))
            # a clamped win pays the winner's whole remaining budget
            left = [a.budget for a in agents]
            for j, price in zip(out["winner"].tolist(), out["price"].tolist()):
                if j >= 0:
                    clamped += price == left[j]
                    left[j] -= price
        assert ties > 0 and spent > 0 and clamped > 0

    def test_tie_on_every_row(self):
        pool = generate_do_pool(1000, (1000, 10000), np.random.default_rng(11))
        agents = [const_agent("b", 1e6), const_agent("a", 1e6)]
        got = same_as_reference(agents, pool, 11)
        assert set(got["winner"].tolist()) == {0, 1}

    def test_budgets_spent_early(self):
        pool = generate_do_pool(1000, (1000, 10000), np.random.default_rng(12))
        budgets = np.random.default_rng(12).uniform(3.0, 8.0, 6)
        agents = [rand_agent(f"r{j}", float(b)) for j, b in enumerate(budgets)]
        got = same_as_reference(agents, pool, 12)
        assert np.all(np.isnan(got["bids"][100:]))

    def test_infinite_budgets(self, monkeypatch):
        pool = generate_do_pool(1000, (1000, 10000), np.random.default_rng(13))
        agents = [rand_agent(f"r{j}", math.inf) for j in range(6)]
        values = {f"r{j}": 0.5 + 0.1 * j for j in range(6)}
        bid_per_agent(monkeypatch, agents, values)
        got = same_as_reference(agents, pool, 13, values)
        assert np.all(got["winner"] >= 0)

    def test_ties_right_after_a_clamp(self):
        # c ties a and b until its second win leaves 0.2; the next row is the
        # first a-b tie, so a tie draw skipped or repeated at that clamp
        # would change the winners after it
        pool = generate_do_pool(200, (1000, 10000), np.random.default_rng(14))
        agents = [const_agent("c", 1.2), const_agent("b", 1e6), const_agent("a", 1e6)]
        got = same_as_reference(agents, pool, 14)
        second_win = np.flatnonzero(got["winner"] == 0)[1]
        assert got["bids"][second_win + 1].tolist() == [pytest.approx(0.2), 0.5, 0.5]
        assert set(got["winner"][second_win + 1 :].tolist()) == {1, 2}

    def test_tied_budgets_run_out(self, monkeypatch):
        # five const agents tie at 0.5 on every row until their budgets run out:
        # every row before that draws a tie
        pool = generate_do_pool(300, (1000, 10000), np.random.default_rng(15))
        budgets = [0.5 * 300 / 5 * (0.5 + i / 5) for i in range(5)]
        agents = [const_agent(f"c{i}", b) for i, b in enumerate(budgets)]
        tie_rngs, clear = [], market._clear
        monkeypatch.setattr(market, "_clear", lambda *args: tie_rngs.append(args[3]) or clear(*args))
        got = same_as_reference(agents, pool, 15)
        want_rng = np.random.default_rng(15).spawn(2 + len(agents))[1]  # run_market's tie_rng
        scalar_clear(np.full((300, 5), 0.5), budgets, [a.name for a in agents], want_rng)
        assert tie_rngs[0].bit_generator.state == want_rng.bit_generator.state
        assert np.all(np.isnan(got["bids"][-1]))

    @pytest.mark.parametrize("seed", range(10))
    def test_six_strategies_within_predict_bound(self, monkeypatch, seed):
        agents, values = random_agents(seed, tuple(Strategy))
        bid_per_agent(monkeypatch, agents, values)
        pool = generate_do_pool(40, (1000, 10000), np.random.default_rng(seed))
        expected = reference_market(agents, pool, np.random.default_rng(seed), values)
        got = run_market(agents, pool, np.random.default_rng(seed)).outcomes
        for field in ("owner_id", "num_samples", "winner"):
            np.testing.assert_array_equal(got[field], expected[field])
        eps = np.finfo(float).eps
        Q = request_features(expected["owner_id"], expected["num_samples"], len(pool))
        for j, agent in enumerate(agents):
            want, have = expected["bids"][:, j], got["bids"][:, j]
            np.testing.assert_array_equal(np.isnan(have), np.isnan(want))
            # every bid moves by at most its utility's move (|db/ds| <= 1, lin: its
            # coefficient), a few ulp of its own rounding, and the spend's drift so far
            s_bound = row_predict_bound(agent.theta, Q)[1] if agent.strategy in st.NEEDS_THETA else 0.0
            won = expected["winner"] == j
            drift = np.abs(np.cumsum(np.where(won, got["price"] - expected["price"], 0.0)))
            drift = np.concatenate([[0.0], drift[:-1]])
            coef = values[agent.name] if agent.strategy is Strategy.LIN else 1.0
            tol = max(1.0, coef) * s_bound + 8 * eps * np.abs(want) + drift
            live = ~np.isnan(want)
            assert np.all(np.abs(have - want)[live] <= tol[live]), agent.name
        np.testing.assert_allclose(got["price"], expected["price"], rtol=1e-13, atol=0)


class TestClear:
    """``_clear`` against the reference row-by-row clearing of the same raw bids."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=hs.data(),
        m=hs.integers(1, 5),
        n=hs.integers(1, 120),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_scalar_clearing(self, data, m, n, seed):
        # a coarse grid makes ties common; budgets from 1e-3 to unlimited
        grid = hs.sampled_from([-0.0, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
        raw = data.draw(hnp.arrays(float, (n, m), elements=grid))
        budget = hs.sampled_from([1e-3, 0.1, 0.5, 1.0, 2.0, math.inf]) | hs.floats(1e-3, 20.0)
        budgets = data.draw(hs.lists(budget, min_size=m, max_size=m))
        names = [f"a{i}" for i in data.draw(hs.permutations(range(m)))]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _clear(raw, budgets, names, got_rng)
        want = scalar_clear(raw, budgets, names, want_rng)
        for have, expected in zip(got, want):
            assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestRandomBidHistory:
    """The bootstrap sampler: what its rows must hold, and how it draws them."""

    NAMES = [s.value for s in Strategy]  # the default lineup: not in name order

    @staticmethod
    def sample(pool, seed, rounds=20, names=NAMES):
        """The sampler's rows, after checking each against the clearing rule written row by row:
        the top positive bid wins at its price, the first in name order among ties, and a row
        with no positive bid goes unsold at price 0."""
        got = random_bid_history(names, pool, np.random.default_rng(seed), rounds)
        assert got.dtype == outcome_dtype(len(names)) and len(got) == rounds * len(pool)
        by_name = sorted(range(len(names)), key=names.__getitem__)
        for bids, winner, price in zip(*(got[f].tolist() for f in ("bids", "winner", "price"))):
            best = max([b for b in bids if b > 0], default=0.0)
            want = next((j for j in by_name if bids[j] == best), -1) if best > 0 else -1
            assert (winner, price) == (want, best)
        return got

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("size", [30, 100, 1000])
    def test_bits_of_run_market(self, size, seed, monkeypatch):
        # each round's rows are run_market's, in its order, when its rand agents bid the
        # round's bids: market looks bid_rand up at each call
        pool = generate_do_pool(size, (1000, 10000), np.random.default_rng(seed))
        got = self.sample(pool, seed)
        agents = [ConsumerAgent(name, Strategy.RAND, math.inf) for name in self.NAMES]
        order = run_market(agents, pool, np.random.default_rng(seed)).outcomes["owner_id"] - 1
        for rows in got.reshape(20, size):
            want = rows[np.argsort(rows["owner_id"])][order]
            columns = iter(want["bids"].T)
            monkeypatch.setattr(market, "bid_rand", lambda *args: next(columns))
            assert run_market(agents, pool, np.random.default_rng(seed)).outcomes.tobytes() == want.tobytes()

    def test_rounds_permute_the_pool(self):
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(16))
        got = self.sample(pool, 16)
        for rows in got.reshape(20, 100):
            assert sorted(rows["owner_id"]) == list(pool["id"])
            assert np.array_equal(rows["num_samples"], pool["num_samples"][rows["owner_id"] - 1])
        assert np.all(got["bids"] > 0) and np.all(got["bids"] <= st.RAND_MAX)
        assert np.all(got["winner"] >= 0)

    def test_draws_are_one_order_block_then_one_bid_block(self):
        # per-round bid draws have the bits of one block draw after the orders
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(20))
        got_rng, want_rng = np.random.default_rng(20), np.random.default_rng(20)
        got = random_bid_history(self.NAMES, pool, got_rng, 20)
        order = want_rng.permuted(np.tile(np.arange(100), (20, 1)), axis=1).ravel()
        bids = st.bid_rand(want_rng, 20 * 100 * len(self.NAMES))
        assert np.array_equal(got["owner_id"], pool["id"][order])
        assert got["bids"].tobytes() == bids.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_same_seed_same_bytes(self):
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(21))
        first, again, other = (random_bid_history(self.NAMES, pool, np.random.default_rng(seed), 20)
                               for seed in (21, 21, 22))
        assert first.tobytes() == again.tobytes() != other.tobytes()

    def test_ties_go_to_the_first_top_bid_in_name_order(self, monkeypatch):
        # bids of 1/3, 2/3 or 1 tie on most rows; the sampler looks bid_rand up in market
        draw = market.bid_rand
        monkeypatch.setattr(market, "bid_rand", lambda *args: np.ceil(3 * draw(*args)) / 3)
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(17))
        got = self.sample(pool, 17)
        tied = (got["bids"] == got["price"][:, None]).sum(axis=1) > 1
        assert tied.reshape(20, 100).sum(axis=1).min() > 1  # several ties in every round

    def test_rows_with_no_positive_bid_go_unsold(self, monkeypatch):
        # bids of 0, 1/2 or 1: about 1 row in 64 has every bid at 0
        draw = market.bid_rand
        monkeypatch.setattr(market, "bid_rand", lambda *args: np.floor(2 * draw(*args)) / 2)
        pool = generate_do_pool(100, (1000, 10000), np.random.default_rng(19))
        got = self.sample(pool, 19)
        unsold = got["winner"] == -1
        assert unsold.sum() > 10 and np.all(got["price"][unsold] == 0.0)

    def test_zero_rounds(self):
        pool = generate_do_pool(30, (1000, 10000), np.random.default_rng(18))
        assert len(self.sample(pool, 18, rounds=0, names=["solo"])) == 0


class TestMetrics:
    def _result(self, rows):
        out = np.array(rows, dtype=outcome_dtype(1))
        return MarketResult(["a"], out)

    def test_unit_price_arithmetic(self):
        result = self._result([(1, 14000, [50.0], 0, 50.0), (2, 3000, [0.0], -1, 0.0)])
        m = compute_metrics(result)["a"]
        assert (m.num_owners_won, m.total_samples, m.spend) == (1, 14000, 50.0)
        assert m.unit_price_per_1000 == pytest.approx(50 / 14)

    def test_no_wins(self):
        m = compute_metrics(self._result([(1, 5, [0.0], -1, 0.0)]))["a"]
        assert m.num_owners_won == 0
        assert m.total_samples == 0
        assert m.spend == 0.0
        assert m.unit_price_per_1000 is None

    def test_spend_adds_in_auction_order(self, rng):
        prices = rng.uniform(0.0, 1.0, 200)
        rows = [(i, 10, [p], 0 if i % 3 else -1, p if i % 3 else 0.0) for i, p in enumerate(prices.tolist())]
        running = 0.0
        for row in rows:
            if row[3] == 0:
                running += row[4]
        m = compute_metrics(self._result(rows))["a"]
        assert m.spend == running
        assert type(m.spend) is float and type(m.total_samples) is int

    def test_single_win(self, monkeypatch):
        pool = generate_do_pool(2, (1000, 1000), np.random.default_rng(0))
        monkeypatch.setattr(st, "CONST_BID", 2.79)
        result = run_market([const_agent(budget=2.79)], pool[:1], np.random.default_rng(0))
        m = compute_metrics(result)["a"]
        assert m.num_owners_won == 1
        assert m.unit_price_per_1000 == pytest.approx(2.79)
