"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import csv
import time

import numpy as np
import pytest

from flmarket import estimator as est
from flmarket import strategies as st
from flmarket import winmodel as wm
from flmarket.config import RunConfig
from flmarket.experiment import bootstrap_history, run_experiment
from flmarket.market import generate_do_pool
from flmarket.winmodel import WinForm, WinningFunctionModel

from conftest import central_difference, criterion_triples, make_history

N_TRIPLES = 1000


@pytest.fixture(scope="module")
def triples():
    return criterion_triples(N_TRIPLES)


def report(num, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"{state} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_closed_form_certification(triples):
    t0 = time.time()
    worst = 0.0
    for s, c, lam in triples:
        for form, bid_fn in ((WinForm.SIMPLE, st.bid_fbs), (WinForm.COMPLEX, st.bid_fbc)):
            model = WinningFunctionModel(form, c)
            oracle = st.oracle_optimal_bid(s, model, lam)
            err = abs(bid_fn(s, c, lam) - oracle) / (1 + oracle)
            worst = max(worst, err)
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-4 and elapsed < 60,
        f"closed forms vs FOC-bisection oracle, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_first_order_condition(triples):
    worst = 0.0
    for s, c, lam in triples:
        r_s = st.check_foc(s, st.bid_fbs(s, c, lam), WinningFunctionModel(WinForm.SIMPLE, c), lam)
        r_c = st.check_foc(s, st.bid_fbc(s, c, lam), WinningFunctionModel(WinForm.COMPLEX, c), lam)
        worst = max(worst, abs(r_s) / (1 + s), abs(r_c) / (1 + s))
    report(2, worst <= 1e-9, f"FOC residual, worst {worst:.2e}")


def test_criterion_3_cubic_identity(triples):
    worst = 0.0
    for s, c, lam in triples:
        b = st.bid_fbc(s, c, lam)
        rhs = 2 * c * c * s / (lam + 1)
        worst = max(worst, abs(b**3 + 3 * c * c * b - rhs) / (1 + abs(rhs)))
    report(3, worst <= 1e-8, f"cubic identity residual, worst {worst:.2e}")


def test_criterion_4_gradient_vs_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        Q, y = make_history(rng.uniform(-0.2, 0.5, 3), int(rng.integers(1, 10)), rng)
        theta = rng.uniform(-0.3, 0.3, 3)
        if min(1.0 + Q @ theta) < 0.1:
            continue
        g = est.gradient(theta, Q, y)
        fd = central_difference(lambda t: est.loss(t, Q, y), theta)
        denom = max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, float(np.linalg.norm(g - fd) / denom))
        checked += 1
    report(4, worst <= 1e-5, f"estimator gradient vs central differences, worst {worst:.2e}")


def test_criterion_5_lambda_solver():
    rng = np.random.default_rng(5)
    ok = True
    details = []
    for k in range(5):
        samples = rng.uniform(0.0, 2.0, 400)
        model = WinningFunctionModel(WinForm.SIMPLE, rng.uniform(0.5, 2.0))
        g0 = st.expected_spend_per_request(samples, model, 0.0)
        budget = 0.15 * g0 * len(samples)
        sol = st.solve_lambda(samples, model, budget)
        sol_half = st.solve_lambda(samples, model, budget / 2)
        pacing = abs(sol.expected_spend_per_request - sol.target) <= 0.01 * sol.target
        ok = ok and pacing and sol_half.lam > sol.lam
        details.append(f"set{k}: pace {pacing}, lam {sol.lam:.3f}->{sol_half.lam:.3f}")
    report(5, ok, "; ".join(details))


def test_criterion_6_calibration_recovery():
    results = {}
    for form, c_star in ((WinForm.SIMPLE, 2.0), (WinForm.COMPLEX, 1.5)):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(600 + seed)
            model = WinningFunctionModel(form, c_star)
            bids = rng.uniform(0.0, 5.0 * c_star, 10_000)
            wins = rng.random(10_000) < wm.win_prob(model, bids)
            c_hat, _ = wm.calibrate_c(wm.empirical_win_curve(bids, wins), form)
            if abs(c_hat - c_star) <= 0.05 * c_star:
                hits += 1
        results[form.value] = hits
    ok = all(h >= 9 for h in results.values())
    report(6, ok, f"c recovery within 5%: {results} of 10 seeds")


def test_criterion_7_budget_safety_and_determinism(tmp_path):
    a = run_experiment(RunConfig(master_seed=7, output_dir=str(tmp_path / "a"), train_fl=False))
    b = run_experiment(RunConfig(master_seed=7, output_dir=str(tmp_path / "b"), train_fl=False))
    identical = (
        a.market_csv.read_bytes() == b.market_csv.read_bytes()
        and a.summary_csv.read_bytes() == b.summary_csv.read_bytes()
    )
    budgets = {ag.name: a.config.scaled_budget(ag) for ag in a.config.agents}
    running = {n: 0.0 for n in budgets}
    safe = True
    for j, price in zip(a.result.outcomes["winner"].tolist(), a.result.outcomes["price"].tolist()):
        if j >= 0:
            winner = a.result.agent_names[j]
            running[winner] += price
            safe = safe and running[winner] <= budgets[winner]
    report(7, identical and safe, f"byte-identical reruns {identical}, prefix budget safety {safe}")


def test_criterion_8_market_advantage_over_lin(tmp_path):
    t0 = time.time()
    ok = True
    details = []
    for budget in (50.0, 150.0, 300.0):
        wins_fbs = wins_fbc = 0
        adv = []
        for seed in range(10):
            cfg = RunConfig(
                master_seed=seed, budget=budget,
                output_dir=str(tmp_path / f"b{int(budget)}s{seed}"), train_fl=False,
            )
            pa = run_experiment(cfg).metrics
            lin = pa["lin"]

            def beats(fb):
                more = fb.total_samples >= lin.total_samples
                cheaper = lin.unit_price_per_1000 is None or (
                    fb.unit_price_per_1000 is not None
                    and fb.unit_price_per_1000 <= lin.unit_price_per_1000
                )
                return more and cheaper

            wins_fbs += beats(pa["fbs"])
            wins_fbc += beats(pa["fbc"])
            adv.append(
                max(pa["fbs"].total_samples, pa["fbc"].total_samples) - lin.total_samples
            )
        mean_adv = float(np.mean(adv))
        ok = ok and wins_fbs >= 8 and wins_fbc >= 8 and mean_adv > 0
        details.append(f"budget {budget}: fbs {wins_fbs}/10, fbc {wins_fbc}/10, adv {mean_adv:.0f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    report(8, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_9_fl_accuracy_ordering(tmp_path):
    acc = {}
    for mode in ("iid", "niid"):
        for seed in range(5):
            cfg = RunConfig(
                master_seed=seed, partition=mode,
                output_dir=str(tmp_path / f"{mode}{seed}"),
            )
            for name, accuracy in run_experiment(cfg).accuracy.items():
                acc.setdefault((mode, name), []).append(accuracy)

    def mean(mode, name):
        vals = [v for v in acc[(mode, name)] if v is not None]
        return float(np.mean(vals)) if vals else 0.0

    fb_ok = all(
        mean(mode, fb) >= mean(mode, "rand")
        for mode in ("iid", "niid")
        for fb in ("fbs", "fbc")
    )
    niid_ok = all(
        mean("niid", name) <= mean("iid", name)
        for name in ("const", "rand", "bmub", "lin", "fbs", "fbc")
    )
    detail = ", ".join(
        f"{m}/{n}={mean(m, n):.3f}" for m in ("iid", "niid") for n in ("rand", "fbs", "fbc")
    )
    report(9, fb_ok and niid_ok, detail)


def test_criterion_10_estimator_quality_signal():
    cfg = RunConfig(master_seed=7)
    pool = generate_do_pool(cfg.pool_size, cfg.sample_range, np.random.default_rng(0))
    cal = bootstrap_history(cfg, pool, np.random.default_rng(1))
    half = cfg.pool_size // 2
    rates = {}
    for name in ("fbs", "fbc"):
        theta = cal[name].theta
        wins = total = 0
        for n in (1000, 5500, 10000):
            for i in range(1, half + 1):
                q_blur = np.array([1.0, i / cfg.pool_size, n / 10000.0])
                q_clean = np.array([1.0, (i + half) / cfg.pool_size, n / 10000.0])
                wins += est.predict(theta, q_clean) > est.predict(theta, q_blur)
                total += 1
        rates[name] = wins / total
    ok = all(r >= 0.95 for r in rates.values())
    report(10, ok, f"clean-over-blurred prediction rate {rates}")
