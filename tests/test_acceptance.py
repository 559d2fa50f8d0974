"""Acceptance gate: eleven pinned criteria, one test function each.

Run with -v to get one pass/fail line per criterion. Every test is
self-contained: oracle values are frozen literals, tolerances are the
contracted ones, and the timed criteria assert their wall-clock budget.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from chainopt.backtest import ReturnMatrix, run_dynamic, run_long_short, run_static
from chainopt.cli import main
from chainopt.greeks import (
    Region,
    classify_region,
    delta_fd,
    delta_ms,
    gamma_fd,
    rho_fd,
    theta_fd,
    vega_fd,
)
from chainopt.implied_vol import implied_vol
from chainopt.market_data import (
    CHAIN_COLUMNS,
    BucketLabel,
    GeneratorConfig,
    bucket_by_liquidity,
    enrich_records,
    generate_synthetic_chain,
    parse_option_chain,
    write_option_chain,
)
from chainopt.optimizer import (
    MomentEstimate,
    PortfolioConstraints,
    solve_box_constrained,
    solve_markowitz,
    solve_robust,
)
from chainopt.pricing import (
    ContractType,
    Exercise,
    PricingInputs,
    black_scholes_price,
    price_option,
)
from chainopt.universe import Universe

UTC = timezone.utc
T0 = datetime(2024, 1, 2, 14, 30, tzinfo=UTC)

# moneyness is strike/spot at spot 100
PRICING_GRID = list(
    itertools.product((0.8, 1.0, 1.2), (0.1, 0.5, 1.0), (0.1, 0.2, 0.4))
)

# 3-asset mean-variance problem with a hand-derived KKT solution.
MU3 = np.array([0.05, 0.08, 0.12])
COV3 = np.array([[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]])
TARGET3 = 0.09
MARKOWITZ3_W = (0.2455795677799606, 0.32023575638506885, 0.4341846758349705)

# 6-asset diagonal problem whose box and IV-cap solutions are exact
# rationals (pair symmetry reduces each to one free variable).
MU6 = np.array([0.010, 0.010, 0.006, 0.006, 0.002, 0.002])
COV6 = np.diag([0.04, 0.04, 0.02, 0.02, 0.01, 0.01])
IV6 = np.array([0.60, 0.60, 0.40, 0.40, 0.20, 0.20])
IV_CAP = 0.36


def grid_inputs(moneyness, maturity, sigma, kind, exercise, steps=1000) -> PricingInputs:
    return PricingInputs(
        spot=100.0,
        strike=100.0 * moneyness,
        time_to_maturity=maturity,
        rate=0.05,
        dividend_yield=0.0,
        volatility=sigma,
        steps=steps,
        contract_type=kind,
        exercise=exercise,
    )


def moments3() -> MomentEstimate:
    return MomentEstimate(mean=MU3, covariance=COV3, window=30)


def matrix_from(rows: np.ndarray, ids: tuple[str, ...]) -> ReturnMatrix:
    stamps = tuple(T0 + timedelta(hours=i + 1) for i in range(rows.shape[0]))
    return ReturnMatrix(start=T0, timestamps=stamps, ids=ids, returns=rows)


def test_criterion_01_pricing_convergence():
    started = time.perf_counter()
    for moneyness, maturity, sigma in PRICING_GRID:
        for kind in (ContractType.CALL, ContractType.PUT):
            inputs = grid_inputs(moneyness, maturity, sigma, kind, Exercise.EUROPEAN)
            assert abs(price_option(inputs) - black_scholes_price(inputs)) <= 0.01
    assert time.perf_counter() - started < 5.0


def test_criterion_02_american_dominance_and_equivalence():
    for moneyness, maturity, sigma in PRICING_GRID:
        eu_put = price_option(
            grid_inputs(moneyness, maturity, sigma, ContractType.PUT, Exercise.EUROPEAN)
        )
        am_put = price_option(
            grid_inputs(moneyness, maturity, sigma, ContractType.PUT, Exercise.AMERICAN)
        )
        assert am_put >= eu_put - 1e-12
        eu_call = price_option(
            grid_inputs(moneyness, maturity, sigma, ContractType.CALL, Exercise.EUROPEAN)
        )
        am_call = price_option(
            grid_inputs(moneyness, maturity, sigma, ContractType.CALL, Exercise.AMERICAN)
        )
        assert abs(am_call - eu_call) <= 1e-10


def brute_force_european(inputs: PricingInputs) -> float:
    """Independent oracle: enumerate all 2^N up/down paths explicitly."""
    n = inputs.steps
    dt = inputs.time_to_maturity / n
    up = math.exp(inputs.volatility * math.sqrt(dt))
    down = 1.0 / up
    growth = math.exp((inputs.rate - inputs.dividend_yield) * dt)
    q = (growth - down) / (up - down)
    total = 0.0
    for path in itertools.product((0, 1), repeat=n):
        ups = sum(path)
        terminal = inputs.spot * up**ups * down ** (n - ups)
        if inputs.contract_type is ContractType.CALL:
            payoff = max(terminal - inputs.strike, 0.0)
        else:
            payoff = max(inputs.strike - terminal, 0.0)
        total += q**ups * (1.0 - q) ** (n - ups) * payoff
    return math.exp(-inputs.rate * inputs.time_to_maturity) * total


def test_criterion_03_exhaustive_path_oracle():
    for steps in (1, 2, 3, 5, 8, 12):
        for kind in (ContractType.CALL, ContractType.PUT):
            inputs = PricingInputs(
                spot=100.0,
                strike=95.0,
                time_to_maturity=0.75,
                rate=0.05,
                dividend_yield=0.02,
                volatility=0.3,
                steps=steps,
                contract_type=kind,
                exercise=Exercise.EUROPEAN,
            )
            assert abs(price_option(inputs) - brute_force_european(inputs)) <= 1e-10


def test_criterion_04_iv_round_trip_batch():
    config = GeneratorConfig(
        strikes=tuple(np.linspace(90.0, 110.0, 25)),
        maturities=tuple(np.linspace(0.25, 1.0, 10)),
        bars=1,
        half_spread=0.0,
        steps=1000,
    )
    started = time.perf_counter()
    chain = generate_synthetic_chain(config, seed=42)
    quotes, dropped = enrich_records(chain.records, chain.spot_series, rate=config.rate)
    assert not dropped
    assert len(quotes) == 500

    recovered = 0
    fast_newton = 0
    for quote in quotes:
        inputs = PricingInputs(
            spot=quote.spot,
            strike=quote.contract.strike,
            time_to_maturity=quote.time_to_maturity,
            rate=quote.rate,
            dividend_yield=0.0,
            volatility=0.2,
            steps=1000,
            contract_type=quote.contract.contract_type,
            exercise=Exercise.AMERICAN,
        )
        solution = implied_vol(quote.mid, inputs)
        truth = chain.true_sigma[quote.contract.ric]
        if solution.converged and abs(solution.sigma - truth) <= 1e-4:
            recovered += 1
        if solution.method.value == "newton" and solution.iterations <= 20:
            fast_newton += 1
    elapsed = time.perf_counter() - started

    assert recovered == 500
    assert fast_newton >= 475
    assert elapsed < 30.0, f"took {elapsed:.1f} s against the 30 s gate"


def test_criterion_05_greek_cross_checks():
    for moneyness, maturity, sigma in itertools.product(
        (0.9, 1.0, 1.1), (0.5, 1.0), (0.2, 0.4)
    ):
        for kind in (ContractType.CALL, ContractType.PUT):
            inputs = grid_inputs(moneyness, maturity, sigma, kind, Exercise.AMERICAN)
            if classify_region(inputs).region is Region.CONTINUATION:
                assert abs(delta_ms(inputs) - delta_fd(inputs)) <= 0.02

    # European specialization at the standard point, frozen closed forms.
    call = grid_inputs(1.0, 1.0, 0.2, ContractType.CALL, Exercise.EUROPEAN)
    assert delta_fd(call) == pytest.approx(0.63683065117561907, abs=1e-3)
    assert gamma_fd(call) == pytest.approx(0.018762017345846893, abs=5e-3)
    assert theta_fd(call) == pytest.approx(-6.4140275464381961, rel=0.02)
    assert vega_fd(call) == pytest.approx(37.524034691693788, abs=1e-2)
    assert rho_fd(call) == pytest.approx(53.23248154537634, abs=1e-2)


def test_criterion_06_stopping_region_delta():
    inputs = PricingInputs(
        spot=60.0,
        strike=100.0,
        time_to_maturity=1.0,
        rate=0.05,
        dividend_yield=0.0,
        volatility=0.2,
        steps=1000,
        contract_type=ContractType.PUT,
        exercise=Exercise.AMERICAN,
    )
    assert classify_region(inputs).region is Region.STOPPING
    assert delta_ms(inputs) == -1.0


def test_criterion_07_optimizer_oracles():
    symmetric = MomentEstimate(
        mean=np.array([0.03, 0.03]),
        covariance=np.array([[0.05, 0.0], [0.0, 0.05]]),
        window=30,
    )
    assert solve_markowitz(symmetric, 0.03).weights == pytest.approx((0.5, 0.5), abs=1e-12)
    assert solve_markowitz(moments3(), TARGET3).weights == pytest.approx(
        MARKOWITZ3_W, abs=1e-3
    )

    plain = solve_markowitz(moments3(), TARGET3)
    robust = solve_robust(moments3(), uncertainty=0.0, target_return=TARGET3)
    assert max(abs(a - b) for a, b in zip(plain.weights, robust.weights)) <= 1e-6

    six = MomentEstimate(mean=MU6, covariance=COV6, window=30)
    boxed = solve_box_constrained(six, PortfolioConstraints(lower=0.01, upper=0.40))
    assert abs(sum(boxed.weights) - 1.0) <= 1e-8
    assert min(boxed.weights) >= 0.01 - 1e-9
    assert max(boxed.weights) <= 0.40 + 1e-9

    capped = solve_box_constrained(
        six, PortfolioConstraints(lower=0.01, upper=0.40, iv_cap=IV_CAP), ivs=IV6
    )
    assert abs(sum(capped.weights) - 1.0) <= 1e-8
    assert min(capped.weights) >= 0.01 - 1e-9
    assert max(capped.weights) <= 0.40 + 1e-9
    portfolio_iv = float(np.dot(capped.weights, IV6))
    assert abs(portfolio_iv - IV_CAP) <= 1e-6


def test_criterion_08_frontier_monotonicity():
    variances = [
        solve_markowitz(moments3(), float(target)).objective_value
        for target in np.linspace(0.07, 0.16, 10)
    ]
    for earlier, later in zip(variances, variances[1:]):
        assert later >= earlier - 1e-12


def test_criterion_09_backtest_identities():
    # Weight-1 single asset: equity equals the compounded asset path.
    rng = np.random.default_rng(5)
    rows = rng.normal(0.001, 0.02, (12, 1))
    single = run_static(matrix_from(rows, ("A",)), "markowitz")
    expected = [1.0]
    for value in rows[:, 0]:
        expected.append(expected[-1] * (1.0 + float(value)))
    assert single.equity_curve == tuple(expected)

    # Long-short nets to zero when every universe return is equal.
    flat_rows = np.array([[0.1, 0.1], [0.03, 0.03], [-0.2, -0.2]])
    matrix = matrix_from(flat_rows, ("A", "B"))
    universes = {
        stamp: Universe(decision_time=stamp, top=("A",), bottom=("B",))
        for stamp in matrix.timestamps
    }
    neutral = run_long_short(universes, matrix)
    assert neutral.equity_curve == (1.0, 1.0, 1.0, 1.0)
    assert neutral.metrics.cumulative_return == 0.0

    # One-rebalance dynamic run equals the static box run bar for bar.
    rng = np.random.default_rng(19)
    six_rows = rng.normal(0.002, 0.03, (12, 6))
    ids = ("A", "B", "C", "D", "E", "F")
    six = matrix_from(six_rows, ids)
    six_universes = {
        stamp: Universe(decision_time=stamp, top=("A", "B", "C"), bottom=("D", "E", "F"))
        for stamp in six.timestamps
    }
    dynamic = run_dynamic(six_universes, six, estimation_window=4, rebalance_every=10_000)
    static = run_static(six, "box", estimation_window=4)
    assert static.equity_curve == dynamic.equity_curve
    assert len(static.weights_history) == len(dynamic.weights_history) == 1
    assert static.weights_history[0][1].weights == dynamic.weights_history[0][1].weights


def test_criterion_10_end_to_end_determinism(tmp_path):
    data = tmp_path / "data"
    assert (
        main(
            [
                "synth",
                "--out",
                str(data),
                "--seed",
                "17",
                "--set",
                "bars=3",
                "--set",
                "steps=100",
            ]
        )
        == 0
    )
    out = tmp_path / "run"
    args = [
        "backtest",
        "--out",
        str(out),
        "--set",
        f"chain_path={data / 'chain.csv'}",
        "--set",
        f"spot_path={data / 'spot.csv'}",
        "--set",
        "steps=100",
        "--set",
        "strategy=long_short",
        "--set",
        "k=2",
    ]
    digests = []
    for _ in range(2):
        assert main(args) == 0
        digests.append(
            (
                hashlib.sha256((out / "equity.csv").read_bytes()).hexdigest(),
                hashlib.sha256((out / "weights.csv").read_bytes()).hexdigest(),
            )
        )
    assert digests[0] == digests[1]


def test_criterion_11_schema_fidelity(tmp_path):
    # A chain carrying exactly the documented column set parses clean.
    chain = generate_synthetic_chain(GeneratorConfig(bars=2, steps=20), seed=9)
    path = tmp_path / "chain.csv"
    write_option_chain(chain.records, str(path))
    with open(path) as handle:
        header = next(csv.reader(handle))
    assert header == list(CHAIN_COLUMNS)
    parsed = parse_option_chain(str(path))
    assert parsed.report.entries == []
    assert parsed.report.rows_kept == parsed.report.rows_read == len(chain.records)
    _, gap_entries = bucket_by_liquidity(parsed.records)
    assert gap_entries == []

    # Liquidity bands: worst-bar NA of 0-1 liquid, 3-7 illiquid, 2 gap.
    tracked = ("Open", "High", "Low", "Last", "Close Bid", "Close Ask", "Mid Close")
    base = {
        "#RIC": "",
        "Domain": "Market Price",
        "Date-Time": "2024-01-02T14:30:00+00:00",
        "Type": "Intraday 1Hour",
        "Open": "5.1",
        "High": "5.3",
        "Low": "5.0",
        "Last": "5.2",
        "Volume": "1200",
        "No. Trades": "240",
        "Open Bid": "5.0",
        "High Bid": "5.2",
        "Low Bid": "4.9",
        "Close Bid": "5.1",
        "No. Bids": "80",
        "Open Ask": "5.2",
        "High Ask": "5.4",
        "Low Ask": "5.1",
        "Close Ask": "5.3",
        "No. Asks": "75",
        "Mid Open": "5.1",
        "Mid Close": "5.2",
        "Root": "OPT",
        "Strike Price": "100.0",
        "Maturity": "2024-06-21",
        "Contract Type": "C",
    }
    blank_counts = {"LIQ0": 0, "LIQ1": 1, "GAP2": 2, "ILL3": 3, "ILL7": 7}
    banded = tmp_path / "bands.csv"
    with open(banded, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CHAIN_COLUMNS)
        for name, blanks in blank_counts.items():
            row = dict(base, **{"#RIC": f"OPT240621C0000{name}"})
            for column in tracked[:blanks]:
                row[column] = ""
            writer.writerow([row[column] for column in CHAIN_COLUMNS])
    buckets, excluded = bucket_by_liquidity(parse_option_chain(str(banded)).records)
    assert set(buckets[BucketLabel.LIQUID].members) == {
        "OPT240621C0000LIQ0",
        "OPT240621C0000LIQ1",
    }
    assert set(buckets[BucketLabel.ILLIQUID].members) == {
        "OPT240621C0000ILL3",
        "OPT240621C0000ILL7",
    }
    assert [entry.ric for entry in excluded] == ["OPT240621C0000GAP2"]
    assert excluded[0].reason == "liquidity_gap"
