"""Round-trip and safeguard tests for the volatility solver.

The round-trip oracle is the pricing module itself: a market price
manufactured at a known sigma must invert back to that sigma. Grids
stay inside the identifiable envelope (strikes within about 10% of
spot, T 0.25-2, sigma 0.2-0.8): outside it, deep ITM American prices
pin to intrinsic and deep OTM prices sink below the price tolerance,
so no solver could recover sigma from the price; those edges get their
own explicit tests below.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from chainopt.errors import ArbitrageViolation, DegenerateProbability, DimensionMismatch
from chainopt.implied_vol import (
    SIGMA_MAX,
    SIGMA_MIN,
    IvSolution,
    SolveMethod,
    SolverOptions,
    cold_seed,
    implied_vol,
    implied_vols,
    initial_guess,
    portfolio_iv,
)
from chainopt.pricing import (
    ContractType,
    Exercise,
    black_scholes_price,
    build_lattices,
    price_option,
)

from test_pricing import make_inputs

# Independent evaluation of the seed formula at S=100, T=1, price=8.
GOLDEN_SEED = 0.20053026197048004


def american(**kwargs):
    kwargs.setdefault("exercise", Exercise.AMERICAN)
    return make_inputs(**kwargs)


# ---------------------------------------------------------------------------
# initial guess


def test_seed_formula():
    assert initial_guess(8.0, american()) == pytest.approx(GOLDEN_SEED, abs=1e-15)


def test_seed_lower_clamp():
    assert initial_guess(0.0, american()) == 0.05


def test_seed_upper_clamp():
    assert initial_guess(90.0, american()) == 1.0


# ---------------------------------------------------------------------------
# cold seed


@pytest.mark.parametrize(
    "moneyness,maturity,sigma,kind",
    list(
        itertools.product(
            [0.9, 1.0, 1.1], [0.1, 1.0], [0.15, 0.3, 1.5], list(ContractType)
        )
    ),
)
def test_cold_seed_inverts_black_scholes(moneyness, maturity, sigma, kind):
    inputs = make_inputs(
        strike=100.0 / moneyness, maturity=maturity, volatility=sigma, contract_type=kind
    )
    seed = cold_seed(black_scholes_price(inputs), inputs, price_tolerance=1e-12)
    assert seed == pytest.approx(sigma, abs=1e-8)


def test_cold_seed_prices_no_lattice(probes):
    inputs = american(steps=500)
    cold_seed(price_option(inputs.replace(volatility=0.3)), inputs)
    assert probes == []


def test_first_probe_is_the_cold_seed(probes):
    inputs = american(steps=200)
    market = price_option(inputs.replace(volatility=0.3))
    implied_vol(market, inputs)
    assert probes[0][0] == cold_seed(market, inputs)


def test_cold_seed_outside_closed_form_range_falls_back():
    # A day-old in-the-money American put quoted just above intrinsic at
    # r=0.2: its European twin is worth less at every sigma up to
    # SIGMA_MAX.
    put = american(
        spot=50.0, strike=100.0, maturity=0.001, rate=0.2, contract_type=ContractType.PUT
    )
    above = 50.0 + 1e-3
    twin = put.replace(exercise=Exercise.EUROPEAN, volatility=SIGMA_MAX)
    assert black_scholes_price(twin) < above
    assert cold_seed(above, put) == initial_guess(above, put)
    # Below the twin's SIGMA_MIN value there is no closed-form vol either.
    call = american(strike=50.0)
    twin = call.replace(exercise=Exercise.EUROPEAN, volatility=SIGMA_MIN)
    below = black_scholes_price(twin) - 1e-3
    assert cold_seed(below, call) == initial_guess(below, call)


# ---------------------------------------------------------------------------
# round trip


def test_round_trip_at_30_vol():
    inputs = american(steps=500)
    market = price_option(inputs.replace(volatility=0.30))
    solution = implied_vol(market, inputs)
    assert solution.converged
    assert solution.sigma == pytest.approx(0.30, abs=1e-4)


def test_round_trip_grid():
    # 200 contracts drawn uniformly over the identifiable envelope,
    # fixed seed. Strikes hug the tradeable band around spot; maturity
    # and volatility span their full ranges.
    import numpy as np

    rng = np.random.default_rng(11)
    cells = newton_fast = 0
    for _ in range(200):
        moneyness = rng.uniform(0.9, 1.1)
        maturity = rng.uniform(0.25, 2.0)
        sigma = rng.uniform(0.2, 0.8)
        kind = ContractType.CALL if rng.random() < 0.5 else ContractType.PUT
        inputs = american(
            strike=100.0 / moneyness,
            maturity=maturity,
            steps=500,
            contract_type=kind,
        )
        market = price_option(inputs.replace(volatility=sigma))
        solution = implied_vol(market, inputs)
        assert solution.converged
        assert solution.sigma == pytest.approx(sigma, abs=1e-4)
        cells += 1
        if solution.method is SolveMethod.NEWTON and solution.iterations <= 20:
            newton_fast += 1
    assert newton_fast >= 0.95 * cells


def test_extreme_vol_recovered_at_bracket_edge():
    inputs = american(steps=200)
    market = price_option(inputs.replace(volatility=2.5))
    solution = implied_vol(market, inputs)
    assert solution.converged
    assert solution.sigma == pytest.approx(2.5, abs=1e-3)


def test_solver_ignores_placeholder_volatility():
    market = price_option(american(steps=500, volatility=0.3))
    a = implied_vol(market, american(steps=500, volatility=0.9))
    b = implied_vol(market, american(steps=500, volatility=0.2))
    assert a == b


def test_degenerate_low_vol_region_is_bracketed_not_fatal():
    # At r=0.09, T=2, N=8 the lattice rejects sigma below roughly 0.045;
    # the solver must treat such probes as price-too-low, not crash.
    inputs = american(rate=0.09, maturity=2.0, steps=8, volatility=0.06)
    market = price_option(inputs)
    solution = implied_vol(market, inputs)
    assert solution.converged
    assert solution.sigma == pytest.approx(0.06, abs=1e-3)


# ---------------------------------------------------------------------------
# arbitrage bounds


def test_put_price_below_intrinsic_rejected():
    inputs = american(spot=80.0, strike=100.0, steps=100, contract_type=ContractType.PUT)
    with pytest.raises(ArbitrageViolation):
        implied_vol(15.0, inputs)


def test_pinned_intrinsic_price_is_not_invertible():
    # Deep ITM American put in the stopping region: the model price
    # equals intrinsic for a whole range of sigma, so the price carries
    # no volatility information and the solver refuses it.
    inputs = american(spot=50.0, strike=100.0, steps=200, contract_type=ContractType.PUT)
    assert price_option(inputs.replace(volatility=0.05)) == pytest.approx(50.0, abs=1e-9)
    with pytest.raises(ArbitrageViolation):
        implied_vol(50.0, inputs)


def test_call_price_above_spot_rejected():
    with pytest.raises(ArbitrageViolation):
        implied_vol(101.0, american(steps=100))


def test_non_positive_price_rejected():
    with pytest.raises(ArbitrageViolation):
        implied_vol(0.0, american(steps=100))
    with pytest.raises(ArbitrageViolation):
        implied_vol(-1.0, american(steps=100))


# ---------------------------------------------------------------------------
# safeguards and bookkeeping


def test_iteration_cap_returns_best_iterate_unconverged():
    inputs = american(steps=200)
    market = price_option(inputs.replace(volatility=0.30))
    solution = implied_vol(market, inputs, SolverOptions(max_iterations=2))
    assert not solution.converged
    assert solution.iterations == 2
    assert SIGMA_MIN <= solution.sigma <= SIGMA_MAX


def test_forced_bisection_still_converges(monkeypatch):
    # The package's implied_vol function shadows the submodule's name.
    monkeypatch.setattr(sys.modules["chainopt.implied_vol"], "VEGA_FLOOR", 1e9)
    inputs = american(steps=200)
    market = price_option(inputs.replace(volatility=0.30))
    solution = implied_vol(market, inputs)
    assert solution.converged
    assert solution.method is SolveMethod.BISECTION
    assert solution.sigma == pytest.approx(0.30, abs=1e-4)


def test_monotone_in_market_price():
    inputs = american(steps=300)
    sigmas = [
        implied_vol(price_option(inputs.replace(volatility=v)), inputs).sigma
        for v in (0.15, 0.25, 0.40)
    ]
    assert sigmas[0] < sigmas[1] < sigmas[2]


def test_solution_stays_inside_sigma_range():
    inputs = american(steps=200)
    for vol in (0.11, 0.9, 3.0):
        market = price_option(inputs.replace(volatility=vol))
        solution = implied_vol(market, inputs)
        assert SIGMA_MIN <= solution.sigma <= SIGMA_MAX


def test_deterministic_solution_object():
    inputs = american(steps=300)
    market = price_option(inputs.replace(volatility=0.27))
    first = implied_vol(market, inputs)
    second = implied_vol(market, inputs)
    assert first == second
    assert isinstance(first, IvSolution)


# One case per way out of the solver, with the IvSolution it returns.
# Columns: strike, T, r, q, steps, type, exercise, market price,
# (price_tolerance, step_tolerance, max_iterations), expected solution.
# test_solution_takes_its_named_exit checks that each still leaves by
# the exit its name gives.
P, C = ContractType.PUT, ContractType.CALL
AM, EU = Exercise.AMERICAN, Exercise.EUROPEAN
GOLDEN_SOLUTIONS = {
    "converged_newton": (
        100.0, 1.0, 0.05, 0.0, 100, P, AM, 9.855994691335242, (1e-6, 1e-8, 100),
        IvSolution(0.3000000047863289, 3, True, SolveMethod.NEWTON),
    ),
    "converged_after_degenerate_probe": (
        100.0, 2.0, 0.5, 0.0, 5, P, AM, 5.970876670039801, (1e-12, 1e-15, 100),
        IvSolution(0.5000000000000001, 9, True, SolveMethod.HYBRID),
    ),
    "newton_step_tolerance_converged": (
        110.0, 0.1, 0.0, 0.0, 20, P, AM, 12.824397531853377, (1e-6, 1e-3, 5),
        IvSolution(0.499999996494951, 3, True, SolveMethod.NEWTON),
    ),
    "newton_step_tolerance_unconverged": (
        150.0, 0.5, 0.5, 0.03, 3, C, EU, 49.74260413744109, (1e-12, 1e-3, 8),
        IvSolution(2.0578547335480795, 4, False, SolveMethod.NEWTON),
    ),
    "bisection_step_tolerance": (
        60.0, 0.01, 0.05, 0.0, 50, C, AM, 43.43466141330493, (1e-3, 1e-15, 100),
        IvSolution(4.999999999999999, 53, False, SolveMethod.BISECTION),
    ),
    "cap_after_rejected_newton": (
        90.0, 2.0, 0.5, 0.0, 20, C, AM, 66.89085240959584, (1e-6, 1e-3, 5),
        IvSolution(0.17000734284656405, 5, False, SolveMethod.HYBRID),
    ),
    "cap_at_two_iterations": (
        60.0, 1.0, 0.05, 0.0, 50, P, AM, 0.271004918859215, (1e-6, 1e-15, 2),
        IvSolution(0.3015257572349257, 2, False, SolveMethod.NEWTON),
    ),
    "cap_after_degenerate_probe": (
        150.0, 2.0, 0.2, 0.0, 20, C, AM, 2.3836668178052927, (1e-6, 1e-8, 4),
        IvSolution(0.6659732184558588, 4, False, SolveMethod.BISECTION),
    ),
}


def golden_solve(case):
    strike, maturity, rate, q, steps, kind, exercise, market, opts, _ = (
        GOLDEN_SOLUTIONS[case]
    )
    inputs = make_inputs(
        strike=strike,
        maturity=maturity,
        rate=rate,
        dividend_yield=q,
        steps=steps,
        contract_type=kind,
        exercise=exercise,
    )
    return implied_vol(market, inputs, SolverOptions(*opts))


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLUTIONS))
def test_solution_matches_golden(case):
    assert golden_solve(case) == GOLDEN_SOLUTIONS[case][-1]


@pytest.fixture
def probes(monkeypatch):
    """Every lattice price the solver makes, as (sigma, residual), with
    None for a degenerate lattice."""
    module = sys.modules["chainopt.implied_vol"]
    recorded = []

    def recording(inputs):
        try:
            price = price_option(inputs)
        except DegenerateProbability:
            recorded.append((inputs.volatility, None))
            raise
        recorded.append((inputs.volatility, price))
        return price

    monkeypatch.setattr(module, "price_option", recording)
    return recorded


def is_midpoint(probes, market):
    """Whether the last probe bisects the bracket the earlier ones left."""
    lo, hi = SIGMA_MIN, SIGMA_MAX
    for sigma, price in probes[:-1]:
        if price is None or price < market:
            lo = max(lo, sigma)
        else:
            hi = min(hi, sigma)
    return probes[-1][0] == 0.5 * (lo + hi)


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLUTIONS))
def test_solution_takes_its_named_exit(case, probes):
    market = GOLDEN_SOLUTIONS[case][7]
    tolerance, step_tolerance, cap = GOLDEN_SOLUTIONS[case][8]
    solution = golden_solve(case)
    assert solution.iterations == len(probes)
    residuals = [None if price is None else abs(price - market) for _, price in probes]
    last_step = abs(probes[-1][0] - probes[-2][0])
    if case.startswith("converged"):
        # Left at the top of the loop, with the step before it too long
        # to stop on.
        assert solution.converged and solution.iterations < cap
        assert residuals[-1] <= tolerance and solution.sigma == probes[-1][0]
        assert last_step > step_tolerance
    if "step_tolerance" in case:
        assert solution.iterations < cap
        assert last_step <= step_tolerance
        assert solution.converged is (residuals[-1] <= tolerance)
    if case.startswith("newton_step"):
        assert not is_midpoint(probes, market)
        assert residuals[-1] < residuals[-2]
    if case.startswith("bisection"):
        assert is_midpoint(probes, market)
    if case.startswith("cap"):
        assert solution.iterations == cap and not solution.converged
        best = min(r for r in residuals if r is not None)
        assert residuals[[s for s, _ in probes].index(solution.sigma)] == best
    if case == "cap_after_rejected_newton":
        assert not is_midpoint(probes, market)
        assert residuals[-1] >= residuals[-2]
    if case.endswith("degenerate_probe"):
        assert None in residuals


def test_price_within_tolerance_of_zero_rejected():
    # A deep out-of-the-money put: its lattice price at the 0.05 seed is
    # 0, within the default 1e-6 of either quote, so the seed would
    # "converge" in one iteration.
    inputs = american(strike=60.0, maturity=0.1, steps=100, contract_type=ContractType.PUT)
    with pytest.raises(ArbitrageViolation, match="price tolerance"):
        implied_vol(5e-7, inputs)
    with pytest.raises(ArbitrageViolation, match="price tolerance"):
        implied_vol(1e-6, inputs)
    # A tighter tolerance makes the same quote identifiable.
    solution = implied_vol(5e-7, inputs, SolverOptions(price_tolerance=1e-9))
    assert solution.converged
    assert abs(price_option(inputs.replace(volatility=solution.sigma)) - 5e-7) <= 1e-9


# ---------------------------------------------------------------------------
# lockstep driver

# One bar at N=20 under one SolverOptions(max_iterations=6): a name per
# quote, its contract terms, and its market price (a float) or the
# volatility it is priced at (a tuple). The shapes each name gives are
# checked in test_lockstep_bar_covers_every_exit.
LOCKSTEP_OPTS = SolverOptions(max_iterations=6)
LOCKSTEP_BAR = {
    "newton_put": (dict(strike=100.0, contract_type=P, exercise=AM), (0.3,)),
    "newton_call": (dict(strike=100.0, maturity=0.5, contract_type=C, exercise=AM), (0.25,)),
    "newton_european": (dict(strike=110.0, maturity=0.25, contract_type=C), (0.4,)),
    "newton_high_vol": (dict(strike=100.0, contract_type=C, exercise=AM), (3.0,)),
    "hybrid_converged": (
        dict(strike=60.0, maturity=0.01, contract_type=C, exercise=AM), 40.03
    ),
    "hybrid_at_cap": (
        dict(strike=90.0, maturity=2.0, rate=0.5, contract_type=C, exercise=AM),
        66.89085240959584,
    ),
    "bisection_degenerate_at_cap": (
        dict(strike=150.0, maturity=2.0, rate=0.2, contract_type=C, exercise=AM),
        2.3836668178052927,
    ),
    "below_tolerance": (dict(strike=60.0, maturity=0.1, contract_type=P, exercise=AM), 5e-7),
    "below_intrinsic": (dict(spot=80.0, strike=100.0, contract_type=P, exercise=AM), 15.0),
    "above_spot": (dict(strike=100.0, contract_type=C, exercise=AM), 101.0),
}


def lockstep_quotes():
    quotes = []
    for terms, price in LOCKSTEP_BAR.values():
        inputs = make_inputs(steps=20, **terms)
        if isinstance(price, tuple):
            price = price_option(inputs.replace(volatility=price[0]))
        quotes.append((price, inputs))
    return quotes


def scalar_outcome(market, inputs):
    """implied_vol's solution, or the ArbitrageViolation it raises."""
    try:
        return implied_vol(market, inputs, LOCKSTEP_OPTS)
    except ArbitrageViolation as error:
        return error


def outcome_key(outcome):
    if isinstance(outcome, IvSolution):
        return repr(outcome)
    return type(outcome), str(outcome)


def test_lockstep_bar_covers_every_exit(probes):
    outcomes = dict(zip(LOCKSTEP_BAR, (scalar_outcome(*q) for q in lockstep_quotes())))
    for name, outcome in outcomes.items():
        if name.startswith(("below", "above")):
            assert isinstance(outcome, ArbitrageViolation)
            continue
        assert outcome.method.value == name.split("_")[0]
        assert outcome.converged is not name.endswith("at_cap")
        if name.endswith("at_cap"):
            assert outcome.iterations == LOCKSTEP_OPTS.max_iterations
    assert "price tolerance" in str(outcomes["below_tolerance"])
    assert "static bounds" in str(outcomes["below_intrinsic"])
    assert any(price is None for _, price in probes)


def test_lockstep_matches_scalar_solver():
    quotes = lockstep_quotes()
    batch = implied_vols(quotes, LOCKSTEP_OPTS)
    assert len(batch) == len(quotes)
    for quote, outcome in zip(quotes, batch):
        expected = outcome_key(scalar_outcome(*quote))
        assert outcome_key(outcome) == expected
        assert outcome_key(implied_vols([quote], LOCKSTEP_OPTS)[0]) == expected


def test_lockstep_prices_each_round_in_one_call(monkeypatch, probes):
    quotes = lockstep_quotes()
    solutions = [scalar_outcome(*quote) for quote in quotes]
    solutions = [s for s in solutions if isinstance(s, IvSolution)]
    degenerate = sum(price is None for _, price in probes)
    calls = []
    errors = []

    def recording(rows):
        results = build_lattices(rows)
        calls.append(len(rows))
        errors.append(sum(type(result) is DegenerateProbability for result in results))
        return results

    monkeypatch.setattr(sys.modules["chainopt.implied_vol"], "build_lattices", recording)
    implied_vols(quotes, LOCKSTEP_OPTS)
    # One call per round, and a quote is in every round until it exits.
    assert len(calls) == max(s.iterations for s in solutions)
    assert sum(calls) == sum(s.iterations for s in solutions)
    # Each degenerate probe's slot holds its error, and only those do.
    assert sum(errors) == degenerate
    assert degenerate > 0


def test_lockstep_empty_bar():
    assert implied_vols([]) == []


# ---------------------------------------------------------------------------
# portfolio aggregation


def test_portfolio_iv_single_contract():
    assert portfolio_iv([1.0], [0.25]) == 0.25


def test_portfolio_iv_equal_weights():
    assert portfolio_iv([0.5, 0.5], [0.2, 0.4]) == pytest.approx(0.3, abs=1e-15)


def test_portfolio_iv_hand_dot_product():
    assert portfolio_iv([0.6, 0.4], [0.1, 0.5]) == pytest.approx(0.26, abs=1e-15)


def test_portfolio_iv_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        portfolio_iv([0.5, 0.5], [0.2, 0.3, 0.4])
