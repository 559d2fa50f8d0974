"""Lattice pricing tests against closed-form and brute-force oracles.

Golden constants below were produced by an independent 50-digit
evaluation of the closed form (mpmath) and by hand evaluation of the
one-step recursion, before the lattice code was written.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from chainopt.errors import DegenerateProbability, InvalidConfig, NotEuropean
from chainopt.pricing import (
    ContractType,
    Exercise,
    PricingInputs,
    black_scholes_price,
    build_lattice,
    payoff,
    price_option,
)

# Closed form at S=100, K=100, T=1, r=0.05, q=0, sigma=0.2.
GOLDEN_BS_CALL = 10.450583572185567
GOLDEN_BS_PUT = 5.573526022256968

# Hand evaluation of the one-step tree at S=K=100, T=1, r=q=0, sigma=0.2:
# root = (1 - q_rn) * (100 - 100*exp(-0.2)).
GOLDEN_ONE_STEP_PUT = 9.9667994624955817
GOLDEN_ONE_STEP_QRN = 0.45016600268752209


def make_inputs(
    spot=100.0,
    strike=100.0,
    maturity=1.0,
    rate=0.05,
    dividend_yield=0.0,
    volatility=0.2,
    steps=1000,
    contract_type=ContractType.CALL,
    exercise=Exercise.EUROPEAN,
) -> PricingInputs:
    return PricingInputs(
        spot=spot,
        strike=strike,
        time_to_maturity=maturity,
        rate=rate,
        dividend_yield=dividend_yield,
        volatility=volatility,
        steps=steps,
        contract_type=contract_type,
        exercise=exercise,
    )


# ---------------------------------------------------------------------------
# payoff


@pytest.mark.parametrize(
    "spot,strike,kind,expected",
    [
        (110.0, 100.0, ContractType.CALL, 10.0),
        (110.0, 100.0, ContractType.PUT, 0.0),
        (100.0, 100.0, ContractType.CALL, 0.0),
        (100.0, 100.0, ContractType.PUT, 0.0),
        (90.0, 100.0, ContractType.PUT, 10.0),
    ],
)
def test_payoff_intrinsic(spot, strike, kind, expected):
    assert payoff(spot, strike, kind) == expected


# ---------------------------------------------------------------------------
# lattice parameters


def test_crr_identity():
    lattice = build_lattice(make_inputs(steps=4, exercise=Exercise.AMERICAN))
    assert lattice.up == pytest.approx(math.exp(0.1), abs=1e-15)
    assert lattice.down == pytest.approx(math.exp(-0.1), abs=1e-15)
    assert lattice.up * lattice.down == pytest.approx(1.0, abs=1e-15)


def test_one_step_put_golden():
    inputs = make_inputs(
        rate=0.0,
        steps=1,
        contract_type=ContractType.PUT,
        exercise=Exercise.AMERICAN,
    )
    lattice = build_lattice(inputs)
    assert lattice.q_rn == pytest.approx(GOLDEN_ONE_STEP_QRN, abs=1e-15)
    assert lattice.root_value == pytest.approx(GOLDEN_ONE_STEP_PUT, abs=1e-12)


def test_degenerate_probability_rejected():
    # Drift term dominates: exp(r*dt) > u pushes q_rn above 1.
    inputs = make_inputs(rate=1.0, volatility=0.05, steps=1)
    with pytest.raises(DegenerateProbability):
        build_lattice(inputs)
    with pytest.raises(DegenerateProbability):
        price_option(inputs)


@pytest.mark.parametrize("field,value", [
    ("spot", 0.0),
    ("spot", -1.0),
    ("strike", 0.0),
    ("maturity", 0.0),
    ("volatility", 0.0),
    ("steps", 0),
    ("spot", float("nan")),
    ("strike", float("nan")),
    ("strike", float("inf")),
    ("maturity", float("inf")),
    ("volatility", float("nan")),
])
def test_invalid_inputs_rejected(field, value):
    with pytest.raises(InvalidConfig):
        make_inputs(**{field: value})


# ---------------------------------------------------------------------------
# closed form


def test_black_scholes_golden_constants():
    call = black_scholes_price(make_inputs())
    put = black_scholes_price(make_inputs(contract_type=ContractType.PUT))
    assert call == pytest.approx(GOLDEN_BS_CALL, abs=1e-13)
    assert put == pytest.approx(GOLDEN_BS_PUT, abs=1e-13)


def test_black_scholes_zero_vol_limit():
    value = black_scholes_price(make_inputs(rate=0.0, volatility=1e-9))
    assert value == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "moneyness,maturity,sigma,rate,q",
    list(itertools.product([0.8, 1.0, 1.2], [0.1, 1.0], [0.1, 0.4], [0.0, 0.05], [0.0, 0.02])),
)
def test_put_call_parity_closed_form(moneyness, maturity, sigma, rate, q):
    strike = 100.0 / moneyness
    call = black_scholes_price(
        make_inputs(strike=strike, maturity=maturity, volatility=sigma, rate=rate, dividend_yield=q)
    )
    put = black_scholes_price(
        make_inputs(
            strike=strike,
            maturity=maturity,
            volatility=sigma,
            rate=rate,
            dividend_yield=q,
            contract_type=ContractType.PUT,
        )
    )
    forward = 100.0 * math.exp(-q * maturity) - strike * math.exp(-rate * maturity)
    assert call - put == pytest.approx(forward, abs=1e-10)


def test_black_scholes_rejects_american():
    with pytest.raises(NotEuropean):
        black_scholes_price(make_inputs(exercise=Exercise.AMERICAN))


# ---------------------------------------------------------------------------
# convergence to the closed form


def test_european_converges_to_closed_form():
    binomial = price_option(make_inputs(steps=1000))
    assert abs(binomial - GOLDEN_BS_CALL) < 0.01


def test_error_shrinks_when_steps_double():
    err_500 = abs(price_option(make_inputs(steps=500)) - GOLDEN_BS_CALL)
    err_1000 = abs(price_option(make_inputs(steps=1000)) - GOLDEN_BS_CALL)
    assert err_1000 < err_500


def test_binomial_parity_at_n1000():
    call = price_option(make_inputs(steps=1000))
    put = price_option(make_inputs(steps=1000, contract_type=ContractType.PUT))
    forward = 100.0 - 100.0 * math.exp(-0.05)
    assert call - put == pytest.approx(forward, abs=1e-9)


# ---------------------------------------------------------------------------
# exhaustive-path oracle

def brute_force_european(inputs: PricingInputs) -> float:
    """Probability-weighted payoff over all 2^N paths; N small."""
    n = inputs.steps
    dt = inputs.time_to_maturity / n
    u = math.exp(inputs.volatility * math.sqrt(dt))
    d = 1.0 / u
    q = (math.exp((inputs.rate - inputs.dividend_yield) * dt) - d) / (u - d)
    disc = math.exp(-inputs.rate * inputs.time_to_maturity)
    total = 0.0
    for path in itertools.product((0, 1), repeat=n):
        ups = sum(path)
        terminal = inputs.spot * u ** (2.0 * ups - n)
        prob = q**ups * (1.0 - q) ** (n - ups)
        total += prob * payoff(terminal, inputs.strike, inputs.contract_type)
    return disc * total


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("kind", [ContractType.CALL, ContractType.PUT])
def test_exhaustive_path_oracle(steps, kind):
    inputs = make_inputs(strike=105.0, maturity=0.5, steps=steps, contract_type=kind)
    assert price_option(inputs) == pytest.approx(brute_force_european(inputs), abs=1e-10)


# ---------------------------------------------------------------------------
# American properties


def test_american_put_dominates_european():
    for moneyness, maturity, sigma in itertools.product(
        [0.8, 1.0, 1.2], [0.1, 0.5, 1.0], [0.1, 0.2, 0.4]
    ):
        strike = 100.0 / moneyness
        american = price_option(
            make_inputs(
                strike=strike,
                maturity=maturity,
                volatility=sigma,
                steps=200,
                contract_type=ContractType.PUT,
                exercise=Exercise.AMERICAN,
            )
        )
        european = price_option(
            make_inputs(
                strike=strike,
                maturity=maturity,
                volatility=sigma,
                steps=200,
                contract_type=ContractType.PUT,
            )
        )
        assert american >= european - 1e-12


def test_american_call_equals_european_without_dividends():
    for steps in (100, 500, 1000):
        american = price_option(
            make_inputs(steps=steps, exercise=Exercise.AMERICAN)
        )
        european = price_option(make_inputs(steps=steps))
        assert abs(american - european) <= 1e-10


def test_deep_itm_american_put_pins_to_intrinsic():
    value = price_option(
        make_inputs(
            spot=1.0,
            strike=100.0,
            steps=2000,
            contract_type=ContractType.PUT,
            exercise=Exercise.AMERICAN,
        )
    )
    assert value == pytest.approx(99.0, abs=1e-12)


def test_american_price_at_least_intrinsic():
    for spot in (60.0, 80.0, 100.0, 120.0):
        inputs = make_inputs(
            spot=spot,
            steps=200,
            contract_type=ContractType.PUT,
            exercise=Exercise.AMERICAN,
        )
        assert price_option(inputs) >= payoff(spot, 100.0, ContractType.PUT) - 1e-12


def test_lattice_nodes_dominate_intrinsic():
    lattice = build_lattice(
        make_inputs(steps=50, contract_type=ContractType.PUT, exercise=Exercise.AMERICAN)
    )
    for step in range(lattice.steps + 1):
        spots = lattice.spot_grid(step)
        intrinsic = np.maximum(lattice.inputs.strike - spots, 0.0)
        assert np.all(lattice.node_values[step] >= intrinsic - 1e-12)


# ---------------------------------------------------------------------------
# monotonicity


def test_price_non_decreasing_in_volatility():
    vols = [0.05, 0.1, 0.2, 0.4, 0.8]
    prices = [price_option(make_inputs(volatility=v, steps=200)) for v in vols]
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))


def test_american_price_non_decreasing_in_maturity():
    maturities = [0.1, 0.25, 0.5, 1.0, 2.0]
    prices = [
        price_option(
            make_inputs(
                maturity=t,
                steps=200,
                contract_type=ContractType.PUT,
                exercise=Exercise.AMERICAN,
            )
        )
        for t in maturities
    ]
    assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))


# ---------------------------------------------------------------------------
# lattice bookkeeping


def test_fast_path_matches_retained_lattice():
    # Strikes 40 and 250 put each contract type deep in and deep out of
    # the money, so the American put sees both exercise regions.
    for kind, exercise, strike, steps in itertools.product(
        ContractType, Exercise, (40.0, 100.0, 250.0), (1, 2, 75)
    ):
        inputs = make_inputs(
            strike=strike, steps=steps, contract_type=kind, exercise=exercise
        )
        assert price_option(inputs) == build_lattice(inputs).root_value


def test_lattice_retains_every_step():
    lattice = build_lattice(make_inputs(steps=10))
    assert len(lattice.node_values) == 11
    for step in range(11):
        assert lattice.node_values[step].shape == (step + 1,)
