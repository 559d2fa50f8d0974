"""Lattice pricing tests against closed-form and brute-force oracles.

Golden constants below were produced by an independent 50-digit
evaluation of the closed form (mpmath) and by hand evaluation of the
one-step recursion, before the lattice code was written.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainopt.pricing as pricing_module
from chainopt.errors import DegenerateProbability, InvalidConfig, NotEuropean
from chainopt.pricing import (
    BLOCK_NODES,
    ContractType,
    Exercise,
    PricingInputs,
    black_scholes_price,
    black_scholes_vega,
    build_lattice,
    build_lattices,
    payoff,
    price_option,
    tree_parameters,
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
    with pytest.raises(NotEuropean):
        black_scholes_vega(make_inputs(exercise=Exercise.AMERICAN))


@pytest.mark.parametrize(
    "moneyness,maturity,q,kind",
    list(
        itertools.product(
            [0.8, 0.95, 1.0, 1.1, 1.25], [0.05, 0.5, 2.0], [0.0, 0.03], list(ContractType)
        )
    ),
)
def test_black_scholes_vega_is_the_price_slope(moneyness, maturity, q, kind):
    inputs = make_inputs(
        strike=100.0 / moneyness, maturity=maturity, dividend_yield=q, volatility=0.3,
        contract_type=kind,
    )
    bump = 1e-5
    up = black_scholes_price(inputs.replace(volatility=0.3 + bump))
    down = black_scholes_price(inputs.replace(volatility=0.3 - bump))
    central = (up - down) / (2.0 * bump)
    assert black_scholes_vega(inputs) == pytest.approx(central, rel=1e-6, abs=1e-8)


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
    for steps in (1, 2, 3, 50, 500):
        lattice = build_lattice(
            make_inputs(
                steps=steps, contract_type=ContractType.PUT, exercise=Exercise.AMERICAN
            )
        )
        assert len(lattice.node_values) == min(steps, 2) + 1
        for step, values in enumerate(lattice.node_values):
            intrinsic = np.maximum(lattice.inputs.strike - lattice.spot_grid(step), 0.0)
            assert np.all(values >= intrinsic - 1e-12)


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


# Steps 0-2 of the lattice at S=100, K=105, T=0.5, r=0.05, q=0.04,
# sigma=0.25, flattened level by level, as recorded from the earlier
# kernel that kept every step. The dividend gives American calls early
# exercise too, so the two styles differ for both contract types.
GOLDEN_FIRST_STEPS = {
    ("call", "american", 1): (6.572113122270568, 0.0, 14.336457944794972),
    ("call", "american", 2): (5.232056478636532, 0.0, 11.065415480435933, 0.0, 0.0, 23.40254166877415),
    ("call", "american", 3): (5.406310072438039, 1.3163116028577413, 9.883839910037848, 0.0, 2.750000242394271, 17.701490267990255),
    ("call", "american", 75): (5.0968433007628855, 4.229989981114613, 5.979234814358452, 3.4705477186309897, 5.0028871186595705, 6.973243574300952),
    ("call", "american", 500): (5.080136513091501, 4.742638878089587, 5.419962768417538, 4.42139661892717, 5.066088294110898, 5.776288214737571),
    ("call", "european", 1): (6.572113122270568, 0.0, 14.336457944794972),
    ("call", "european", 2): (5.232056478636532, 0.0, 11.065415480435933, 0.0, 0.0, 23.40254166877415),
    ("call", "european", 3): (5.406310072438039, 1.3163116028577413, 9.883839910037848, 0.0, 2.750000242394271, 17.701490267990255),
    ("call", "european", 75): (5.094620339036851, 4.228489491407304, 5.976277790064725, 3.4695539816377807, 5.000871785886065, 6.969329711036695),
    ("call", "european", 500): (5.077863449030926, 4.740655248483621, 5.417398481829429, 4.41966880048121, 5.063847275534943, 5.773398660488757),
    ("put", "american", 1): (10.95978655456998, 21.20331144212443, 0.0),
    ("put", "american", 2): (9.83913197370248, 16.750309741540462, 2.573740775099634, 27.119921692859506, 5.0, 0.0),
    ("put", "american", 3): (9.880737896277628, 15.648535886064973, 3.869923891762234, 23.463885829420107, 7.543085343972817, 0.0),
    ("put", "american", 75): (9.594726141739306, 10.738504968144959, 8.441403013661454, 11.953714542445239, 9.51352068288702, 7.359968264069981),
    ("put", "american", 500): (9.577731026292863, 10.021758271049158, 9.13227070514211, 10.476479183006779, 9.56559116377646, 8.697530216051812),
    ("put", "european", 1): (10.95978655456998, 21.20331144212443, 0.0),
    ("put", "european", 2): (9.619729910935908, 16.324077883054095, 2.573740775099634, 27.119921692859506, 5.0, 0.0),
    ("put", "european", 3): (9.793983504737476, 15.479438043922707, 3.869923891762234, 23.134287757097315, 7.543085343972817, 0.0),
    ("put", "european", 75): (9.482293771335797, 10.605230155717534, 8.350028908130913, 11.796383874057032, 9.40454846865792, 7.286376883450794),
    ("put", "european", 500): (9.465536881333806, 9.901419214775293, 9.028254125350998, 10.347506634087662, 9.453920070910485, 8.601198979759717),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_FIRST_STEPS))
def test_lattice_keeps_first_three_steps_bit_for_bit(key):
    kind, exercise, steps = key
    lattice = build_lattice(
        make_inputs(
            strike=105.0,
            maturity=0.5,
            dividend_yield=0.04,
            volatility=0.25,
            steps=steps,
            contract_type=ContractType(kind),
            exercise=Exercise(exercise),
        )
    )
    assert [level.shape for level in lattice.node_values] == [
        (step + 1,) for step in range(min(steps, 2) + 1)
    ]
    flat = tuple(value for level in lattice.node_values for value in level.tolist())
    assert flat == GOLDEN_FIRST_STEPS[key]


# Steps 0-2 of every lattice in a grid at S=100, T=0.5, r=0.05, q=0.04,
# sigma=0.25, as float.hex() of each node level by level, root first,
# recorded from the flat-layout kernel (rows end to end, N+1 nodes each)
# before the node-major layout replaced it. Keyed by (type, exercise, N,
# strike).
PINNED_LATTICE_HEX = {
    ("call", "american", 1, 95.0): "0x1.65007bb44dc09p+3 0x0.0p+0 0x1.856221b9d5fb0p+4",
    ("call", "american", 1, 100.0): "0x1.1ba79df1031bdp+3 0x0.0p+0 0x1.356221b9d5fb0p+4",
    ("call", "american", 1, 105.0): "0x1.a49d805b70ee3p+2 0x0.0p+0 0x1.cac44373abf60p+3",
    ("call", "european", 1, 95.0): "0x1.65007bb44dc09p+3 0x0.0p+0 0x1.856221b9d5fb0p+4",
    ("call", "european", 1, 100.0): "0x1.1ba79df1031bdp+3 0x0.0p+0 0x1.356221b9d5fb0p+4",
    ("call", "european", 1, 105.0): "0x1.a49d805b70ee3p+2 0x0.0p+0 0x1.cac44373abf60p+3",
    ("put", "american", 1, 95.0): "0x1.729dd4fbdaea4p+2 0x1.668186ff5a770p+3 0x0.0p+0",
    ("put", "american", 1, 100.0): "0x1.0c02be646706ap+3 0x1.0340c37fad3b8p+4 0x0.0p+0",
    ("put", "american", 1, 105.0): "0x1.5eb6924ae0984p+3 0x1.5340c37fad3b8p+4 0x0.0p+0",
    ("put", "european", 1, 95.0): "0x1.729dd4fbdaea4p+2 0x1.668186ff5a770p+3 0x0.0p+0",
    ("put", "european", 1, 100.0): "0x1.0c02be646706ap+3 0x1.0340c37fad3b8p+4 0x0.0p+0",
    ("put", "european", 1, 105.0): "0x1.5eb6924ae0984p+3 0x1.5340c37fad3b8p+4 0x0.0p+0",
    ("call", "american", 2, 95.0): "0x1.3cda0c162f060p+3 0x1.2e9c68bbb98aep+1 0x1.25e11617d754bp+4 0x0.0p+0 0x1.4000000000000p+2 0x1.0b3867c4354c4p+5",
    ("call", "american", 2, 100.0): "0x1.9664b18cc97c5p+2 0x0.0p+0 0x1.adbefc63925e5p+3 0x0.0p+0 0x0.0p+0 0x1.c670cf886a988p+4",
    ("call", "american", 2, 105.0): "0x1.4eda036aa467bp+2 0x0.0p+0 0x1.6217e234a3fb9p+3 0x0.0p+0 0x0.0p+0 0x1.7670cf886a988p+4",
    ("call", "european", 2, 95.0): "0x1.3cda0c162f060p+3 0x1.2e9c68bbb98aep+1 0x1.25e11617d754bp+4 0x0.0p+0 0x1.4000000000000p+2 0x1.0b3867c4354c4p+5",
    ("call", "european", 2, 100.0): "0x1.9664b18cc97c5p+2 0x0.0p+0 0x1.adbefc63925e5p+3 0x0.0p+0 0x0.0p+0 0x1.c670cf886a988p+4",
    ("call", "european", 2, 105.0): "0x1.4eda036aa467bp+2 0x0.0p+0 0x1.6217e234a3fb9p+3 0x0.0p+0 0x0.0p+0 0x1.7670cf886a988p+4",
    ("put", "american", 2, 95.0): "0x1.2250f5bf9d726p+2 0x1.19ff932b582cbp+3 0x0.0p+0 0x1.11eb33024e99cp+4 0x0.0p+0 0x0.0p+0",
    ("put", "american", 2, 100.0): "0x1.8319cf1ef191cp+2 0x1.78028993392b0p+3 0x0.0p+0 0x1.61eb33024e99cp+4 0x0.0p+0 0x0.0p+0",
    ("put", "american", 2, 105.0): "0x1.3ada2b4c02901p+3 0x1.0c0144c99c958p+4 0x1.49705674b7a1ap+1 0x1.b1eb33024e99cp+4 0x1.4000000000000p+2 0x0.0p+0",
    ("put", "european", 2, 95.0): "0x1.2250f5bf9d726p+2 0x1.19ff932b582cbp+3 0x0.0p+0 0x1.11eb33024e99cp+4 0x0.0p+0 0x0.0p+0",
    ("put", "european", 2, 100.0): "0x1.771af273914f5p+2 0x1.6c5ba8c886152p+3 0x0.0p+0 0x1.61eb33024e99cp+4 0x0.0p+0 0x0.0p+0",
    ("put", "european", 2, 105.0): "0x1.33d4d3d27a53bp+3 0x1.052f6c4a51302p+4 0x1.49705674b7a1ap+1 0x1.b1eb33024e99cp+4 0x1.4000000000000p+2 0x0.0p+0",
    ("call", "american", 3, 95.0): "0x1.4122331ee3c42p+3 0x1.cdc107dae136cp+1 0x1.11960928aeb0bp+4 0x0.0p+0 0x1.e25772f5d058cp+2 0x1.ba5215ab8ef70p+4",
    ("call", "american", 3, 100.0): "0x1.edf0e26900449p+2 0x1.3b1ef6f2d83e9p+1 0x1.af863749b3237p+3 0x0.0p+0 0x1.492bb9fd0a969p+2 0x1.6a8f58bb7e7a8p+4",
    ("call", "american", 3, 105.0): "0x1.5a00fbf64a088p+2 0x1.50f9cc159e8d0p+0 0x1.3c486aa290637p+3 0x0.0p+0 0x1.6000020889a8ep+1 0x1.1b394ddbf7afdp+4",
    ("call", "european", 3, 95.0): "0x1.40f0646ddb405p+3 0x1.cdc107dae136cp+1 0x1.116201f86af1cp+4 0x0.0p+0 0x1.e25772f5d058cp+2 0x1.b9e5639b05455p+4",
    ("call", "european", 3, 100.0): "0x1.edf0e26900449p+2 0x1.3b1ef6f2d83e9p+1 0x1.af863749b3237p+3 0x0.0p+0 0x1.492bb9fd0a969p+2 0x1.6a8f58bb7e7a8p+4",
    ("call", "european", 3, 105.0): "0x1.5a00fbf64a088p+2 0x1.50f9cc159e8d0p+0 0x1.3c486aa290637p+3 0x0.0p+0 0x1.6000020889a8ep+1 0x1.1b394ddbf7afdp+4",
    ("put", "american", 3, 95.0): "0x1.2ea5277e8784cp+2 0x1.01ff136227e3cp+3 0x1.3ce045602a5d0p+0 0x1.aed827184dfd8p+3 0x1.34d207fa50c8cp+1 0x0.0p+0",
    ("put", "american", 3, 100.0): "0x1.d38194fcdf499p+2 0x1.7b5ff0db62d91p+3 0x1.46e4e69a52c5cp+1 0x1.276c138c26fecp+4 0x1.3e9576827dcd1p+2 0x0.0p+0",
    ("put", "american", 3, 105.0): "0x1.3c2f013d9b873p+3 0x1.f4c0ce549dce6p+3 0x1.ef59aa84905d0p+1 0x1.776c138c26fecp+4 0x1.e2c1e907d335dp+2 0x0.0p+0",
    ("put", "european", 3, 95.0): "0x1.2a7da66ef5eb3p+2 0x1.fbe53749072d9p+2 0x1.3ce045602a5d0p+0 0x1.a6f3ea588463bp+3 0x1.34d207fa50c8cp+1 0x0.0p+0",
    ("put", "european", 3, 100.0): "0x1.cea7234fc81bep+2 0x1.76a5150c337e8p+3 0x1.46e4e69a52c5cp+1 0x1.22d0000bc8fc8p+4 0x1.3e9576827dcd1p+2 0x0.0p+0",
    ("put", "european", 3, 105.0): "0x1.396850184d264p+3 0x1.ef578e73e3665p+3 0x1.ef59aa84905d0p+1 0x1.72260aeb4fc75p+4 0x1.e2c1e907d335dp+2 0x0.0p+0",
    ("call", "american", 20, 95.0): "0x1.39e2530bad449p+3 0x1.d30f22a777cdep+2 0x1.8d3938190cfb6p+3 0x1.4c8a9d96d492cp+2 0x1.2f367a15f5ee8p+3 0x1.eecd6f4113e29p+3",
    ("call", "american", 20, 100.0): "0x1.c35e27f130b30p+2 0x1.3e0f14e598e75p+2 0x1.26b9f4ef25e11p+3 0x1.a807629da6bf2p+1 0x1.abcc7ab2d6911p+2 0x1.7a80abe30ba52p+3",
    ("call", "american", 20, 105.0): "0x1.49feafb8d0593p+2 0x1.bebd44e5fb66fp+1 0x1.b85c8b7043635p+2 0x1.1c938a2425479p+1 0x1.3339f3cac5229p+2 0x1.211ebb630d497p+3",
    ("call", "european", 20, 95.0): "0x1.399891144bbf0p+3 0x1.d2c979a5343e7p+2 0x1.8cc7495009f09p+3 0x1.4c6d3a29cbc40p+2 0x1.2efedfc108482p+3 0x1.ee1f4b44ec09bp+3",
    ("call", "european", 20, 100.0): "0x1.c31506fd9ba86p+2 0x1.3defe89be08aep+2 0x1.267fc017e262ep+3 0x1.a7f045f201f4cp+1 0x1.ab99136a2b39ep+2 0x1.7a24ed60b9490p+3",
    ("call", "european", 20, 105.0): "0x1.49dd346993944p+2 0x1.bea34708eb4c6p+1 0x1.b825ef2671125p+2 0x1.1c8af3506a6dfp+1 0x1.3323fc3960704p+2 0x1.20f29754c69dep+3",
    ("put", "american", 20, 95.0): "0x1.1e8da41d1fbdfp+2 0x1.73b8329e315dfp+2 0x1.8f964b7c0390dp+1 0x1.da534d5a71b9ep+2 0x1.0b42d102ee115p+2 0x1.05fd4eeb11bf3p+1",
    ("put", "american", 20, 100.0): "0x1.a94bc2f76d02cp+2 0x1.0d72e9030d016p+3 0x1.35ad84c47852ep+2 0x1.4f9f038561cdbp+3 0x1.945075a37c849p+2 0x1.aa7f366ec5e5fp+1",
    ("put", "american", 20, 105.0): "0x1.34fb9d3e86939p+3 0x1.7b9f1efb50160p+3 0x1.da6816bb09bf1p+2 0x1.cae78301b88a0p+3 0x1.2b243cb02216cp+3 0x1.5c5bbe285d0ebp+2",
    ("put", "european", 20, 95.0): "0x1.1bcdffbbd6e17p+2 0x1.6feb5cdc332ecp+2 0x1.8c3c7ea800beap+1 0x1.d52060eb8e0a8p+2 0x1.08e35bbb76c69p+2 0x1.04102d8374ec4p+1",
    ("put", "european", 20, 100.0): "0x1.a3cb47e46378cp+2 0x1.09c78f2670d78p+3 0x1.320c7f5db377dp+2 0x1.4ac655ad7ca78p+3 0x1.8f601143c77e2p+2 0x1.a5e9793316062p+1",
    ("put", "european", 20, 105.0): "0x1.31566c51f1e8cp+3 0x1.76b715d7bc7f1p+3 0x1.d5b040ce61f83p+2 0x1.c45db1d531ccep+3 0x1.27e62dd999616p+3 0x1.59717221dbbacp+2",
    ("call", "american", 500, 95.0): "0x1.37d591666b2b8p+3 0x1.278b910884774p+3 0x1.483e0d40ed1bep+3 0x1.17ca9ad4479fep+3 0x1.3769da93bc202p+3 0x1.5931e5f152eeep+3",
    ("call", "american", 500, 100.0): "0x1.c8a24e9827748p+2 0x1.ad97fd76d761ap+2 0x1.e3dda8be011e5p+2 0x1.93a4a30297eafp+2 0x1.c7ba2e4b34090p+2 0x1.001a319233790p+3",
    ("call", "american", 500, 105.0): "0x1.4520f4e5bc61ep+2 0x1.2f87653788819p+2 0x1.5ae0ab84f9055p+2 0x1.1af829863bfa9p+2 0x1.443aca6576b40p+2 0x1.71aeb4c3a45bap+2",
    ("call", "european", 500, 95.0): "0x1.37897322b3d1dp+3 0x1.2747ce2d0b41fp+3 0x1.47e986188a299p+3 0x1.178e61f045758p+3 0x1.371e819c4c879p+3 0x1.58d421c16dda4p+3",
    ("call", "european", 500, 100.0): "0x1.c8562774d9eedp+2 0x1.ad54de3c6a7c2p+2 0x1.e3886b4720d3ap+2 0x1.936994373080bp+2 0x1.c76ef1c7e7a6cp+2 0x1.ffd514bbe0972p+2",
    ("call", "european", 500, 105.0): "0x1.44fbb6f9c90fdp+2 0x1.2f66e54576441p+2 0x1.5ab6a81f36e07p+2 0x1.1adbda874df96p+2 0x1.441612e2171f4p+2 0x1.717f5d1864716p+2",
    ("put", "american", 500, 95.0): "0x1.1a0e77716498cp+2 0x1.2b316df54799ep+2 0x1.08db18c2a264cp+2 0x1.3d060d24f9e98p+2 0x1.194be20f639abp+2 0x1.f0b4d842d4226p+1",
    ("put", "american", 500, 100.0): "0x1.ad57cb97b5045p+2 0x1.c4230a8405940p+2 0x1.96781ddcaad07p+2 0x1.dba763235fc80p+2 0x1.ac89d9731c5cap+2 0x1.80525d25d4379p+2",
    ("put", "american", 500, 105.0): "0x1.327cc5c6f9feep+3 0x1.40b23e66d25b4p+3 0x1.243b8fc619bc3p+3 0x1.4f3f514587a53p+3 0x1.321952a3ea728p+3 0x1.16522ae33d425p+3",
    ("put", "european", 500, 95.0): "0x1.17afc3d8a80f0p+2 0x1.289ecd38cf2dap+2 0x1.06b08a6246daep+2 0x1.3a3bb435e713ep+2 0x1.16f13580eca56p+2 0x1.ecc0603236e36p+1",
    ("put", "european", 500, 100.0): "0x1.a90c685ba2bfbp+2 0x1.bf817124f9f3ep+2 0x1.92834b822a294p+2 0x1.d6a9e559c92e7p+2 0x1.a84484dd77c1cp+2 0x1.7cae621f5cd8dp+2",
    ("put", "european", 500, 105.0): "0x1.2ee5ad9a0d231p+3 0x1.3cd86d1bee44bp+3 0x1.20e775320b820p+3 0x1.4b1ec63b9195ep+3 0x1.2e86836271df8p+3 0x1.133d05a48e9c1p+3",
}
PINNED_STEPS = sorted({steps for _, _, steps, _ in PINNED_LATTICE_HEX})


def pinned_inputs(kind, exercise, steps, strike) -> PricingInputs:
    return make_inputs(
        strike=strike,
        maturity=0.5,
        dividend_yield=0.04,
        volatility=0.25,
        steps=steps,
        contract_type=ContractType(kind),
        exercise=Exercise(exercise),
    )


def lattice_hex(lattice) -> str:
    return " ".join(value.hex() for level in lattice.node_values for value in level.tolist())


def pinned_batch(*keys):
    """build_lattices of the pinned keys, checked against their bits."""
    lattices = build_lattices([pinned_inputs(*key) for key in keys])
    assert [lattice_hex(lattice) for lattice in lattices] == [
        PINNED_LATTICE_HEX[key] for key in keys
    ]
    return lattices


@pytest.mark.parametrize("key", sorted(PINNED_LATTICE_HEX))
def test_lattice_bits_are_pinned(key):
    lattice = build_lattice(pinned_inputs(*key))
    assert lattice_hex(lattice) == PINNED_LATTICE_HEX[key]


@pytest.mark.parametrize("steps", PINNED_STEPS)
def test_lattice_bits_are_pinned_in_one_mixed_batch(steps):
    pinned_batch(*[key for key in sorted(PINNED_LATTICE_HEX) if key[2] == steps])


# ---------------------------------------------------------------------------
# induction plans


def other_rows(count):
    """count rows at N=500 whose trees, payoffs and floors all differ from
    the pinned ones."""
    return build_lattices(
        [
            make_inputs(
                strike=90.0 + 7.0 * i,
                rate=0.08,
                dividend_yield=0.01,
                volatility=0.4 + 0.05 * i,
                steps=500,
                contract_type=list(ContractType)[i % 2],
                exercise=Exercise.AMERICAN,
            )
            for i in range(count)
        ]
    )


def test_a_reused_plan_leaks_nothing_between_calls():
    american_put = ("put", "american", 500, 100.0)
    mixed = [
        ("call", "american", 500, 95.0),
        ("put", "european", 500, 105.0),
        ("put", "american", 500, 95.0),
        ("call", "european", 500, 100.0),
    ]
    european = [
        ("put", "european", 500, 95.0),
        ("call", "european", 500, 105.0),
        ("put", "european", 500, 100.0),
        ("call", "european", 500, 95.0),
    ]
    other_rows(1)
    plan = pricing_module._plans.plan
    [first] = pinned_batch(american_put)
    kept = [level.copy() for level in first.node_values]
    # European rows skip the floors, and an American row must not read
    # the floors of the last American row.
    pinned_batch(("call", "european", 500, 95.0))
    pinned_batch(("call", "american", 500, 105.0))
    assert pricing_module._plans.plan is plan
    other_rows(4)
    plan = pricing_module._plans.plan
    pinned_batch(*mixed)
    pinned_batch(*european)
    pinned_batch(*reversed(mixed))
    assert pricing_module._plans.plan is plan
    pinned_batch(american_put)
    assert [level.tobytes() for level in first.node_values] == [
        level.tobytes() for level in kept
    ]


def test_threads_each_reproduce_their_pinned_bits():
    # Both grids use the same (N, m) shapes, so threads sharing a plan
    # would write into each other's buffers.
    grids = [
        [key for key in sorted(PINNED_LATTICE_HEX) if key[:3] == (kind, "american", 20)]
        for kind in ("call", "put")
    ]
    failures: list[tuple] = []

    def price_many(keys):
        for _ in range(200):
            for key in keys:
                if lattice_hex(build_lattice(pinned_inputs(*key))) != PINNED_LATTICE_HEX[key]:
                    failures.append(key)
            batch = build_lattices([pinned_inputs(*key) for key in keys])
            for key, lattice in zip(keys, batch, strict=True):
                if lattice_hex(lattice) != PINNED_LATTICE_HEX[key]:
                    failures.append(key)

    threads = [threading.Thread(target=price_many, args=(keys,)) for keys in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# ---------------------------------------------------------------------------
# batched induction


@st.composite
def lattice_rows(draw):
    """One step count and 1-6 rows of mixed type and exercise style that
    share it, some of them with a degenerate probability."""
    steps = draw(st.sampled_from([1, 2, 3, 7, 20, 75]) | st.integers(1, 120))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        inputs = make_inputs(
            spot=draw(st.floats(50.0, 150.0)),
            strike=draw(st.sampled_from([40.0, 90.0, 100.0, 105.0, 250.0])),
            maturity=draw(st.floats(0.01, 2.0)),
            rate=draw(st.floats(-0.02, 0.1)),
            dividend_yield=draw(st.floats(0.0, 0.05)),
            volatility=draw(st.floats(0.05, 0.9) | st.floats(0.001, 0.05)),
            steps=steps,
            contract_type=draw(st.sampled_from(ContractType)),
            exercise=draw(st.sampled_from(Exercise)),
        )
        rows.append(inputs)
    return rows


@settings(max_examples=150, deadline=None)
@given(lattice_rows())
def test_batched_rows_match_their_single_lattices_bit_for_bit(rows):
    for inputs, lattice in zip(rows, build_lattices(rows), strict=True):
        try:
            single = build_lattice(inputs)
        except DegenerateProbability as error:
            assert type(lattice) is DegenerateProbability
            assert str(lattice) == str(error)
            continue
        assert lattice.inputs is inputs
        assert (lattice.steps, lattice.dt, lattice.up, lattice.down, lattice.q_rn) == (
            single.steps, single.dt, single.up, single.down, single.q_rn
        )
        assert lattice.discount == single.discount
        assert [level.tobytes() for level in lattice.node_values] == [
            level.tobytes() for level in single.node_values
        ]
        assert [level.shape for level in lattice.node_values] == [
            level.shape for level in single.node_values
        ]


def test_batch_of_no_rows_is_empty():
    assert build_lattices([]) == []


def test_batch_rejects_mixed_step_counts():
    with pytest.raises(InvalidConfig, match="step count"):
        build_lattices([make_inputs(steps=20), make_inputs(steps=21)])


def degenerate_message(inputs) -> str:
    """The message tree_parameters raises for a degenerate row."""
    with pytest.raises(DegenerateProbability) as raised:
        tree_parameters(inputs)
    return str(raised.value)


def test_batch_returns_each_degenerate_rows_error_in_its_slot():
    ok = make_inputs(steps=1)
    first = make_inputs(steps=1, rate=1.0, volatility=0.05)
    second = make_inputs(steps=1, rate=2.0, volatility=0.05)
    messages = [degenerate_message(first), degenerate_message(second)]
    assert messages[0] != messages[1]
    results = build_lattices([first, ok, second])
    assert [type(result) for result in results[::2]] == [DegenerateProbability] * 2
    assert [str(result) for result in results[::2]] == messages
    assert [level.tobytes() for level in results[1].node_values] == [
        level.tobytes() for level in build_lattice(ok).node_values
    ]
    for inputs, message in zip([first, second], messages):
        with pytest.raises(DegenerateProbability, match=re.escape(message)):
            build_lattice(inputs)


def block_rows(count=40, steps=1000):
    """count rows at one step count, of mixed type, exercise and moneyness."""
    kinds = list(itertools.product(ContractType, Exercise))
    return [
        make_inputs(
            strike=80.0 + i,
            volatility=0.1 + 0.01 * i,
            steps=steps,
            contract_type=kinds[i % 4][0],
            exercise=kinds[i % 4][1],
        )
        for i in range(count)
    ]


def counted_inductions(monkeypatch) -> list[int]:
    """Record the row count of every block induction from here on."""
    sizes: list[int] = []
    real = pricing_module._induct

    def counted(rows, params, n):
        sizes.append(len(rows))
        return real(rows, params, n)

    monkeypatch.setattr(pricing_module, "_induct", counted)
    return sizes


def test_rows_past_one_block_match_their_single_lattices(monkeypatch):
    rows = block_rows()
    sizes = counted_inductions(monkeypatch)
    lattices = build_lattices(rows)
    per_block = BLOCK_NODES // 1001
    assert sizes == [per_block, per_block, 40 - 2 * per_block]
    for inputs, lattice in zip(rows, lattices, strict=True):
        single = build_lattice(inputs)
        assert lattice.inputs is inputs
        assert [level.tobytes() for level in lattice.node_values] == [
            level.tobytes() for level in single.node_values
        ]


def test_a_row_wider_than_a_block_is_solved_alone(monkeypatch):
    monkeypatch.setattr(pricing_module, "BLOCK_NODES", 10)
    rows = block_rows(count=3, steps=20)
    sizes = counted_inductions(monkeypatch)
    lattices = build_lattices(rows)
    assert sizes == [1, 1, 1]
    for inputs, lattice in zip(rows, lattices, strict=True):
        assert lattice.root_value == price_option(inputs)


def test_degenerate_rows_never_reach_an_induction(monkeypatch):
    rows = block_rows()
    degenerate = [make_inputs(rate=1.0, volatility=0.01), make_inputs(rate=2.0, volatility=0.01)]
    batch = rows[:3] + degenerate[:1] + rows[3:35] + degenerate[1:] + rows[35:]
    sizes = counted_inductions(monkeypatch)
    results = build_lattices(batch)
    # Blocks are formed over the 40 solvable rows alone.
    per_block = BLOCK_NODES // 1001
    assert sizes == [per_block, per_block, 40 - 2 * per_block]
    errors = [i for i, result in enumerate(results) if type(result) is DegenerateProbability]
    assert errors == [3, 36]
    assert [str(results[i]) for i in errors] == [
        degenerate_message(inputs) for inputs in degenerate
    ]
    solved = results[:3] + results[4:36] + results[37:]
    for inputs, lattice in zip(rows, solved, strict=True):
        single = build_lattice(inputs)
        assert lattice.inputs is inputs
        assert [level.tobytes() for level in lattice.node_values] == [
            level.tobytes() for level in single.node_values
        ]
    sizes.clear()
    with pytest.raises(InvalidConfig, match="got 1000 and 999"):
        build_lattices(batch[:35] + [make_inputs(steps=999)] + batch[35:])
    assert sizes == []
