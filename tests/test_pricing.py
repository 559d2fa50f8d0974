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
from hypothesis import assume, given, settings
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


# ---------------------------------------------------------------------------
# batched induction


@st.composite
def lattice_rows(draw):
    """One step count and 1-6 rows of mixed type and exercise style that
    share it, none with a degenerate probability."""
    steps = draw(st.sampled_from([1, 2, 3, 7, 20, 75]) | st.integers(1, 120))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        inputs = make_inputs(
            spot=draw(st.floats(50.0, 150.0)),
            strike=draw(st.sampled_from([40.0, 90.0, 100.0, 105.0, 250.0])),
            maturity=draw(st.floats(0.01, 2.0)),
            rate=draw(st.floats(-0.02, 0.1)),
            dividend_yield=draw(st.floats(0.0, 0.05)),
            volatility=draw(st.floats(0.05, 0.9)),
            steps=steps,
            contract_type=draw(st.sampled_from(ContractType)),
            exercise=draw(st.sampled_from(Exercise)),
        )
        try:
            tree_parameters(inputs)
        except DegenerateProbability:
            assume(False)
        rows.append(inputs)
    return rows


@settings(max_examples=150, deadline=None)
@given(lattice_rows())
def test_batched_rows_match_their_single_lattices_bit_for_bit(rows):
    for inputs, lattice in zip(rows, build_lattices(rows), strict=True):
        single = build_lattice(inputs)
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


def test_batch_raises_its_first_degenerate_rows_error():
    ok = make_inputs(steps=50)
    first = make_inputs(steps=1, rate=1.0, volatility=0.05)
    second = make_inputs(steps=1, rate=2.0, volatility=0.05)
    with pytest.raises(DegenerateProbability) as expected:
        tree_parameters(first)
    with pytest.raises(DegenerateProbability) as raised:
        build_lattices([ok.replace(steps=1), first, second])
    assert str(raised.value) == str(expected.value)


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


def test_a_later_blocks_errors_come_before_any_induction(monkeypatch):
    rows = block_rows()
    degenerate = make_inputs(rate=1.0, volatility=0.01)
    with pytest.raises(DegenerateProbability) as expected:
        tree_parameters(degenerate)
    sizes = counted_inductions(monkeypatch)
    with pytest.raises(DegenerateProbability) as raised:
        build_lattices(rows[:35] + [degenerate] + rows[35:])
    assert str(raised.value) == str(expected.value)
    with pytest.raises(InvalidConfig, match="got 1000 and 999"):
        build_lattices(rows[:35] + [make_inputs(steps=999)] + rows[35:])
    assert sizes == []
