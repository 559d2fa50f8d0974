"""Greek tests against differentiated-closed-form oracles.

Golden constants were produced by a 50-digit independent evaluation of
the differentiated closed form at the standard point S=100, K=100,
T=1, r=0.05, q=0, sigma=0.2, before the lattice code was written.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chainopt.greeks as greeks_module
from chainopt.errors import (
    BumpExceedsMaturity,
    DegenerateProbability,
    InvalidBump,
    InvalidConfig,
    NegativeVolAfterBump,
)
from chainopt.greeks import (
    RHO_BUMP,
    VEGA_BUMP,
    GreekSet,
    Region,
    classify_region,
    delta_fd,
    delta_ms,
    gamma_fd,
    greek_set,
    greek_sets,
    rho_fd,
    theta_fd,
    vega_fd,
)
from chainopt.pricing import ContractType, Exercise

from test_pricing import make_inputs

GOLDEN_CALL_DELTA = 0.63683065117561907
GOLDEN_PUT_DELTA = -0.36316934882438093
GOLDEN_GAMMA = 0.018762017345846893
GOLDEN_CALL_THETA = -6.4140275464381961
GOLDEN_PUT_THETA = -1.6578804239346258
GOLDEN_VEGA = 37.524034691693788
GOLDEN_CALL_RHO = 53.23248154537634
GOLDEN_PUT_RHO = -41.890460904695061

# Per-operation oracle tolerances at N=1000.
DELTA_TOL = 1e-3
GAMMA_TOL = 5e-3
THETA_REL_TOL = 0.02
VEGA_TOL = 1e-2
RHO_TOL = 1e-2


def american(**kwargs):
    kwargs.setdefault("exercise", Exercise.AMERICAN)
    return make_inputs(**kwargs)


# ---------------------------------------------------------------------------
# region classification


def test_deep_itm_put_is_stopping():
    inputs = american(spot=1.0, strike=100.0, steps=2000, contract_type=ContractType.PUT)
    assert classify_region(inputs).region is Region.STOPPING


def test_atm_call_without_dividends_is_continuation():
    assert classify_region(american(steps=500)).region is Region.CONTINUATION


def test_otm_put_is_continuation():
    inputs = american(spot=150.0, strike=100.0, steps=500, contract_type=ContractType.PUT)
    assert classify_region(inputs).region is Region.CONTINUATION


def test_classify_region_rejects_european():
    with pytest.raises(InvalidConfig):
        classify_region(make_inputs())


# ---------------------------------------------------------------------------
# early-exercise-aware delta


def test_stopping_region_delta_is_exactly_minus_one():
    inputs = american(spot=1.0, strike=100.0, steps=2000, contract_type=ContractType.PUT)
    assert delta_ms(inputs) == -1.0


def test_atm_call_delta_matches_finite_difference():
    inputs = american(steps=1000)
    assert delta_ms(inputs) == pytest.approx(delta_fd(inputs), abs=0.02)


def test_deep_otm_put_delta_vanishes():
    inputs = american(
        spot=200.0, strike=100.0, maturity=0.1, steps=1000, contract_type=ContractType.PUT
    )
    assert delta_ms(inputs) == pytest.approx(0.0, abs=0.01)


def continuation_grid():
    points = []
    for moneyness, maturity, sigma, kind in itertools.product(
        [0.9, 1.0, 1.1], [0.25, 1.0], [0.2, 0.4], ContractType
    ):
        inputs = american(
            strike=100.0 / moneyness,
            maturity=maturity,
            volatility=sigma,
            steps=1000,
            contract_type=kind,
        )
        if classify_region(inputs).region is Region.CONTINUATION:
            points.append(inputs)
    return points


def test_delta_cross_check_on_continuation_grid():
    for inputs in continuation_grid():
        assert delta_ms(inputs) == pytest.approx(delta_fd(inputs), abs=0.02)


def test_delta_ms_rejects_european():
    with pytest.raises(InvalidConfig):
        delta_ms(make_inputs())


def test_call_delta_bounded_on_grid():
    for moneyness, sigma in itertools.product([0.7, 1.0, 1.3], [0.1, 0.5]):
        call = delta_ms(american(strike=100.0 / moneyness, volatility=sigma, steps=200))
        put = delta_ms(
            american(
                strike=100.0 / moneyness,
                volatility=sigma,
                steps=200,
                contract_type=ContractType.PUT,
            )
        )
        assert 0.0 <= call <= 1.0
        assert -1.0 <= put <= 0.0


# ---------------------------------------------------------------------------
# finite-difference delta


def test_fd_delta_matches_closed_form():
    assert delta_fd(make_inputs()) == pytest.approx(GOLDEN_CALL_DELTA, abs=DELTA_TOL)
    assert delta_fd(make_inputs(contract_type=ContractType.PUT)) == pytest.approx(
        GOLDEN_PUT_DELTA, abs=DELTA_TOL
    )


def test_fd_delta_parity():
    call = delta_fd(make_inputs(steps=500))
    put = delta_fd(make_inputs(steps=500, contract_type=ContractType.PUT))
    assert call - put == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("bump", [0.0, -1e-3])
def test_fd_delta_rejects_bad_bump(bump):
    with pytest.raises(InvalidBump):
        delta_fd(make_inputs(), bump=bump)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_matches_closed_form():
    assert gamma_fd(make_inputs()) == pytest.approx(GOLDEN_GAMMA, abs=GAMMA_TOL)


def test_gamma_vanishes_deep_in_stopping_region():
    inputs = american(spot=1.0, strike=100.0, steps=2000, contract_type=ContractType.PUT)
    assert gamma_fd(inputs) == pytest.approx(0.0, abs=1e-8)


def test_gamma_non_negative_on_grid():
    for spot, kind in itertools.product([70.0, 100.0, 130.0], ContractType):
        assert gamma_fd(american(spot=spot, steps=200, contract_type=kind)) >= -1e-6


def test_gamma_rejects_zero_bump():
    with pytest.raises(InvalidBump):
        gamma_fd(make_inputs(), bump=0.0)


# ---------------------------------------------------------------------------
# theta


def test_theta_matches_closed_form():
    theta = theta_fd(make_inputs())
    assert theta == pytest.approx(GOLDEN_CALL_THETA, rel=THETA_REL_TOL)
    put_theta = theta_fd(make_inputs(contract_type=ContractType.PUT))
    assert put_theta == pytest.approx(GOLDEN_PUT_THETA, rel=THETA_REL_TOL)


def test_theta_bump_must_fit_inside_maturity():
    with pytest.raises(BumpExceedsMaturity):
        theta_fd(make_inputs(maturity=1.0 / 365.0))


def test_theta_negative_at_the_money():
    for kind in ContractType:
        assert theta_fd(american(steps=500, contract_type=kind)) < 0.0


def test_theta_rejects_zero_bump():
    with pytest.raises(InvalidBump):
        theta_fd(make_inputs(), dt_bump=0.0)


# ---------------------------------------------------------------------------
# vega and rho


def test_vega_matches_closed_form():
    assert vega_fd(make_inputs()) == pytest.approx(GOLDEN_VEGA, abs=VEGA_TOL)


def test_vega_non_negative_on_grid():
    for moneyness, maturity, kind in itertools.product(
        [0.8, 1.0, 1.2], [0.1, 1.0], ContractType
    ):
        inputs = american(
            strike=100.0 / moneyness, maturity=maturity, steps=200, contract_type=kind
        )
        assert vega_fd(inputs) >= -1e-6


def test_vega_rejects_bump_crossing_zero_vol():
    with pytest.raises(NegativeVolAfterBump):
        vega_fd(make_inputs(volatility=1e-3))


def test_rho_matches_closed_form():
    assert rho_fd(make_inputs()) == pytest.approx(GOLDEN_CALL_RHO, abs=RHO_TOL)
    assert rho_fd(make_inputs(contract_type=ContractType.PUT)) == pytest.approx(
        GOLDEN_PUT_RHO, abs=RHO_TOL
    )


def test_rho_signs():
    assert rho_fd(make_inputs()) > 0.0
    assert rho_fd(make_inputs(contract_type=ContractType.PUT)) < 0.0


def test_rho_rejects_zero_bump():
    with pytest.raises(InvalidBump):
        rho_fd(make_inputs(), rate_bump=0.0)


# ---------------------------------------------------------------------------
# bump stability: halving the default bump stays within oracle tolerance


def test_delta_stable_under_bump_halving():
    full = delta_fd(make_inputs())
    half = delta_fd(make_inputs(), bump=0.5e-3)
    assert abs(full - half) < DELTA_TOL


def test_gamma_stable_under_bump_halving():
    # Second differences sit much closer to the lattice noise floor,
    # which scales like 1/N; the property needs a finer tree.
    full = gamma_fd(make_inputs(steps=5000))
    half = gamma_fd(make_inputs(steps=5000), bump=0.5e-2)
    assert abs(full - half) < GAMMA_TOL


def test_vega_stable_under_bump_halving():
    full = vega_fd(make_inputs())
    half = vega_fd(make_inputs(), vol_bump=0.5e-3)
    assert abs(full - half) < VEGA_TOL


def test_theta_stable_under_bump_halving():
    full = theta_fd(make_inputs())
    half = theta_fd(make_inputs(), dt_bump=0.5 / 365.0)
    assert abs(full - half) < abs(GOLDEN_CALL_THETA) * THETA_REL_TOL


def test_rho_stable_under_bump_halving():
    full = rho_fd(make_inputs())
    half = rho_fd(make_inputs(), rate_bump=0.5e-4)
    assert abs(full - half) < RHO_TOL


# ---------------------------------------------------------------------------
# assembled set


def test_greek_set_deep_itm_put():
    inputs = american(spot=1.0, strike=100.0, steps=1000, contract_type=ContractType.PUT)
    greeks = greek_set(inputs)
    assert greeks.delta == -1.0
    assert greeks.gamma == pytest.approx(0.0, abs=1e-8)


def test_greek_set_standard_point_european():
    greeks = greek_set(make_inputs())
    assert isinstance(greeks, GreekSet)
    assert greeks.delta == pytest.approx(GOLDEN_CALL_DELTA, abs=DELTA_TOL)
    assert greeks.gamma == pytest.approx(GOLDEN_GAMMA, abs=GAMMA_TOL)
    assert greeks.theta == pytest.approx(GOLDEN_CALL_THETA, rel=THETA_REL_TOL)
    assert greeks.vega == pytest.approx(GOLDEN_VEGA, abs=VEGA_TOL)
    assert greeks.rho == pytest.approx(GOLDEN_CALL_RHO, abs=RHO_TOL)


def test_greek_set_propagates_vol_bump_error():
    # rate=0 keeps the lattice probability valid at tiny volatility, so
    # the vega bump check is what actually fires.
    with pytest.raises(NegativeVolAfterBump):
        greek_set(american(rate=0.0, volatility=1e-3, steps=100))


def test_greek_set_raises_its_errors_in_the_serial_order():
    # The unbumped tree's degenerate probability comes before the vega
    # bump check, as when the lattice was solved before the reprices.
    both = american(rate=1.0, volatility=1e-3, steps=2)
    with pytest.raises(DegenerateProbability) as expected:
        delta_ms(both)
    with pytest.raises(DegenerateProbability) as raised:
        greek_set(both)
    assert str(raised.value) == str(expected.value)
    # Only the volatility-down reprice is degenerate: at dt = 1 the tree
    # degenerates once sigma <= r - q.
    bumped = american(rate=0.1, volatility=0.1005, maturity=2.0, steps=2)
    with pytest.raises(DegenerateProbability) as expected:
        vega_fd(bumped)
    with pytest.raises(DegenerateProbability) as raised:
        greek_set(bumped)
    assert str(raised.value) == str(expected.value)


def test_greek_set_region_matches_classify_region():
    cases = [
        american(spot=60.0, steps=200, contract_type=ContractType.PUT),
        american(steps=200, contract_type=ContractType.PUT),
        american(steps=200),
    ]
    regions = []
    for inputs in cases:
        region = greek_set(inputs).region
        assert region is classify_region(inputs).region
        regions.append(region)
    assert set(regions) == {Region.STOPPING, Region.CONTINUATION}


def test_greek_set_european_has_no_region():
    assert greek_set(make_inputs(steps=200)).region is None


def test_greek_set_matches_the_single_greeks():
    for inputs in (
        american(steps=200, contract_type=ContractType.PUT),
        make_inputs(steps=200),
    ):
        greeks = greek_set(inputs)
        if inputs.exercise is Exercise.AMERICAN:
            assert greeks.delta == delta_ms(inputs)
        else:
            assert greeks.delta == pytest.approx(delta_fd(inputs), abs=DELTA_TOL)
        assert greeks.vega == vega_fd(inputs)
        assert greeks.rho == rho_fd(inputs)


@pytest.mark.parametrize("exercise", list(Exercise))
def test_greek_set_solves_one_induction_of_five_rows(monkeypatch, exercise):
    calls = {"build_lattices": [], "build_lattice": [], "price_option": []}
    for name in calls:
        real = getattr(greeks_module, name)

        def counted(argument, real=real, name=name):
            calls[name].append(argument)
            return real(argument)

        monkeypatch.setattr(greeks_module, name, counted)
    inputs = make_inputs(steps=50, contract_type=ContractType.PUT, exercise=exercise)
    greek_set(inputs)
    assert calls == {
        "build_lattices": [
            [
                inputs,
                inputs.replace(volatility=inputs.volatility + VEGA_BUMP),
                inputs.replace(volatility=inputs.volatility - VEGA_BUMP),
                inputs.replace(rate=inputs.rate + RHO_BUMP),
                inputs.replace(rate=inputs.rate - RHO_BUMP),
            ]
        ],
        "build_lattice": [],
        "price_option": [],
    }


def test_greek_sets_give_each_row_what_greek_set_gives_it(monkeypatch):
    rows = [
        american(steps=2, contract_type=ContractType.PUT),
        american(rate=0.0, volatility=1e-3, steps=2),  # vega bump crosses zero
        american(rate=1.0, volatility=1e-3, steps=2),  # degenerate tree
        american(rate=0.1, volatility=0.1005, maturity=2.0, steps=2),  # degenerate bump
        make_inputs(steps=2, strike=90.0),
    ]
    expected = []
    for inputs in rows:
        try:
            expected.append(greek_set(inputs))
        except (NegativeVolAfterBump, DegenerateProbability) as error:
            expected.append((type(error), str(error)))
    assert [type(e) for e in expected] == [
        GreekSet, tuple, tuple, tuple, GreekSet
    ]
    batches = []
    real = greeks_module.build_lattices

    def counted(batch):
        batches.append(len(batch))
        return real(batch)

    monkeypatch.setattr(greeks_module, "build_lattices", counted)
    results = [
        result if isinstance(result, GreekSet) else (type(result), str(result))
        for result in greek_sets(rows)
    ]
    assert results == expected
    # Each row's own tree leads its entries; the two rows whose vega bump
    # crosses zero enter with their own tree only.
    assert batches == [5 + 1 + 1 + 5 + 5]


def test_greek_sets_need_two_lattice_steps_in_every_row():
    with pytest.raises(InvalidConfig, match="steps must be >= 2"):
        greek_sets([american(steps=2), american(rate=0.0, volatility=1e-3, steps=1)])


@pytest.mark.parametrize(
    "kind, exercise, strike, dividend_yield",
    list(itertools.product(ContractType, Exercise, (80.0, 100.0, 130.0), (0.0, 0.04))),
)
def test_greek_set_vega_and_rho_equal_the_bumped_reprices(kind, exercise, strike, dividend_yield):
    inputs = make_inputs(
        strike=strike,
        dividend_yield=dividend_yield,
        steps=120,
        contract_type=kind,
        exercise=exercise,
    )
    greeks = greek_set(inputs)
    assert greeks.vega == vega_fd(inputs)
    assert greeks.rho == rho_fd(inputs)


def test_greek_set_needs_two_lattice_steps():
    with pytest.raises(InvalidConfig, match="steps"):
        greek_set(american(steps=1))


def norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes_greeks(inputs):
    """Closed-form (delta, gamma, theta) of a European option, theta per year."""
    s, k, t = inputs.spot, inputs.strike, inputs.time_to_maturity
    r, q, sigma = inputs.rate, inputs.dividend_yield, inputs.volatility
    root_t = math.sqrt(t)
    d1 = (math.log(s / k) + (r - q + 0.5 * sigma * sigma) * t) / (sigma * root_t)
    d2 = d1 - sigma * root_t
    pdf = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    disc_s, disc_k = s * math.exp(-q * t), k * math.exp(-r * t)
    gamma = math.exp(-q * t) * pdf / (s * sigma * root_t)
    decay = -disc_s * pdf * sigma / (2.0 * root_t)
    if inputs.contract_type is ContractType.CALL:
        theta = decay - r * disc_k * norm_cdf(d2) + q * disc_s * norm_cdf(d1)
        return math.exp(-q * t) * norm_cdf(d1), gamma, theta
    theta = decay + r * disc_k * norm_cdf(-d2) - q * disc_s * norm_cdf(-d1)
    return -math.exp(-q * t) * norm_cdf(-d1), gamma, theta


# Without a dividend an American call is never exercised early, so it
# shares the European closed form.
@pytest.mark.parametrize(
    "kind, exercise",
    [
        (ContractType.CALL, Exercise.AMERICAN),
        (ContractType.CALL, Exercise.EUROPEAN),
        (ContractType.PUT, Exercise.EUROPEAN),
    ],
)
def test_greek_set_matches_black_scholes(kind, exercise):
    for strike, maturity, sigma in itertools.product(
        [90.0, 95.0, 100.0, 105.0, 110.0], [0.25, 0.5, 1.0], [0.2, 0.35, 0.5]
    ):
        inputs = make_inputs(
            strike=strike,
            maturity=maturity,
            volatility=sigma,
            steps=500,
            contract_type=kind,
            exercise=exercise,
        )
        greeks = greek_set(inputs)
        delta, gamma, theta = black_scholes_greeks(inputs)
        assert greeks.delta == pytest.approx(delta, abs=1e-3)
        assert greeks.gamma == pytest.approx(gamma, rel=0.01)
        assert greeks.theta == pytest.approx(theta, rel=0.01)


def test_greek_set_in_the_stopping_region():
    greeks = greek_set(american(spot=60.0, steps=500, contract_type=ContractType.PUT))
    assert greeks.region is Region.STOPPING
    assert greeks.delta == -1.0
    assert greeks.gamma == pytest.approx(0.0, abs=1e-8)
    assert greeks.theta == 0.0


@st.composite
def parity_cases(draw):
    spot = draw(st.floats(20.0, 500.0))
    return dict(
        spot=spot,
        strike=spot * draw(st.floats(0.5, 2.0)),
        maturity=draw(st.floats(0.05, 2.0)),
        rate=draw(st.floats(0.0, 0.1)),
        dividend_yield=draw(st.floats(0.0, 0.1)),
        volatility=draw(st.floats(0.1, 1.0)),
        steps=draw(st.integers(2, 400)),
    )


@settings(max_examples=200, deadline=None)
@given(parity_cases())
def test_lattice_greeks_keep_european_put_call_parity(case):
    # Call minus put is the forward S e^{-q tau} - K e^{-r tau} at every
    # node: linear in spot, so the gammas agree and the thetas differ by
    # the forward's change over the first two steps.
    try:
        call, put = (
            greek_set(make_inputs(contract_type=kind, **case)) for kind in ContractType
        )
    except DegenerateProbability:
        assume(False)
    spot, strike, maturity = case["spot"], case["strike"], case["maturity"]
    rate, dividend_yield = case["rate"], case["dividend_yield"]
    dt = maturity / case["steps"]

    def forward(tau):
        return spot * math.exp(-dividend_yield * tau) - strike * math.exp(-rate * tau)

    assert abs(call.gamma - put.gamma) <= 1e-9
    # Node values carry rounding of about eps * (S + K), which the 2 dt
    # divisor magnifies; the absolute floor covers a near-zero forward drift.
    assert call.theta - put.theta == pytest.approx(
        (forward(maturity - 2.0 * dt) - forward(maturity)) / (2.0 * dt),
        rel=1e-8,
        abs=1e-12 * (spot + strike) / dt,
    )
