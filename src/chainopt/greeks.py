"""American-option Greeks on the binomial lattice.

greek_set reads delta, gamma and theta off the first two steps of one
lattice (Pelsser and Vorst, 1994). Delta comes from a discrete
early-exercise decomposition rather than a spot bump: in the stopping
region it is the payoff derivative, and otherwise it is a discounted
weighted expectation over the first lattice step,

    delta = e^{-r dt} / (s sigma dt) * E[ V(s e^{sigma eps}, dt) * (eps - mu dt) ]

with eps = +sqrt(dt) with probability q_rn and -sqrt(dt) otherwise,
and mu = (r - q - sigma^2/2)/sigma. Gamma is the second divided
difference over the three step-2 nodes, and theta the change from the
root to the middle one, which sits at the root's spot since u*d = 1.
Vega and rho reprice at bumped volatility and rate; greek_sets solves
every row's lattice and those four reprices in one build_lattices call,
and greek_set is its one-row case. The bumped delta_fd, gamma_fd and
theta_fd are kept as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Sequence

from .errors import (
    BumpExceedsMaturity,
    DegenerateProbability,
    InvalidBump,
    InvalidConfig,
    NegativeVolAfterBump,
)
from .pricing import (
    ContractType,
    Exercise,
    Lattice,
    PricingInputs,
    build_lattice,
    build_lattices,
    payoff,
    price_option,
)

# Default bump sizes, chosen to balance truncation error against
# lattice discreteness. Relative for spot bumps, absolute otherwise.
DELTA_BUMP = 1e-3
GAMMA_BUMP = 1e-2
THETA_BUMP = 1.0 / 365.0
VEGA_BUMP = 1e-3
RHO_BUMP = 1e-4


class Region(str, Enum):
    STOPPING = "stopping"
    CONTINUATION = "continuation"


@dataclass(frozen=True)
class RegionClassification:
    region: Region


@dataclass(frozen=True)
class GreekSet:
    delta: float
    gamma: float
    theta: float
    vega: float
    rho: float
    region: Region | None = None


def _root_region(lattice: Lattice) -> Region:
    """Stopping when intrinsic value >= the value of holding one more
    step with optimal behavior afterwards; ties resolve to Stopping."""
    inputs = lattice.inputs
    step_one = lattice.node_values[1]
    continuation = lattice.discount * (
        lattice.q_rn * float(step_one[1]) + (1.0 - lattice.q_rn) * float(step_one[0])
    )
    if payoff(inputs.spot, inputs.strike, inputs.contract_type) >= continuation:
        return Region.STOPPING
    return Region.CONTINUATION


def classify_region(inputs: PricingInputs) -> RegionClassification:
    """Decide whether immediate exercise is optimal at the root node."""
    if inputs.exercise is not Exercise.AMERICAN:
        raise InvalidConfig("region classification applies to American exercise only")
    return RegionClassification(_root_region(build_lattice(inputs)))


def _payoff_slope(inputs: PricingInputs) -> float:
    # Derivative of the payoff in spot. At the kink s == K the
    # subgradient on the out-of-the-money side (0) is used, which keeps
    # |delta| <= 1 and avoids a spurious jump exactly at the money.
    if inputs.contract_type is ContractType.CALL:
        return 1.0 if inputs.spot > inputs.strike else 0.0
    return -1.0 if inputs.spot < inputs.strike else 0.0


def _lattice_delta(lattice: Lattice, region: Region | None) -> float:
    inputs = lattice.inputs
    if region is Region.STOPPING:
        return _payoff_slope(inputs)

    s = inputs.spot
    sigma = inputs.volatility
    dt = lattice.dt
    sqrt_dt = math.sqrt(dt)
    mu = (inputs.rate - inputs.dividend_yield - 0.5 * sigma * sigma) / sigma
    value_up = float(lattice.node_values[1][1])
    value_down = float(lattice.node_values[1][0])
    expectation = lattice.q_rn * value_up * (sqrt_dt - mu * dt) + (
        1.0 - lattice.q_rn
    ) * value_down * (-sqrt_dt - mu * dt)
    return lattice.discount / (s * sigma * dt) * expectation


def delta_ms(inputs: PricingInputs) -> float:
    """Early-exercise-aware delta from the first lattice step.

    Stopping region: the payoff slope (+1 / -1 / 0). Continuation
    region: the discounted two-point expectation documented in the
    module docstring, using the American lattice values at step 1.
    """
    if inputs.exercise is not Exercise.AMERICAN:
        raise InvalidConfig("this delta applies to American exercise only")
    lattice = build_lattice(inputs)
    return _lattice_delta(lattice, _root_region(lattice))


def delta_fd(inputs: PricingInputs, bump: float = DELTA_BUMP) -> float:
    """Central-difference delta with a relative spot bump."""
    if bump <= 0.0:
        raise InvalidBump(f"spot bump must be > 0, got {bump}")
    up = price_option(inputs.replace(spot=inputs.spot * (1.0 + bump)))
    down = price_option(inputs.replace(spot=inputs.spot * (1.0 - bump)))
    return (up - down) / (2.0 * inputs.spot * bump)


def gamma_fd(inputs: PricingInputs, bump: float = GAMMA_BUMP) -> float:
    """Second central difference in spot, relative bump.

    A cross-check on greek_set's gamma. The tree price is piecewise
    linear in spot with kinks a factor u^2 apart, so a bump near that
    spacing reads 0 or a multiple of gamma; it must span several kinks.
    """
    if bump <= 0.0:
        raise InvalidBump(f"spot bump must be > 0, got {bump}")
    up = price_option(inputs.replace(spot=inputs.spot * (1.0 + bump)))
    mid = price_option(inputs)
    down = price_option(inputs.replace(spot=inputs.spot * (1.0 - bump)))
    step = inputs.spot * bump
    return (up - 2.0 * mid + down) / (step * step)


def theta_fd(inputs: PricingInputs, dt_bump: float = THETA_BUMP) -> float:
    """Forward difference in calendar time, reported per year.

    Shortening the remaining life stands in for advancing the clock, so
    the result is negative wherever the option loses value with time.
    A central difference would extend maturity, which has no calendar
    meaning for a listed contract. A cross-check on greek_set's theta,
    whose accuracy depends on the bump relative to the node spacing.
    """
    if dt_bump <= 0.0:
        raise InvalidBump(f"time bump must be > 0, got {dt_bump}")
    if dt_bump >= inputs.time_to_maturity:
        raise BumpExceedsMaturity(
            f"time bump {dt_bump} >= remaining life {inputs.time_to_maturity}"
        )
    shortened = price_option(
        inputs.replace(time_to_maturity=inputs.time_to_maturity - dt_bump)
    )
    return (shortened - price_option(inputs)) / dt_bump


def _vol_bumped(inputs: PricingInputs, vol_bump: float) -> list[PricingInputs]:
    """The inputs at volatility + vol_bump and at volatility - vol_bump."""
    if vol_bump <= 0.0:
        raise InvalidBump(f"volatility bump must be > 0, got {vol_bump}")
    if inputs.volatility - vol_bump <= 0.0:
        raise NegativeVolAfterBump(
            f"volatility {inputs.volatility} minus bump {vol_bump} is not positive"
        )
    return [
        inputs.replace(volatility=inputs.volatility + vol_bump),
        inputs.replace(volatility=inputs.volatility - vol_bump),
    ]


def _rate_bumped(inputs: PricingInputs, rate_bump: float) -> list[PricingInputs]:
    """The inputs at rate + rate_bump and at rate - rate_bump."""
    if rate_bump <= 0.0:
        raise InvalidBump(f"rate bump must be > 0, got {rate_bump}")
    return [
        inputs.replace(rate=inputs.rate + rate_bump),
        inputs.replace(rate=inputs.rate - rate_bump),
    ]


def _central_difference(up: float, down: float, bump: float) -> float:
    return (up - down) / (2.0 * bump)


def vega_fd(inputs: PricingInputs, vol_bump: float = VEGA_BUMP) -> float:
    """Central difference in volatility, per unit of volatility."""
    up, down = _vol_bumped(inputs, vol_bump)
    return _central_difference(price_option(up), price_option(down), vol_bump)


def rho_fd(inputs: PricingInputs, rate_bump: float = RHO_BUMP) -> float:
    """Central difference in the risk-free rate, per unit of rate."""
    up, down = _rate_bumped(inputs, rate_bump)
    return _central_difference(price_option(up), price_option(down), rate_bump)


def greek_sets(
    rows: Sequence[PricingInputs],
) -> list[GreekSet | DegenerateProbability | NegativeVolAfterBump]:
    """greek_set of every row, with every row's lattice and its four
    vega/rho reprices solved in one build_lattices call.

    The rows must share one step count, of at least 2. A row whose own
    tree or one of whose bumped trees is degenerate, or whose volatility
    does not exceed VEGA_BUMP, gets the error that greek_set raises for
    it: its own tree's first, then the bump's, then the bumped trees' in
    order. A row whose bump fails enters the batch with its own tree only.
    """
    for inputs in rows:
        if inputs.steps < 2:
            raise InvalidConfig(
                f"steps must be >= 2 for lattice Greeks, got {inputs.steps}"
            )
    batch: list[PricingInputs] = []
    bump_errors: list[NegativeVolAfterBump | None] = []
    for inputs in rows:
        # The row's own tree leads its entries, so its error comes first.
        batch.append(inputs)
        try:
            batch += [*_vol_bumped(inputs, VEGA_BUMP), *_rate_bumped(inputs, RHO_BUMP)]
        except NegativeVolAfterBump as error:
            bump_errors.append(error)
        else:
            bump_errors.append(None)
    solved = iter(build_lattices(batch))
    results: list[GreekSet | DegenerateProbability | NegativeVolAfterBump] = []
    for bump_error in bump_errors:
        own = next(solved)
        trees = [own, *islice(solved, 4)] if bump_error is None else [own, bump_error]
        error = next((tree for tree in trees if not isinstance(tree, Lattice)), None)
        results.append(_lattice_greeks(*trees) if error is None else error)
    return results


def _lattice_greeks(
    lattice: Lattice, vol_up: Lattice, vol_down: Lattice, rate_up: Lattice, rate_down: Lattice
) -> GreekSet:
    """The GreekSet off a row's lattice and its four vega/rho reprices."""
    inputs = lattice.inputs
    region = _root_region(lattice) if inputs.exercise is Exercise.AMERICAN else None
    low, mid, high = lattice.node_values[2].tolist()
    s_low, s_mid, s_high = lattice.spot_grid(2).tolist()
    slope_up = (high - mid) / (s_high - s_mid)
    slope_down = (mid - low) / (s_mid - s_low)
    return GreekSet(
        delta=_lattice_delta(lattice, region),
        gamma=2.0 * (slope_up - slope_down) / (s_high - s_low),
        theta=(mid - lattice.root_value) / (2.0 * lattice.dt),
        vega=_central_difference(vol_up.root_value, vol_down.root_value, VEGA_BUMP),
        rho=_central_difference(rate_up.root_value, rate_down.root_value, RHO_BUMP),
        region=region,
    )


def greek_set(inputs: PricingInputs) -> GreekSet:
    """All five Greeks, and the exercise region: greek_sets of the one
    row, raising its error.

    Delta, gamma and theta come off one lattice's first two steps, so
    steps >= 2. European contracts have no region and take the
    continuation delta. Vega and rho reprice at the default bumps, as
    vega_fd and rho_fd do, in the same batched induction as the lattice.
    """
    (result,) = greek_sets([inputs])
    if isinstance(result, GreekSet):
        return result
    raise result
