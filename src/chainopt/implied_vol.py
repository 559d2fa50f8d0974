"""Implied volatility by guarded Newton-Raphson over the binomial price.

The solver inverts f(sigma) = binomial_price(sigma) - market_price with
the update x_{n+1} = x_n - f(x_n)/f'(x_n), f' taken as a central
finite difference in volatility. Bare Newton diverges where vega is
near zero (deep ITM or OTM), so every evaluation also maintains a
bisection bracket: a Newton step is rejected in favor of a bisection
step when vega falls below a floor, when the step leaves the allowed
volatility range, or when it fails to reduce |f|. Newton candidates,
bisection midpoints and the seed all go through one probe step: one
full-size price, the bracket update and the best-iterate update.

Prices during iteration are computed at the caller's full step count;
only the derivative uses a coarser tree, which has no effect on the
converged root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ArbitrageViolation, DegenerateProbability, DimensionMismatch
from .pricing import ContractType, PricingInputs, price_option

SIGMA_MIN = 1e-4
SIGMA_MAX = 5.0
SEED_LOW = 0.05
SEED_HIGH = 1.0
# A Newton step needs at least this much vega; below it, bisect.
VEGA_FLOOR = 1e-8
# Coarser tree for the derivative only; full-size trees everywhere else.
DERIVATIVE_STEPS = 200
DERIVATIVE_BUMP = 1e-3


class SolveMethod(str, Enum):
    NEWTON = "newton"
    BISECTION = "bisection"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class SolverOptions:
    """Engine configuration for the root finder."""

    price_tolerance: float = 1e-6
    step_tolerance: float = 1e-8
    max_iterations: int = 100


@dataclass(frozen=True)
class IvSolution:
    sigma: float
    iterations: int
    converged: bool
    method: SolveMethod


def initial_guess(market_price: float, inputs: PricingInputs) -> float:
    """At-the-money-style seed: market_price * sqrt(2*pi/T) / S0.

    Clamped to [0.05, 1.0]; intentionally crude, the solver does the
    rest.
    """
    seed = market_price * math.sqrt(2.0 * math.pi / inputs.time_to_maturity) / inputs.spot
    return min(max(seed, SEED_LOW), SEED_HIGH)


def _no_arbitrage_bounds(inputs: PricingInputs) -> tuple[float, float]:
    """Static bounds for an American option price."""
    s, k = inputs.spot, inputs.strike
    t = inputs.time_to_maturity
    disc_k = k * math.exp(-inputs.rate * t)
    disc_s = s * math.exp(-inputs.dividend_yield * t)
    if inputs.contract_type is ContractType.CALL:
        lower = max(0.0, s - k, disc_s - disc_k)
        upper = s
    else:
        lower = max(0.0, k - s, disc_k - disc_s)
        upper = k
    return lower, upper


def _reduced_vega(inputs: PricingInputs, sigma: float) -> float:
    """Central-difference vega on the coarse derivative tree.

    Treats an unusable point (bump crossing zero, degenerate lattice)
    as zero vega so the caller falls back to bisection.
    """
    if sigma - DERIVATIVE_BUMP <= 0.0:
        return 0.0
    coarse = inputs.replace(steps=min(inputs.steps, DERIVATIVE_STEPS))
    try:
        up = price_option(coarse.replace(volatility=sigma + DERIVATIVE_BUMP))
        down = price_option(coarse.replace(volatility=sigma - DERIVATIVE_BUMP))
    except DegenerateProbability:
        return 0.0
    return (up - down) / (2.0 * DERIVATIVE_BUMP)


def implied_vol(
    market_price: float,
    inputs: PricingInputs,
    opts: SolverOptions = SolverOptions(),
) -> IvSolution:
    """Invert a market price to the volatility the lattice implies.

    ``inputs.volatility`` is ignored; the contract terms, rate, step
    count, and exercise style are taken from ``inputs``. Iterations
    count price evaluations, including the one at the seed. When the
    iteration cap is reached the best iterate is returned with
    ``converged=False`` rather than raising.
    """
    if market_price <= opts.price_tolerance:
        raise ArbitrageViolation(
            f"market price {market_price} is at or below the price tolerance "
            f"{opts.price_tolerance}: every low enough volatility prices within "
            "tolerance of it, so none is implied"
        )
    lower, upper = _no_arbitrage_bounds(inputs)
    if market_price <= lower or market_price >= upper:
        raise ArbitrageViolation(
            f"market price {market_price} outside static bounds "
            f"({lower:.6g}, {upper:.6g}) for this contract"
        )

    lo, hi = SIGMA_MIN, SIGMA_MAX
    x = initial_guess(market_price, inputs)
    best_x, best_f = x, math.inf
    iterations = 0

    def probe(sigma: float) -> float | None:
        """One full-size price at sigma: returns its residual, narrows the
        bracket and keeps the best iterate. None marks a lattice too
        coarse for this volatility; the price is effectively pinned low,
        so it counts as f < 0."""
        nonlocal lo, hi, best_x, best_f, iterations
        iterations += 1
        try:
            f = price_option(inputs.replace(volatility=sigma)) - market_price
        except DegenerateProbability:
            f = None
        if f is None or f < 0.0:
            lo = max(lo, sigma)
        else:
            hi = min(hi, sigma)
        if f is not None and abs(f) < best_f:
            best_x, best_f = sigma, abs(f)
        return f

    f = probe(x)
    used_newton = False
    used_bisection = False

    def method_label() -> SolveMethod:
        if used_newton and used_bisection:
            return SolveMethod.HYBRID
        if used_bisection:
            return SolveMethod.BISECTION
        return SolveMethod.NEWTON

    while True:
        if f is not None and abs(f) <= opts.price_tolerance:
            return IvSolution(x, iterations, True, method_label())
        if iterations >= opts.max_iterations:
            return IvSolution(best_x, iterations, False, method_label())

        # Take a Newton step from the current iterate if it lands in range
        # and reduces |f|; otherwise bisect the bracket.
        step = None
        if f is not None:
            vega = _reduced_vega(inputs, x)
            if vega >= VEGA_FLOOR:
                step = x - f / vega
        f_step = None
        if step is not None and SIGMA_MIN <= step <= SIGMA_MAX:
            f_step = probe(step)
        if f_step is not None and abs(f_step) < abs(f):
            used_newton = True
        else:
            # A rejected Newton probe still narrowed the bracket.
            if iterations >= opts.max_iterations:
                return IvSolution(best_x, iterations, False, method_label())
            step = 0.5 * (lo + hi)
            f_step = probe(step)
            used_bisection = True
        step_size = abs(step - x)
        x, f = step, f_step
        if step_size <= opts.step_tolerance:
            converged = f is not None and abs(f) <= opts.price_tolerance
            return IvSolution(x, iterations, converged, method_label())


def portfolio_iv(weights, ivs: Sequence[float]) -> float:
    """Weighted sum of individual implied volatilities."""
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)
    v = np.asarray(ivs, dtype=float)
    if w.shape != v.shape:
        raise DimensionMismatch(
            f"weights shape {w.shape} does not match ivs shape {v.shape}"
        )
    return float(w @ v)
