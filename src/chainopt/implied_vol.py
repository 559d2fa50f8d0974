"""Implied volatility by guarded secant-Newton over the binomial price.

The solver inverts f(sigma) = binomial_price(sigma) - market_price with
the update x_{n+1} = x_n - f(x_n)/s_n. The first slope s_0 is the
closed-form Black-Scholes vega of the quote's European twin at the seed;
every later slope is the secant through the last two full-size prices,
so each step is a finite-difference Newton step on the full tree and
each iteration costs exactly one price (Dekker 1969; Brent 1973). After
a degenerate probe the slope falls back to the Black-Scholes vega.

Bare Newton diverges where vega is near zero (deep ITM or OTM), so every
evaluation also maintains a bisection bracket: a pass bisects instead of
stepping when the slope falls below a floor, when the step leaves the
allowed volatility range, or when the previous pass's step failed to
reduce |f|. Each pass makes exactly one probe: one full-size price, the
bracket update and the best-iterate update.

The seed is the Black-Scholes implied vol of the market price on the
European twin, so a solve depends on its quote alone. The seed does not
change the root, only how many prices it takes to reach it.

One generator, ``_solve``, makes every decision: it yields each sigma it
wants priced and is sent back the price. It prices nothing itself, so
two drivers share it. ``implied_vol`` drives one quote with one
``price_option`` call per probe. ``implied_vols`` drives a bar's quotes
in lockstep: each round prices every unfinished quote's probe in one
``build_lattices`` call. The prices, and so the solutions, are the same
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Generator, Sequence

import numpy as np

from .errors import ArbitrageViolation, DegenerateProbability, DimensionMismatch
from .pricing import (
    ContractType,
    PricingInputs,
    black_scholes,
    build_lattices,
    price_option,
)

SIGMA_MIN = 1e-4
SIGMA_MAX = 5.0
SEED_LOW = 0.05
SEED_HIGH = 1.0
# A step needs a slope of at least this much; below it, bisect.
VEGA_FLOOR = 1e-8
# Closed-form steps for the cold seed; 50 bisections alone reach 5e-15.
SEED_ITERATIONS = 50


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


def _twin(inputs: PricingInputs, sigma: float) -> tuple[float, float]:
    """Black-Scholes (price, vega) of the quote's European twin at sigma."""
    return black_scholes(
        inputs.spot,
        inputs.strike,
        inputs.time_to_maturity,
        inputs.rate,
        inputs.dividend_yield,
        sigma,
        inputs.contract_type,
    )


def cold_seed(
    market_price: float,
    inputs: PricingInputs,
    price_tolerance: float = SolverOptions.price_tolerance,
) -> float:
    """Black-Scholes implied vol of market_price for the quote's European twin.

    Safeguarded Newton on the closed form from initial_guess, to
    price_tolerance or SEED_ITERATIONS steps. Falls back to
    initial_guess when no sigma in [SIGMA_MIN, SIGMA_MAX] prices the
    twin at market_price. No lattice is priced.
    """
    x = initial_guess(market_price, inputs)
    lo, hi = SIGMA_MIN, SIGMA_MAX
    floor_price, _ = _twin(inputs, lo)
    if not floor_price <= market_price <= _twin(inputs, hi)[0]:
        return x
    for _ in range(SEED_ITERATIONS):
        price, vega = _twin(inputs, x)
        f = price - market_price
        if abs(f) <= price_tolerance:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        step = x - f / vega if vega >= VEGA_FLOOR else None
        x = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    return x


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


def _solve(
    market_price: float, inputs: PricingInputs, opts: SolverOptions
) -> Generator[float, float | None, IvSolution]:
    """The solver: yields each sigma it wants priced and is sent back that
    sigma's full-size lattice price, or None for a degenerate tree.
    Returns the IvSolution. Raises ArbitrageViolation before its first
    yield."""
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
    x = cold_seed(market_price, inputs, opts.price_tolerance)
    best_x, best_f = x, math.inf
    probes: list[tuple[float, float | None]] = []

    def probe(sigma: float) -> Generator[float, float | None, float | None]:
        """One full-size price at sigma: returns its residual, narrows the
        bracket, keeps the best iterate and records the probe for the
        next secant. None marks a lattice too coarse for this volatility;
        the price is effectively pinned low, so it counts as f < 0."""
        nonlocal lo, hi, best_x, best_f
        price = yield sigma
        f = None if price is None else price - market_price
        if f is None or f < 0.0:
            lo = max(lo, sigma)
        else:
            hi = min(hi, sigma)
        if f is not None and abs(f) < best_f:
            best_x, best_f = sigma, abs(f)
        probes.append((sigma, f))
        return f

    def slope() -> float:
        """Secant through the last two probes, the second being the
        current iterate; the Black-Scholes vega there after the seed or
        a degenerate probe."""
        x1, f1 = probes[-1]
        if len(probes) > 1 and probes[-2][1] is not None:
            x0, f0 = probes[-2]
            return (f1 - f0) / (x1 - x0)
        return _twin(inputs, x1)[1]

    f = yield from probe(x)
    used_newton = used_bisection = rejected = False

    def method_label() -> SolveMethod:
        if used_newton and used_bisection:
            return SolveMethod.HYBRID
        if used_bisection:
            return SolveMethod.BISECTION
        return SolveMethod.NEWTON

    while True:
        if f is not None and abs(f) <= opts.price_tolerance:
            return IvSolution(x, len(probes), True, method_label())
        if len(probes) >= opts.max_iterations:
            return IvSolution(best_x, len(probes), False, method_label())

        # Take a secant step from the current iterate if it lands in range,
        # unless the last one failed to reduce |f|; otherwise bisect.
        step = None
        if f is not None and not rejected:
            vega = slope()
            if vega >= VEGA_FLOOR:
                step = x - f / vega
        secant = step is not None and SIGMA_MIN <= step <= SIGMA_MAX
        if not secant:
            step = 0.5 * (lo + hi)
        f_step = yield from probe(step)
        # A rejected step keeps the iterate; its probe still narrowed the
        # bracket that the next pass bisects.
        rejected = secant and not (f_step is not None and abs(f_step) < abs(f))
        if rejected:
            continue
        used_newton |= secant
        used_bisection |= not secant
        step_size = abs(step - x)
        x, f = step, f_step
        if step_size <= opts.step_tolerance:
            converged = f is not None and abs(f) <= opts.price_tolerance
            return IvSolution(x, len(probes), converged, method_label())


def implied_vol(
    market_price: float,
    inputs: PricingInputs,
    opts: SolverOptions = SolverOptions(),
) -> IvSolution:
    """Invert a market price to the volatility the lattice implies.

    ``inputs.volatility`` is ignored; the contract terms, rate, step
    count, and exercise style are taken from ``inputs``. The first probe
    is at ``cold_seed``. Iterations count full-size price evaluations,
    including the one at the seed; no other lattice is priced. When the
    iteration cap is reached the best iterate is returned with
    ``converged=False`` rather than raising. Each probe is one
    ``price_option`` call.
    """
    solver = _solve(market_price, inputs, opts)
    sigma = next(solver)
    while True:
        try:
            price = price_option(inputs.replace(volatility=sigma))
        except DegenerateProbability:
            price = None
        try:
            sigma = solver.send(price)
        except StopIteration as stop:
            return stop.value


def implied_vols(
    quotes: Sequence[tuple[float, PricingInputs]],
    opts: SolverOptions = SolverOptions(),
) -> list[IvSolution | ArbitrageViolation]:
    """implied_vol of every (market price, inputs) pair, solved in lockstep.

    The quotes must share one step count. Each round prices the pending
    probe of every unfinished quote in one ``build_lattices`` call; a
    probe whose slot holds a degenerate tree's error is sent None. Each
    quote gets the IvSolution that implied_vol returns for it, or the
    ArbitrageViolation that implied_vol raises for it.
    """
    results: list[IvSolution | ArbitrageViolation | None] = [None] * len(quotes)
    pending: dict[int, tuple[Generator, float]] = {}
    for index, (market_price, inputs) in enumerate(quotes):
        solver = _solve(market_price, inputs, opts)
        try:
            pending[index] = solver, next(solver)
        except ArbitrageViolation as error:
            results[index] = error
    while pending:
        probes = list(pending.items())
        rows = [quotes[index][1].replace(volatility=sigma) for index, (_, sigma) in probes]
        for (index, (solver, _)), lattice in zip(probes, build_lattices(rows)):
            price = None if isinstance(lattice, DegenerateProbability) else lattice.root_value
            try:
                pending[index] = solver, solver.send(price)
            except StopIteration as stop:
                results[index] = stop.value
                del pending[index]
    return results


def portfolio_iv(weights, ivs: Sequence[float]) -> float:
    """Weighted sum of individual implied volatilities."""
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)
    v = np.asarray(ivs, dtype=float)
    if w.shape != v.shape:
        raise DimensionMismatch(
            f"weights shape {w.shape} does not match ivs shape {v.shape}"
        )
    return float(w @ v)
