"""Binomial lattice valuation of American and European options.

The lattice is a recombining Cox-Ross-Rubinstein tree: up factor
u = exp(sigma*sqrt(dt)), down factor d = 1/u, and risk-neutral up
probability q_rn = (exp((r - q)*dt) - d)/(u - d). Backward induction
applies the early-exercise comparison at every node for American
contracts. build_lattices is the only induction loop: it solves rows
that share a step count side by side, in cache-sized blocks, and keeps
their first three steps, which the Greeks read. build_lattice is its
one-row case, and price_option is that lattice's root value.
A closed-form European price is included as an independent convergence
reference; it is never used as a pricing substitute for American
contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateProbability, InvalidConfig, NotEuropean

SQRT_TWO = math.sqrt(2.0)

# Deepest step a Lattice keeps: the Greeks read steps 0 to 2 only.
RETAINED_STEP = 2

# Nodes per induction block. An induction works on about 7 arrays of
# rows * (N+1) doubles, under 1 MB at 16,384 nodes, so a block stays in
# a 2 MB L2. At N=500 a row then took 0.49 ms in blocks of 32 rows,
# against 0.66-0.72 ms in one batch of 150 and 0.77 ms in blocks of 5
# (2-core Xeon VM).
BLOCK_NODES = 16_384


class ContractType(str, Enum):
    CALL = "call"
    PUT = "put"


class Exercise(str, Enum):
    AMERICAN = "american"
    EUROPEAN = "european"


@dataclass(frozen=True)
class PricingInputs:
    """Full state for one valuation.

    Attributes
    ----------
    spot : float
        Underlying price S0, > 0.
    strike : float
        Strike K, > 0.
    time_to_maturity : float
        T in years, > 0.
    rate : float
        Annualized risk-free rate r, continuous compounding.
    dividend_yield : float
        Annualized continuous dividend yield q.
    volatility : float
        Annualized volatility sigma, > 0.
    steps : int
        Lattice step count N, >= 1.
    contract_type : ContractType
    exercise : Exercise
    """

    spot: float
    strike: float
    time_to_maturity: float
    rate: float
    dividend_yield: float
    volatility: float
    steps: int
    contract_type: ContractType
    exercise: Exercise

    def __post_init__(self) -> None:
        for name in ("spot", "strike", "time_to_maturity", "volatility"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidConfig(f"{name} must be finite and > 0, got {value}")
        if not isinstance(self.steps, int) or self.steps < 1:
            raise InvalidConfig(f"steps must be an integer >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.time_to_maturity / self.steps

    def replace(self, **changes) -> "PricingInputs":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Lattice:
    """A solved tree: parameters plus the node values of its first steps.

    node_values[i], for i from 0 to min(2, steps), is the length-(i+1)
    array of option values at step i, ordered from the lowest spot node
    to the highest. For American exercise these are already
    max(intrinsic, continuation). Deeper steps are not kept.
    """

    steps: int
    dt: float
    up: float
    down: float
    q_rn: float
    discount: float
    node_values: list[np.ndarray]
    inputs: PricingInputs

    @property
    def root_value(self) -> float:
        return float(self.node_values[0][0])

    def spot_grid(self, step: int) -> np.ndarray:
        """Spot prices at the given step, lowest node first."""
        j = np.arange(step + 1)
        return self.inputs.spot * self.up ** (2.0 * j - step)


def payoff(spot: float, strike: float, contract_type: ContractType) -> float:
    """Intrinsic value: max(S-K, 0) for a call, max(K-S, 0) for a put."""
    if contract_type is ContractType.CALL:
        return max(spot - strike, 0.0)
    return max(strike - spot, 0.0)


def _payoff_array(
    spots: np.ndarray, strike: float, contract_type: ContractType, out: np.ndarray
) -> np.ndarray:
    if contract_type is ContractType.CALL:
        return np.maximum(spots - strike, 0.0, out=out)
    return np.maximum(strike - spots, 0.0, out=out)


def tree_parameters(inputs: PricingInputs) -> tuple[float, float, float, float, float]:
    """Return (dt, u, d, q_rn, discount), rejecting degenerate probabilities."""
    dt = inputs.dt
    u = math.exp(inputs.volatility * math.sqrt(dt))
    d = 1.0 / u
    growth = math.exp((inputs.rate - inputs.dividend_yield) * dt)
    q_rn = (growth - d) / (u - d)
    if not 0.0 < q_rn < 1.0:
        raise DegenerateProbability(
            f"risk-neutral up probability {q_rn:.6f} outside (0, 1); "
            f"step size {dt:.6g} too large for sigma={inputs.volatility}, "
            f"r-q={inputs.rate - inputs.dividend_yield}"
        )
    discount = math.exp(-inputs.rate * dt)
    return dt, u, d, q_rn, discount


def build_lattices(rows: Sequence[PricingInputs]) -> list[Lattice]:
    """Solve the trees of rows that share one step count N, raising the
    first degenerate row's error.

    Every row is checked, the shared N and then each row's tree
    parameters in order, before any induction runs. The rows are then
    solved in consecutive blocks of at most max(1, BLOCK_NODES // (N+1))
    rows, one backward induction per block, so a block's working arrays
    stay cache-sized however many rows there are. A row's lattice is the
    same bit for bit whatever block it lies in.
    """
    if not rows:
        return []
    n = rows[0].steps
    for inputs in rows:
        if inputs.steps != n:
            raise InvalidConfig(
                f"rows of one induction share a step count, got {n} and {inputs.steps}"
            )
    params = [tree_parameters(inputs) for inputs in rows]
    size = max(1, BLOCK_NODES // (n + 1))
    lattices: list[Lattice] = []
    for start in range(0, len(rows), size):
        block = slice(start, start + size)
        lattices.extend(_induct(rows[block], params[block], n))
    return lattices


def _induct(
    rows: Sequence[PricingInputs],
    params: Sequence[tuple[float, float, float, float, float]],
    n: int,
) -> list[Lattice]:
    """One backward induction over rows of N steps whose tree parameters
    are already checked.

    Terminal values are the payoffs at the N+1 terminal spots; each
    earlier node is the discounted risk-neutral expectation of its two
    successors, floored at intrinsic value for American exercise. The
    rows lie end to end in one flat buffer of N+1 nodes each, so a step
    is five elementwise operations however many rows there are. A node
    past a row's live part may read the next row, but no live node ever
    reads it back. Each node carries its row's coefficients, and a
    European row's floor is -inf. Steps 0 to min(2, N) are copied out as
    they pass.
    """
    m, width = len(rows), n + 1

    # One power and payoff table per row serves every step: the spot at
    # node j of step i is S * u^(2j - i), i.e. column n - i + 2j. Rows
    # lie 2 * width apart in the flat floor, so node j of row r, at flat
    # index k = width * r + j, finds its floor at n - i + 2k. Each row's
    # last slot is padding, read only past a row's live part.
    exponents = np.arange(-n, n + 1, dtype=float)
    floor = np.empty(2 * width * m)
    european = []
    for r, inputs in enumerate(rows):
        start = 2 * width * r
        intrinsic = floor[start : start + 2 * n + 1]
        powers = inputs.spot * params[r][1] ** exponents
        _payoff_array(powers, inputs.strike, inputs.contract_type, intrinsic)
        if inputs.exercise is not Exercise.AMERICAN:
            european.append(intrinsic)
    # Step n's values are the payoffs in the even slots.
    values = floor[::2].copy()
    for intrinsic in european:
        intrinsic.fill(-math.inf)
    american = len(european) < m

    # A single row takes float coefficients; a batch takes one per node.
    batched = m > 1
    if batched:
        floor[2 * n + 1 :: 2 * width] = -math.inf
        up_nodes, down_nodes, discount_nodes = (
            np.repeat(column, width)
            for column in zip(*((q, 1.0 - q, disc) for *_, q, disc in params))
        )
    else:
        _, _, _, q_up, discount = params[0]
        q_down = 1.0 - q_up

    # Step i computes the first `offset + i` nodes, which end at the last
    # row's node i. Two buffers take turns, and the down branch is scaled
    # in place in the step it feeds.
    offset = (m - 1) * width + 1
    top = n + 2 * offset
    levels = [None] * (min(n, RETAINED_STEP) + 1)
    if n <= RETAINED_STEP:
        levels[n] = values.copy()
    spare = np.empty(m * width)
    for i in range(n - 1, -1, -1):
        length = offset + i
        if batched:
            q_up, q_down, discount = (
                up_nodes[:length], down_nodes[:length], discount_nodes[:length]
            )
        head = spare[:length]
        np.multiply(values[1:], q_up, out=head)
        down = values[:-1]
        down *= q_down
        head += down
        head *= discount
        if american:
            np.maximum(head, floor[n - i : top + i : 2], out=head)
        if i <= RETAINED_STEP:
            levels[i] = head.copy()
        spare = values
        values = head

    return [
        Lattice(
            n,
            *params[r],
            [level[r * width : r * width + i + 1] for i, level in enumerate(levels)],
            inputs,
        )
        for r, inputs in enumerate(rows)
    ]


def build_lattice(inputs: PricingInputs) -> Lattice:
    """Solve one tree: build_lattices of the one row."""
    return build_lattices([inputs])[0]


def price_option(inputs: PricingInputs) -> float:
    """Root lattice value."""
    return build_lattices([inputs])[0].root_value


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / SQRT_TWO))


def black_scholes(
    spot: float,
    strike: float,
    time_to_maturity: float,
    rate: float,
    dividend_yield: float,
    volatility: float,
    contract_type: ContractType,
) -> tuple[float, float]:
    """Closed-form European (price, vega) with a continuous dividend yield,
    from plain floats. Vega, dV/dsigma = S e^{-qT} phi(d1) sqrt(T), is the
    same for calls and puts."""
    vol_sqrt_t = volatility * math.sqrt(time_to_maturity)
    d1 = (
        math.log(spot / strike)
        + (rate - dividend_yield + 0.5 * volatility * volatility) * time_to_maturity
    ) / vol_sqrt_t
    d2 = d1 - vol_sqrt_t
    disc_s = spot * math.exp(-dividend_yield * time_to_maturity)
    disc_k = strike * math.exp(-rate * time_to_maturity)
    if contract_type is ContractType.CALL:
        price = disc_s * _norm_cdf(d1) - disc_k * _norm_cdf(d2)
    else:
        price = disc_k * _norm_cdf(-d2) - disc_s * _norm_cdf(-d1)
    density = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return price, disc_s * density * math.sqrt(time_to_maturity)


def _closed_form(inputs: PricingInputs) -> tuple[float, float]:
    """black_scholes of the inputs.

    Raises NotEuropean for American inputs instead of silently pricing
    the wrong contract.
    """
    if inputs.exercise is not Exercise.EUROPEAN:
        raise NotEuropean("closed form is defined for European exercise only")
    return black_scholes(
        inputs.spot,
        inputs.strike,
        inputs.time_to_maturity,
        inputs.rate,
        inputs.dividend_yield,
        inputs.volatility,
        inputs.contract_type,
    )


def black_scholes_price(inputs: PricingInputs) -> float:
    """Closed-form European value with a continuous dividend yield.

    Used as an independent convergence reference for the lattice.
    """
    return _closed_form(inputs)[0]


def black_scholes_vega(inputs: PricingInputs) -> float:
    """Closed-form European dV/dsigma, S e^{-qT} phi(d1) sqrt(T), the same
    for calls and puts."""
    return _closed_form(inputs)[1]
