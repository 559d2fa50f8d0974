"""Binomial lattice valuation of American and European options.

The lattice is a recombining Cox-Ross-Rubinstein tree: up factor
u = exp(sigma*sqrt(dt)), down factor d = 1/u, and risk-neutral up
probability q_rn = (exp((r - q)*dt) - d)/(u - d). Backward induction
applies the early-exercise comparison at every node for American
contracts. build_lattice is the only induction loop: it keeps the first
three steps, which the Greeks read, and price_option is its root value.
A closed-form European price is included as an independent convergence
reference; it is never used as a pricing substitute for American
contracts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegenerateProbability, InvalidConfig, NotEuropean

SQRT_TWO = math.sqrt(2.0)

# Deepest step a Lattice keeps: the Greeks read steps 0 to 2 only.
RETAINED_STEP = 2


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


def _payoff_array(spots: np.ndarray, strike: float, contract_type: ContractType) -> np.ndarray:
    if contract_type is ContractType.CALL:
        return np.maximum(spots - strike, 0.0)
    return np.maximum(strike - spots, 0.0)


def _tree_parameters(inputs: PricingInputs) -> tuple[float, float, float, float, float]:
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


def build_lattice(inputs: PricingInputs) -> Lattice:
    """Solve the tree by backward induction.

    Terminal values are the payoffs at the N+1 terminal spots; each
    earlier node is the discounted risk-neutral expectation of its two
    successors, floored at intrinsic value for American exercise. The
    steps share two reused buffers, and steps 0 to min(2, N) are copied
    out as they pass.
    """
    params = _tree_parameters(inputs)
    _, u, _, q_rn, discount = params
    n = inputs.steps
    american = inputs.exercise is Exercise.AMERICAN

    # One power and payoff table serves every step: the spot at node j of
    # step i is S * u^(2j - i), i.e. powers[n - i + 2j].
    powers = inputs.spot * u ** np.arange(-n, n + 1, dtype=float)
    intrinsic = _payoff_array(powers, inputs.strike, inputs.contract_type)

    # Copies throughout: each buffer is overwritten by later steps.
    values = intrinsic[::2].copy()
    levels = [values.copy()] if n <= RETAINED_STEP else []
    spare = np.empty(n, dtype=float)
    low = np.empty(n, dtype=float)
    for i in range(n - 1, -1, -1):
        head = spare[: i + 1]
        np.multiply(values[1:], q_rn, out=head)
        head += np.multiply(values[:-1], 1.0 - q_rn, out=low[: i + 1])
        head *= discount
        if american:
            np.maximum(head, intrinsic[n - i : n + i + 1 : 2], out=head)
        if i <= RETAINED_STEP:
            levels.append(head.copy())
        spare = values
        values = head

    return Lattice(n, *params, levels[::-1], inputs)


def price_option(inputs: PricingInputs) -> float:
    """Root lattice value."""
    return build_lattice(inputs).root_value


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / SQRT_TWO))


def _black_scholes_terms(inputs: PricingInputs) -> tuple[float, float, float, float]:
    """(d1, d2, S e^{-qT}, K e^{-rT}) of the closed form.

    Raises NotEuropean for American inputs instead of silently pricing
    the wrong contract.
    """
    if inputs.exercise is not Exercise.EUROPEAN:
        raise NotEuropean("closed form is defined for European exercise only")

    s, k = inputs.spot, inputs.strike
    t = inputs.time_to_maturity
    r, q = inputs.rate, inputs.dividend_yield
    sigma = inputs.volatility

    vol_sqrt_t = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r - q + 0.5 * sigma * sigma) * t) / vol_sqrt_t
    return d1, d1 - vol_sqrt_t, s * math.exp(-q * t), k * math.exp(-r * t)


def black_scholes_price(inputs: PricingInputs) -> float:
    """Closed-form European value with a continuous dividend yield.

    Used as an independent convergence reference for the lattice.
    """
    d1, d2, disc_s, disc_k = _black_scholes_terms(inputs)
    if inputs.contract_type is ContractType.CALL:
        return disc_s * _norm_cdf(d1) - disc_k * _norm_cdf(d2)
    return disc_k * _norm_cdf(-d2) - disc_s * _norm_cdf(-d1)


def black_scholes_vega(inputs: PricingInputs) -> float:
    """Closed-form European dV/dsigma, S e^{-qT} phi(d1) sqrt(T), the same
    for calls and puts."""
    d1, _, disc_s, _ = _black_scholes_terms(inputs)
    density = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    return disc_s * density * math.sqrt(inputs.time_to_maturity)
