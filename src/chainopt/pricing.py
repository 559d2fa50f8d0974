"""Binomial lattice valuation of American and European options.

The lattice is a recombining Cox-Ross-Rubinstein tree: up factor
u = exp(sigma*sqrt(dt)), down factor d = 1/u, and risk-neutral up
probability q_rn = (exp((r - q)*dt) - d)/(u - d). Backward induction
applies the early-exercise comparison at every node for American
contracts. build_lattices is the only induction loop and the one place
that decides whether a row's tree is degenerate: it returns each row's
lattice, or the DegenerateProbability its tree parameters raise, and
solves the other rows side by side, in cache-sized blocks, keeping
their first three steps, which the Greeks read. A block's rows lie
node-major, node j of row r at flat index j*m + r, so every step works
on its live nodes only and shrinks by one node per row; the intrinsic
floor is split by spot-column parity so each step reads one slice of
it. build_lattice is the one-row case and raises its row's error, and
price_option is that lattice's root value.

An induction of m rows of N steps runs on a plan: two value buffers,
the two parity floors, the tiled coefficients and, for every step, the
views of them it reads and writes. At small m a step's arithmetic is
cheaper than making its views, so the views are made once per (N, m)
and each call only refills the buffers. Each thread holds one plan,
rebuilt when (N, m) changes, so threads never share buffers and a call
never returns a view of them.

A closed-form European price is included as an independent convergence
reference; it is never used as a pricing substitute for American
contracts.
"""

from __future__ import annotations

import math
import threading
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
# a 2 MB L2. At N=500 a row then took 0.23 ms in blocks of 32 rows,
# against 0.29 ms in blocks of 16, 0.25-0.27 ms in blocks of 64-128 and
# 0.38-0.45 ms in one batch of 300; at N=1000 blocks of 16 were best at
# 0.87-0.89 ms (2-core Xeon VM, node-major layout).
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


def build_lattices(rows: Sequence[PricingInputs]) -> list[Lattice | DegenerateProbability]:
    """Solve the trees of rows that share one step count N: each row gets
    its Lattice, or the DegenerateProbability that tree_parameters raises
    for it.

    Rows of mixed N raise InvalidConfig before any induction runs. Each
    row's tree parameters are computed once. The solvable rows are then
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
    results: list[Lattice | DegenerateProbability | None] = [None] * len(rows)
    solvable: list[int] = []
    params = []
    for index, inputs in enumerate(rows):
        try:
            params.append(tree_parameters(inputs))
        except DegenerateProbability as error:
            results[index] = error
        else:
            solvable.append(index)
    size = max(1, BLOCK_NODES // (n + 1))
    for start in range(0, len(solvable), size):
        block = solvable[start : start + size]
        lattices = _induct([rows[i] for i in block], params[start : start + size], n)
        for index, lattice in zip(block, lattices):
            results[index] = lattice
    return results


class _Plan:
    """Buffers and step views for inductions of m rows of N steps.

    It owns two ping-pong value buffers of (N+1)*m entries, the even and
    odd parity floors, one 3 x N*m coefficient table (q, 1-q, discount),
    the exponents -N..N and, per step from N-1 down to 0, the tuple
    (up, q_up, head, down, q_down, discount, floor) of views into them.
    Step i reads one buffer and writes the other, so i's views alternate
    between the two.
    """

    def __init__(self, n: int, m: int) -> None:
        self.shape = (n, m)
        self.exponents = np.arange(-n, n + 1, dtype=float)
        self.terminal = np.empty((n + 1) * m)
        spare = np.empty_like(self.terminal)
        self.floors = (np.empty((n + 1) * m), np.empty(n * m))
        self.coefficients = np.empty((3, n * m))
        q_up, q_down, discount = self.coefficients
        self.steps = []
        values = self.terminal
        for i in range(n - 1, -1, -1):
            length = (i + 1) * m
            first = (n - i) // 2 * m
            self.steps.append(
                (
                    values[m : m + length],
                    q_up[:length],
                    spare[:length],
                    values[:length],
                    q_down[:length],
                    discount[:length],
                    self.floors[(n - i) % 2][first : first + length],
                )
            )
            values, spare = spare, values


_plans = threading.local()


def _plan(n: int, m: int) -> _Plan:
    """This thread's plan, rebuilt when (N, m) changes."""
    plan = getattr(_plans, "plan", None)
    if plan is None or plan.shape != (n, m):
        # Drop the old plan first, so the two are never held at once.
        plan = _plans.plan = None
        plan = _plans.plan = _Plan(n, m)
    return plan


def _induct(
    rows: Sequence[PricingInputs],
    params: Sequence[tuple[float, float, float, float, float]],
    n: int,
) -> list[Lattice]:
    """One backward induction over rows of N steps whose tree parameters
    are already checked.

    Terminal values are the payoffs at the N+1 terminal spots; each
    earlier node is the discounted risk-neutral expectation of its two
    successors, floored at intrinsic value for American exercise. The m
    rows lie node-major in one flat buffer: node j of row r sits at
    j*m + r, so step i's live nodes are exactly its first (i+1)*m
    entries, a node's up successor lies m entries past its down one, and
    a step is five elementwise operations however many rows there are.
    Each node carries its row's coefficients, tiled with period m, and a
    European row's floor is -inf.

    The buffers and views are this thread's plan for (N, m). Every entry
    a step reads is written earlier in the same call: the terminal values,
    the coefficients and, when any row is American, both floors are
    refilled in full before the first step, and each step reads only what
    the step before it wrote. Steps 0 to min(2, N) are copied out of the
    plan as they pass, and row r's nodes at a step are every m-th entry
    from r.
    """
    m = len(rows)
    plan = _plan(n, m)

    # One power and payoff table per row serves every step: the spot at
    # node j of step i is S * u^(2j - i), i.e. column n - i + 2j. A step
    # reads columns of one parity only, so the table is split by column
    # parity and laid out node-major, and each step's floor is one slice.
    intrinsic = np.empty((m, 2 * n + 1))
    for r, inputs in enumerate(rows):
        powers = inputs.spot * params[r][1] ** plan.exponents
        _payoff_array(powers, inputs.strike, inputs.contract_type, intrinsic[r])
    # Step n's values are the payoffs in the even columns.
    plan.terminal.reshape(n + 1, m)[:] = intrinsic[:, ::2].T
    european = [
        r for r, inputs in enumerate(rows) if inputs.exercise is not Exercise.AMERICAN
    ]
    american = len(european) < m
    if american:
        for r in european:
            intrinsic[r] = -math.inf
        even, odd = plan.floors
        even.reshape(n + 1, m)[:] = intrinsic[:, ::2].T
        odd.reshape(n, m)[:] = intrinsic[:, 1::2].T
    plan.coefficients.reshape(3, n, m)[:] = np.array(
        [(q, 1.0 - q, disc) for *_, q, disc in params]
    ).T[:, None]

    # The down branch is scaled in place in the step it feeds.
    levels = [None] * (min(n, RETAINED_STEP) + 1)
    if n <= RETAINED_STEP:
        levels[n] = plan.terminal.copy()
    i = n
    for up, q_up, head, down, q_down, discount, floor in plan.steps:
        i -= 1
        np.multiply(up, q_up, out=head)
        down *= q_down
        head += down
        head *= discount
        if american:
            np.maximum(head, floor, out=head)
        if i <= RETAINED_STEP:
            levels[i] = head.copy()

    return [
        Lattice(n, *params[r], [level[r::m] for level in levels], inputs)
        for r, inputs in enumerate(rows)
    ]


def build_lattice(inputs: PricingInputs) -> Lattice:
    """Solve one tree: build_lattices of the one row, raising its error."""
    (result,) = build_lattices([inputs])
    if isinstance(result, DegenerateProbability):
        raise result
    return result


def price_option(inputs: PricingInputs) -> float:
    """Root lattice value."""
    return build_lattice(inputs).root_value


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
