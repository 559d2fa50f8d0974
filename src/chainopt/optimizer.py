"""Return-moment estimation and portfolio weight solvers.

Five weight problems share the budget constraint sum(w) = 1:

* Markowitz: minimum variance at a target mean, closed form, shorts
  allowed.
* Risk-free blend: tangency direction plus cash, scaled to the target.
* Shrinkage: Markowitz on a covariance pulled toward the scaled
  identity.
* Robust: worst-case mean inside an ellipsoid of radius kappa; the
  stationarity fixed point is solved iteratively and reduces to the
  Markowitz solution when the radius cannot bound the excess-return
  spread (kappa = 0 in particular).
* Box-constrained mean-variance utility with optional portfolio-IV
  cap, solved by projected gradient ascent from the feasible centroid.

Covariances are regularized with a relative ridge before inversion;
matrices still ill-conditioned after that are rejected rather than
inverted into noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ChainOptError,
    DegenerateWindow,
    DimensionMismatch,
    InfeasibleConstraints,
    InfeasibleIvCap,
    InvalidConfig,
    InvalidIntensity,
    NoExcessReturn,
    SingularCovariance,
    WindowTooLarge,
)

logger = logging.getLogger(__name__)

# Ridge added before inversion, relative to the mean diagonal scale.
RIDGE_SCALE = 1e-8
# Condition-number ceiling after the ridge; beyond it the ridge term
# dominates the small eigenvalues and any inverse is noise.
CONDITION_LIMIT = 1e8
KKT_TOLERANCE = 1e-6
BUDGET_TOLERANCE = 1e-8
DEFAULT_SHRINKAGE = 0.2
DEFAULT_UNCERTAINTY = 0.1
DEFAULT_RISK_AVERSION = 1.0
CASH_ID = "CASH"

# Every weight problem solve() dispatches; the CLI and the backtest take
# their strategy names from this list.
KINDS = ("markowitz", "riskfree", "shrinkage", "robust", "box")

_MAX_PGD_ITERATIONS = 200_000


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Sample mean vector and covariance matrix over one window."""

    mean: np.ndarray
    covariance: np.ndarray
    window: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match {n} assets"
            )
        if self.window < 2:
            raise DegenerateWindow(f"window must be >= 2, got {self.window}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise InvalidConfig("covariance must be symmetric")
        if n and np.linalg.eigvalsh(cov).min() < -1e-10:
            raise InvalidConfig("covariance must be PSD within tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_assets(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PortfolioConstraints:
    """Budget plus per-asset box, with an optional portfolio-IV cap."""

    lower: float = 0.01
    upper: float = 0.40
    iv_cap: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower < self.upper:
            raise InvalidConfig(
                f"need 0 <= lower < upper, got [{self.lower}, {self.upper}]"
            )
        if self.iv_cap is not None and self.iv_cap <= 0.0:
            raise InvalidConfig(f"iv_cap must be > 0, got {self.iv_cap}")

    def check_feasible(self, n: int) -> None:
        if n * self.lower > 1.0 or n * self.upper < 1.0:
            raise InfeasibleConstraints(
                f"{n} assets in [{self.lower}, {self.upper}] cannot sum to 1"
            )


@dataclass(frozen=True)
class WeightVector:
    """Solved weights over an ordered universe."""

    weights: tuple[float, ...]
    universe: tuple[str, ...]
    objective_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != len(self.universe):
            raise DimensionMismatch(
                f"{len(self.weights)} weights for {len(self.universe)} ids"
            )
        total = sum(self.weights)
        if abs(total - 1.0) > BUDGET_TOLERANCE:
            raise InvalidConfig(f"weights must sum to 1, got {total!r}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def _default_universe(n: int) -> tuple[str, ...]:
    return tuple(f"asset{i}" for i in range(n))


# ---------------------------------------------------------------------------
# moments


def estimate_moments(returns: np.ndarray, window: int) -> MomentEstimate:
    """Trailing-window sample mean and covariance (denominator window-1)."""
    data = np.asarray(returns, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[1] < 1:
        raise DimensionMismatch(f"returns must be T x n, got shape {data.shape}")
    if window < 2:
        raise DegenerateWindow(f"window must be >= 2, got {window}")
    if window > data.shape[0]:
        raise WindowTooLarge(
            f"window {window} exceeds {data.shape[0]} available observations"
        )
    tail = data[-window:]
    if not np.all(np.isfinite(tail)):
        raise InvalidConfig("estimation window contains absent or non-finite returns")
    mean = tail.mean(axis=0)
    cov = np.atleast_2d(np.cov(tail, rowvar=False, ddof=1))
    return MomentEstimate(mean=mean, covariance=cov, window=window)


def shrink_covariance(covariance: np.ndarray, intensity: float = DEFAULT_SHRINKAGE) -> np.ndarray:
    """Convex blend (1-d)*S + d*(tr(S)/n)*I toward the scaled identity."""
    if not 0.0 <= intensity <= 1.0:
        raise InvalidIntensity(f"intensity must be in [0, 1], got {intensity}")
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise InvalidConfig("covariance must be symmetric")
    n = cov.shape[0]
    target = (np.trace(cov) / n) * np.eye(n)
    shrunk = (1.0 - intensity) * cov + intensity * target
    return 0.5 * (shrunk + shrunk.T)


# ---------------------------------------------------------------------------
# linear-algebra plumbing


def _inverse(covariance: np.ndarray) -> np.ndarray:
    """Invert after the relative ridge; reject effectively singular input."""
    n = covariance.shape[0]
    ridge = RIDGE_SCALE * (np.trace(covariance) / n)
    regularized = covariance + ridge * np.eye(n)
    if not np.all(np.isfinite(regularized)):
        raise SingularCovariance("covariance contains non-finite entries")
    condition = np.linalg.cond(regularized)
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularCovariance(
            f"covariance condition number {condition:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    return np.linalg.inv(regularized)


def _frontier_scalars(
    inverse: np.ndarray, mean: np.ndarray
) -> tuple[float, float, float, float]:
    ones = np.ones(mean.shape[0])
    a = float(ones @ inverse @ ones)
    b = float(ones @ inverse @ mean)
    c = float(mean @ inverse @ mean)
    return a, b, c, a * c - b * b


# ---------------------------------------------------------------------------
# closed-form solvers


def solve_markowitz(
    moments: MomentEstimate,
    target_return: float,
    universe: Sequence[str] | None = None,
) -> WeightVector:
    """Minimum variance at a target mean: budget and mean equalities only.

    When every asset shares one mean the frontier collapses to a point;
    the minimum-variance portfolio is returned if the target sits on
    that point and the problem is rejected otherwise.
    """
    inverse = _inverse(moments.covariance)
    mean = moments.mean
    a, b, c, d = _frontier_scalars(inverse, mean)
    ones = np.ones(moments.n_assets)
    if d <= max(a * c, 1.0) * 1e-12:
        attainable = b / a
        if abs(target_return - attainable) <= 1e-9 * (1.0 + abs(attainable)):
            weights = inverse @ ones / a
        else:
            raise SingularCovariance(
                "degenerate frontier: all assets share one mean and the target "
                f"{target_return} differs from it"
            )
    else:
        lam = (c - b * target_return) / d
        gam = (a * target_return - b) / d
        weights = lam * (inverse @ ones) + gam * (inverse @ mean)
    variance = float(weights @ moments.covariance @ weights)
    ids = tuple(universe) if universe is not None else _default_universe(moments.n_assets)
    return WeightVector(weights=tuple(weights), universe=ids, objective_value=variance)


def solve_with_riskfree(
    moments: MomentEstimate,
    riskfree: float,
    target_return: float,
    universe: Sequence[str] | None = None,
) -> WeightVector:
    """Tangency direction scaled to the target, remainder in cash.

    The returned universe gains a trailing cash entry; the objective
    value is the variance of the risky sleeve.
    """
    mean = moments.mean
    excess = mean - riskfree
    if np.max(np.abs(excess)) <= 1e-12 * (1.0 + abs(riskfree)):
        raise NoExcessReturn("every asset's mean equals the risk-free return")
    inverse = _inverse(moments.covariance)
    direction = inverse @ excess
    spread = float(excess @ direction)
    if spread <= 0.0:
        raise NoExcessReturn("excess returns carry no attainable premium")
    scale = (target_return - riskfree) / spread
    risky = scale * direction
    cash = 1.0 - float(risky.sum())
    variance = float(risky @ moments.covariance @ risky)
    ids = tuple(universe) if universe is not None else _default_universe(moments.n_assets)
    return WeightVector(
        weights=tuple(risky) + (cash,),
        universe=ids + (CASH_ID,),
        objective_value=variance,
    )


def solve_robust(
    moments: MomentEstimate,
    uncertainty: float = DEFAULT_UNCERTAINTY,
    target_return: float = 0.0,
    universe: Sequence[str] | None = None,
) -> WeightVector:
    """Worst-case mean-variance under an ellipsoidal mean set.

    Maximizes mu.w - kappa*sqrt(w.S.w) subject to the budget. The
    stationary point has the form w_mv + t*g; t solves a scalar fixed
    point iterated to convergence. That point exists only when kappa
    exceeds the excess-return spread s; otherwise the objective is
    unbounded along g and the target-pinned Markowitz problem is solved
    instead (kappa = 0 lands here, recovering the non-robust solution).
    """
    if uncertainty < 0.0:
        raise InvalidConfig(f"uncertainty radius must be >= 0, got {uncertainty}")
    inverse = _inverse(moments.covariance)
    mean = moments.mean
    a, b, c, _ = _frontier_scalars(inverse, mean)
    ones = np.ones(moments.n_assets)
    spread_sq = max(c - b * b / a, 0.0)
    if uncertainty * uncertainty <= spread_sq or uncertainty == 0.0:
        return solve_markowitz(moments, target_return, universe=universe)

    w_mv = inverse @ ones / a
    g = inverse @ (mean - (b / a) * ones)
    # Fixed point t = sqrt(1/A + t^2 s^2)/kappa; start at its algebraic
    # root and polish, so near-critical radii cost no extra iterations.
    t = 1.0 / np.sqrt(a * (uncertainty * uncertainty - spread_sq))
    for _ in range(200):
        t_next = np.sqrt(1.0 / a + t * t * spread_sq) / uncertainty
        if abs(t_next - t) <= 1e-15 * (1.0 + abs(t_next)):
            t = t_next
            break
        t = t_next
    weights = w_mv + t * g
    objective = float(
        mean @ weights - uncertainty * np.sqrt(weights @ moments.covariance @ weights)
    )
    ids = tuple(universe) if universe is not None else _default_universe(moments.n_assets)
    return WeightVector(weights=tuple(weights), universe=ids, objective_value=objective)


# ---------------------------------------------------------------------------
# box-constrained solver


def _project(
    y: np.ndarray,
    lower: float,
    upper: float,
    ivs: np.ndarray | None,
    cap: float | None,
) -> np.ndarray:
    """Project y onto {lower <= w <= upper, sum(w) = 1, ivs.w <= cap}.

    The projection is clip(z - nu, lower, upper) with z = y - mu*ivs.
    Since nu absorbs any constant, z is formed from the IVs above the
    lowest, which keeps y from cancelling when near-tied IVs drive mu to
    about reach/gap. For a fixed mu the budget sum is piecewise linear
    and non-increasing in nu, with kinks at z - upper and z - lower, so
    nu is interpolated exactly on the segment that crosses 1 (Held, Wolfe
    and Crowder 1974; Condat 2016). The portfolio IV falls monotonically
    in mu >= 0: mu is 0 when the cap is slack or absent, and otherwise
    the smallest mu meeting the cap, bisected to float resolution.
    """

    def fill(z: np.ndarray) -> np.ndarray:
        kinks = np.sort(np.concatenate((z - upper, z - lower)))
        totals = np.clip(z - kinks[:, None], lower, upper).sum(axis=1)
        k = min(max(int(np.count_nonzero(totals >= 1.0)) - 1, 0), kinks.size - 2)
        drop = totals[k] - totals[k + 1]
        nu = kinks[k]
        if drop > 0.0:
            nu += (totals[k] - 1.0) / drop * (kinks[k + 1] - kinks[k])
        return np.clip(z - nu, lower, upper)

    weights = fill(y)
    if cap is None or ivs @ weights <= cap:
        return weights
    # Once mu*(iv_j - iv_i) >= y_j - y_i + (upper - lower) for every pair
    # with iv_i < iv_j, a lower-IV member is at upper before a higher one
    # leaves lower: the weights are the greedy fill of
    # minimum_attainable_iv, so no larger mu changes the portfolio IV.
    gaps = ivs[None, :] - ivs[:, None]
    reach = y[None, :] - y[:, None] + (upper - lower)
    lo, hi = 0.0, float(np.max(reach[gaps > 0.0] / gaps[gaps > 0.0], initial=0.0))
    excess = ivs - ivs.min()
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if ivs @ fill(y - mid * excess) <= cap:
            hi = mid
        else:
            lo = mid
    return fill(y - hi * excess)


def minimum_attainable_iv(
    constraints: PortfolioConstraints, ivs: np.ndarray
) -> float:
    """Smallest portfolio IV over the box-budget polytope (greedy fill)."""
    n = ivs.shape[0]
    weights = np.full(n, constraints.lower)
    budget = 1.0 - weights.sum()
    for index in np.argsort(ivs, kind="stable"):
        room = constraints.upper - constraints.lower
        take = min(room, budget)
        weights[index] += take
        budget -= take
        if budget <= 1e-15:
            break
    return float(ivs @ weights)


def solve_box_constrained(
    moments: MomentEstimate,
    constraints: PortfolioConstraints,
    ivs: Sequence[float] | None = None,
    risk_aversion: float = DEFAULT_RISK_AVERSION,
    universe: Sequence[str] | None = None,
) -> WeightVector:
    """Maximize mu.w - lambda*w.S.w over the box-budget polytope.

    Optionally enforces ivs.w <= iv_cap. Projected gradient ascent with
    step 1/L from the feasible centroid, stopping when the step-1
    projected-gradient residual is at most KKT_TOLERANCE.
    """
    if risk_aversion < 0.0:
        raise InvalidConfig(f"risk_aversion must be >= 0, got {risk_aversion}")
    n = moments.n_assets
    constraints.check_feasible(n)

    if (ivs is None) != (constraints.iv_cap is None):
        raise InvalidConfig("per-asset ivs and iv_cap must be provided together")
    iv_array: np.ndarray | None = None
    if ivs is not None:
        iv_array = np.asarray(ivs, dtype=float)
        if iv_array.shape != (n,):
            raise DimensionMismatch(f"expected {n} ivs, got shape {iv_array.shape}")
        if np.any(iv_array < 0.0):
            raise InvalidConfig("per-asset ivs must be >= 0")
        floor = minimum_attainable_iv(constraints, iv_array)
        if floor > constraints.iv_cap + 1e-12:
            raise InfeasibleIvCap(
                f"minimum attainable portfolio IV {floor:.6f} exceeds cap "
                f"{constraints.iv_cap:.6f}"
            )

    mean = moments.mean
    cov = moments.covariance
    bounds = (constraints.lower, constraints.upper, iv_array, constraints.iv_cap)

    lipschitz = 2.0 * risk_aversion * float(np.linalg.norm(cov, 2))
    step = 1.0 / max(lipschitz, 1e-12)
    weights = _project(np.full(n, 1.0 / n), *bounds)

    def gradient(w: np.ndarray) -> np.ndarray:
        return mean - 2.0 * risk_aversion * (cov @ w)

    converged = False
    for iteration in range(_MAX_PGD_ITERATIONS):
        grad = gradient(weights)
        residual = float(np.max(np.abs(weights - _project(weights + grad, *bounds))))
        if residual <= KKT_TOLERANCE:
            converged = True
            break
        weights = _project(weights + step * grad, *bounds)
    if not converged:
        raise ChainOptError(
            f"projected gradient did not reach KKT residual {KKT_TOLERANCE} "
            f"within {_MAX_PGD_ITERATIONS} iterations"
        )
    logger.debug("box solve converged after %d iterations", iteration)

    objective = float(mean @ weights - risk_aversion * (weights @ cov @ weights))
    ids = tuple(universe) if universe is not None else _default_universe(n)
    return WeightVector(weights=tuple(weights), universe=ids, objective_value=objective)


# ---------------------------------------------------------------------------
# dispatch


def solve(
    kind: str,
    moments: MomentEstimate,
    target_return: float,
    universe: Sequence[str] | None = None,
    *,
    riskfree: float = 0.0,
    shrinkage_intensity: float = DEFAULT_SHRINKAGE,
    uncertainty: float = DEFAULT_UNCERTAINTY,
    constraints: PortfolioConstraints = PortfolioConstraints(),
    ivs: Sequence[float] | None = None,
    risk_aversion: float = DEFAULT_RISK_AVERSION,
) -> WeightVector:
    """Solve the weight problem named by ``kind`` (one of KINDS).

    Each kind reads only its own solver's parameters; box ignores the
    target return.
    """
    if kind == "markowitz":
        return solve_markowitz(moments, target_return, universe=universe)
    if kind == "shrinkage":
        shrunk = MomentEstimate(
            mean=moments.mean,
            covariance=shrink_covariance(moments.covariance, shrinkage_intensity),
            window=moments.window,
        )
        return solve_markowitz(shrunk, target_return, universe=universe)
    if kind == "robust":
        return solve_robust(
            moments, uncertainty=uncertainty, target_return=target_return, universe=universe
        )
    if kind == "riskfree":
        return solve_with_riskfree(moments, riskfree, target_return, universe=universe)
    if kind == "box":
        return solve_box_constrained(
            moments, constraints, ivs=ivs, risk_aversion=risk_aversion, universe=universe
        )
    raise InvalidConfig(
        f"unknown optimizer kind {kind!r}; expected one of " + ", ".join(KINDS)
    )
