"""Bar-by-bar strategy simulation over realized option returns.

All runners share one accounting engine: a book of per-contract weights
plus a cash residual, compounded multiplicatively and drifted between
decisions (buy-and-hold within a rebalance interval). A contract with
no return at a bar is parked in cash for that bar, which is also how
delisted contracts unwind. Weight decisions are made with information
strictly before the return row they first apply to.

Long-short books are collateralized: the contract legs sum to zero and
a unit cash position carries the budget, so every recorded weight
vector sums to one.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ChainOptError,
    CurveTooShort,
    DimensionMismatch,
    InvalidConfig,
    NonPositiveMid,
)
from .market_data import YEAR_SECONDS, ReportEntry, atomic_write, write_table
from .optimizer import (
    CASH_ID,
    DEFAULT_RISK_AVERSION,
    PortfolioConstraints,
    WeightVector,
    estimate_moments,
    solve,
    solve_box_constrained,
)
from .universe import Universe

logger = logging.getLogger(__name__)

DEFAULT_ESTIMATION_WINDOW = 30


@dataclass(frozen=True)
class ReturnMatrix:
    """Simple returns r[t, i] = mid[t, i]/mid[t-1, i] - 1, one row per bar
    after the first. ``start`` is the seed bar's timestamp; NaN marks a
    bar where the contract had no usable mid."""

    start: datetime
    timestamps: tuple[datetime, ...]
    ids: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.returns, dtype=float)
        if data.ndim != 2 or data.shape != (len(self.timestamps), len(self.ids)):
            raise DimensionMismatch(
                f"returns shape {data.shape} does not match "
                f"{len(self.timestamps)} bars x {len(self.ids)} contracts"
            )
        previous = self.start
        for ts in self.timestamps:
            if ts <= previous:
                raise InvalidConfig("timestamps must be strictly increasing")
            previous = ts
        finite = data[np.isfinite(data)]
        if finite.size and finite.min() <= -1.0:
            raise InvalidConfig("returns must stay above -1 (prices positive)")
        object.__setattr__(self, "returns", data)

    @property
    def n_bars(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class SummaryMetrics:
    cumulative_return: float
    annualized_volatility: float
    sharpe: float | None
    max_drawdown: float

    def as_dict(self) -> dict:
        return {
            "cumulative_return": self.cumulative_return,
            "annualized_volatility": self.annualized_volatility,
            "sharpe": self.sharpe,
            "max_drawdown": self.max_drawdown,
        }


@dataclass(frozen=True)
class BacktestReport:
    """Equity curve, weight decisions, metrics, and the resolved config."""

    timestamps: tuple[datetime, ...]
    equity_curve: tuple[float, ...]
    weights_history: tuple[tuple[datetime, WeightVector], ...]
    metrics: SummaryMetrics
    events: tuple[str, ...]
    config_echo: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.equity_curve):
            raise DimensionMismatch("one timestamp per equity point required")
        if not self.equity_curve or self.equity_curve[0] != 1.0:
            raise InvalidConfig("equity curve must start at 1.0")
        if min(self.equity_curve) <= 0.0:
            raise InvalidConfig("equity must stay strictly positive")
        if not 0.0 <= self.metrics.max_drawdown <= 1.0:
            raise InvalidConfig("max drawdown must lie in [0, 1]")


# ---------------------------------------------------------------------------
# returns


def compute_returns(
    mids: Mapping[str, Sequence[float | None]],
    timeline: Sequence[datetime],
) -> tuple[ReturnMatrix, list[ReportEntry]]:
    """Build the return matrix from aligned mid series.

    Contract ids are sorted for a deterministic column order. A missing
    mid voids the returns on both adjacent bars (reported as gaps); a
    zero or negative mid is an error.
    """
    if len(timeline) < 2:
        raise InvalidConfig("timeline needs at least two bars to form returns")
    ids = tuple(sorted(mids))
    if not ids:
        raise InvalidConfig("no contracts supplied")
    columns = []
    for ric in ids:
        series = mids[ric]
        if len(series) != len(timeline):
            raise DimensionMismatch(
                f"{ric}: {len(series)} mids for {len(timeline)} bars"
            )
        values = []
        for mid in series:
            if mid is None or (isinstance(mid, float) and math.isnan(mid)):
                values.append(math.nan)
            elif mid <= 0.0:
                raise NonPositiveMid(f"{ric}: mid {mid} is not positive")
            else:
                values.append(float(mid))
        columns.append(values)

    gaps: list[ReportEntry] = []
    rows = np.full((len(timeline) - 1, len(ids)), np.nan)
    for j, ric in enumerate(ids):
        series = columns[j]
        for t in range(1, len(timeline)):
            if math.isnan(series[t]) or math.isnan(series[t - 1]):
                gaps.append(
                    ReportEntry(
                        ric=ric,
                        reason="gap",
                        detail=f"no return at {timeline[t].isoformat()}",
                    )
                )
            else:
                rows[t - 1, j] = series[t] / series[t - 1] - 1.0
    matrix = ReturnMatrix(
        start=timeline[0],
        timestamps=tuple(timeline[1:]),
        ids=ids,
        returns=rows,
    )
    return matrix, gaps


# ---------------------------------------------------------------------------
# metrics


def summarize(
    equity_curve: Sequence[float],
    bar_interval_seconds: float,
    riskfree_annual: float = 0.0,
) -> SummaryMetrics:
    """Cumulative return, annualized vol and Sharpe, max drawdown.

    A flat curve has zero volatility; its Sharpe ratio is undefined and
    reported as absent.
    """
    if len(equity_curve) < 2:
        raise CurveTooShort(f"need at least 2 equity points, got {len(equity_curve)}")
    curve = np.asarray(equity_curve, dtype=float)
    bar_returns = curve[1:] / curve[:-1] - 1.0
    bars_per_year = YEAR_SECONDS / bar_interval_seconds

    cumulative = float(curve[-1] / curve[0] - 1.0)
    if bar_returns.size >= 2:
        volatility = float(bar_returns.std(ddof=1) * np.sqrt(bars_per_year))
    else:
        volatility = 0.0
    annual_mean = float(bar_returns.mean() * bars_per_year)
    sharpe = (annual_mean - riskfree_annual) / volatility if volatility > 0.0 else None

    peaks = np.maximum.accumulate(curve)
    drawdown = float(np.max((peaks - curve) / peaks))
    return SummaryMetrics(
        cumulative_return=cumulative,
        annualized_volatility=volatility,
        sharpe=sharpe,
        max_drawdown=drawdown,
    )


# ---------------------------------------------------------------------------
# engine

# Decision callback: called before applying return row i; returns new
# weights, or None to keep the current book.
_Decide = Callable[[int, datetime], WeightVector | None]


def _run_engine(
    matrix: ReturnMatrix,
    decide: _Decide,
    config_echo: dict,
    cash_rate_per_bar: float = 0.0,
    events: list[str] | None = None,
) -> BacktestReport:
    if matrix.n_bars == 0:
        raise CurveTooShort("return matrix has no rows")
    if events is None:
        events = []
    column = {ric: j for j, ric in enumerate(matrix.ids)}
    weights: dict[str, float] = {}
    cash = 1.0
    equity = [1.0]
    history: list[tuple[datetime, WeightVector]] = []

    for i, ts in enumerate(matrix.timestamps):
        decision = decide(i, ts)
        if decision is not None:
            weights = {}
            for ric, weight in zip(decision.universe, decision.weights):
                if ric == CASH_ID:
                    continue
                if ric not in column:
                    raise InvalidConfig(f"{ric} is not in the return matrix")
                weights[ric] = weights.get(ric, 0.0) + weight
            cash = 1.0 - sum(weights.values())
            history.append((ts, decision))

        row = matrix.returns[i]
        growth = {}
        portfolio_return = cash * cash_rate_per_bar
        for ric, weight in weights.items():
            value = row[column[ric]]
            bar_return = 0.0 if math.isnan(value) else float(value)
            growth[ric] = 1.0 + bar_return
            portfolio_return += weight * bar_return
        scale = 1.0 + portfolio_return
        if scale <= 0.0:
            raise ChainOptError(
                f"portfolio return {portfolio_return:.6f} at "
                f"{ts.isoformat()} wipes out the equity"
            )
        equity.append(equity[-1] * scale)
        weights = {ric: w * growth[ric] / scale for ric, w in weights.items()}
        cash = cash * (1.0 + cash_rate_per_bar) / scale

    bar_seconds = (matrix.timestamps[0] - matrix.start).total_seconds()
    metrics = summarize(equity, bar_seconds)
    return BacktestReport(
        timestamps=(matrix.start,) + matrix.timestamps,
        equity_curve=tuple(equity),
        weights_history=tuple(history),
        metrics=metrics,
        events=tuple(events),
        config_echo=config_echo,
    )


# ---------------------------------------------------------------------------
# strategies


def _universe_for(universes: Mapping[datetime, Universe], ts: datetime) -> Universe:
    if ts not in universes:
        raise InvalidConfig(f"no universe supplied for bar {ts.isoformat()}")
    return universes[ts]


def run_long_short(
    universes: Mapping[datetime, Universe],
    returns: ReturnMatrix,
) -> BacktestReport:
    """+1/(2k) on each top contract, -1/(2k) on each bottom, every bar.

    Gross exposure 1, net 0, carried on a unit cash position.
    """

    def decide(i: int, ts: datetime) -> WeightVector:
        universe = _universe_for(universes, ts)
        k = len(universe.top)
        size = 1.0 / (2.0 * k)
        rics = universe.top + universe.bottom + (CASH_ID,)
        values = (size,) * k + (-size,) * k + (1.0,)
        return WeightVector(weights=values, universe=rics, objective_value=0.0)

    return _run_engine(returns, decide, {"strategy": "long_short"})


def _run_box_strategy(
    returns: ReturnMatrix,
    members_for: Callable[[datetime], tuple[str, ...]],
    constraints: PortfolioConstraints | None,
    rebalance_every: int,
    estimation_window: int,
    risk_aversion: float,
    ivs_for: Callable[[datetime], Mapping[str, float]] | None,
    echo_head: dict,
) -> BacktestReport:
    """Shared body of run_dynamic and the static box run: trailing-window
    moments into the box-constrained solver at each rebalance bar, held
    book on solver failure. ivs_for gives the implied vols the IV cap
    uses at a bar; None leaves the cap out of the solve. The config echo
    is echo_head followed by the window, the risk aversion and the box."""
    if rebalance_every < 1:
        raise InvalidConfig(f"rebalance_every must be >= 1, got {rebalance_every}")
    if estimation_window < 2:
        raise InvalidConfig(
            f"estimation_window must be >= 2, got {estimation_window}"
        )
    box = constraints if constraints is not None else PortfolioConstraints()
    echo = {
        **echo_head,
        "estimation_window": estimation_window,
        "risk_aversion": risk_aversion,
        "lower": box.lower,
        "upper": box.upper,
        "iv_cap": box.iv_cap,
    }
    column = {ric: j for j, ric in enumerate(returns.ids)}
    events: list[str] = []

    def decide(i: int, ts: datetime) -> WeightVector | None:
        if i < estimation_window or (i - estimation_window) % rebalance_every != 0:
            return None
        members = members_for(ts)
        missing = [ric for ric in members if ric not in column]
        if missing:
            raise InvalidConfig(f"{missing[0]} is not in the return matrix")
        member_ivs = None
        if ivs_for is not None:
            known = ivs_for(ts)
            absent = [ric for ric in members if ric not in known]
            if absent:
                raise InvalidConfig(f"no implied vol for {absent[0]} at {ts.isoformat()}")
            member_ivs = [known[ric] for ric in members]
        cols = [column[ric] for ric in members]
        window_rows = returns.returns[i - estimation_window : i, cols]
        try:
            moments = estimate_moments(window_rows, estimation_window)
            return solve_box_constrained(
                moments,
                box,
                ivs=member_ivs,
                risk_aversion=risk_aversion,
                universe=members,
            )
        except ChainOptError as exc:
            event = (
                f"{ts.isoformat()} rebalance failed, holding previous weights: "
                f"{type(exc).__name__}: {exc}"
            )
            events.append(event)
            logger.warning("%s", event)
            return None

    return _run_engine(returns, decide, echo, events=events)


def run_dynamic(
    universes: Mapping[datetime, Universe],
    returns: ReturnMatrix,
    constraints: PortfolioConstraints | None = None,
    rebalance_every: int = 1,
    estimation_window: int = DEFAULT_ESTIMATION_WINDOW,
    risk_aversion: float = DEFAULT_RISK_AVERSION,
    ivs: Mapping[datetime, Mapping[str, float]] | None = None,
) -> BacktestReport:
    """Box-constrained solve on a trailing window at each rebalance bar.

    The tradable set is the union of the bar's top and bottom
    selections, sorted for determinism. Weights drift between
    rebalances. A failed solve keeps the previous book and logs the
    event; the first bars stay in cash until one estimation window of
    history exists. With an IV cap, ivs maps each bar, like universes,
    to the implied vols of (at least) that bar's members.
    """

    def members_for(ts: datetime) -> tuple[str, ...]:
        universe = _universe_for(universes, ts)
        return tuple(sorted(universe.top + universe.bottom))

    return _run_box_strategy(
        returns,
        members_for,
        constraints,
        rebalance_every,
        estimation_window,
        risk_aversion,
        None if ivs is None else (lambda ts: ivs.get(ts, {})),
        {"strategy": "dynamic", "rebalance_every": rebalance_every},
    )


def run_static(
    returns: ReturnMatrix,
    optimizer_kind: str,
    target_return: float | None = None,
    riskfree: float = 0.0,
    shrinkage_intensity: float = 0.2,
    uncertainty: float = 0.1,
    estimation_window: int | None = None,
) -> BacktestReport:
    """One solve, weights drifting across the whole horizon.

    The closed-form kinds (markowitz, riskfree, shrinkage, robust)
    estimate moments in-sample over the first estimation_window rows
    (default: the full horizon) and trade every contract from bar 0,
    shorts included. Kind "box" is the degenerate dynamic run over the
    full contract set in the default box, with no IV cap: it waits out
    one estimation window, solves once, and never rebalances, making it
    bar-for-bar identical to a dynamic run with a single rebalance. The
    target return defaults to the in-sample mean of the equal-weight
    portfolio; solver failures propagate, and optimizer.solve rejects an
    unknown kind.
    """
    if optimizer_kind == "box":
        return _run_box_strategy(
            returns,
            lambda ts: returns.ids,
            None,
            max(returns.n_bars, 1),
            estimation_window
            if estimation_window is not None
            else DEFAULT_ESTIMATION_WINDOW,
            DEFAULT_RISK_AVERSION,
            None,
            {"strategy": "box"},
        )

    window = estimation_window if estimation_window is not None else returns.n_bars
    if window < 2:
        raise InvalidConfig(f"estimation window must be >= 2, got {window}")
    if window > returns.n_bars:
        raise InvalidConfig(
            f"estimation window {window} exceeds {returns.n_bars} return rows"
        )
    sample = returns.returns[:window]
    moments = estimate_moments(sample, window)
    target = target_return if target_return is not None else float(sample.mean())
    decision = solve(
        optimizer_kind,
        moments,
        target,
        returns.ids,
        riskfree=riskfree,
        shrinkage_intensity=shrinkage_intensity,
        uncertainty=uncertainty,
    )

    def decide(i: int, ts: datetime) -> WeightVector | None:
        return decision if i == 0 else None

    echo = {
        "strategy": optimizer_kind,
        "target_return": target,
        "estimation_window": window,
        "riskfree": riskfree,
        "shrinkage_intensity": shrinkage_intensity,
        "uncertainty": uncertainty,
    }
    cash_rate = riskfree if optimizer_kind == "riskfree" else 0.0
    return _run_engine(returns, decide, echo, cash_rate_per_bar=cash_rate)


# ---------------------------------------------------------------------------
# report bundle


def write_report_bundle(report: BacktestReport, out_dir: str) -> None:
    """Write report.json, equity.csv, weights.csv, and events.log.

    Cash positions are implicit in weights.csv (the residual to 1);
    only contract rows are written. All files are written atomically.
    Everything except report.json's generated_at field is a pure
    function of the run.
    """
    os.makedirs(out_dir, exist_ok=True)

    payload = {
        "metrics": report.metrics.as_dict(),
        "config": dict(report.config_echo),
        "events": list(report.events),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    texts = {
        "report.json": json.dumps(payload, indent=2) + "\n",
        "events.log": "".join(line + "\n" for line in report.events),
    }
    equity_rows = (
        [ts.isoformat(), repr(value)]
        for ts, value in zip(report.timestamps, report.equity_curve)
    )
    weight_rows = (
        [ts.isoformat(), ric, repr(weight)]
        for ts, decision in report.weights_history
        for ric, weight in zip(decision.universe, decision.weights)
        if ric != CASH_ID
    )
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        atomic_write(path, lambda temp, text=text: Path(temp).write_text(text))
    write_table(os.path.join(out_dir, "equity.csv"), ["timestamp", "equity"], equity_rows)
    write_table(
        os.path.join(out_dir, "weights.csv"), ["timestamp", "ric", "weight"], weight_rows
    )
