"""Batch command-line surface for the option-chain pipeline.

One flat key-value config file drives every command; the common flags
(--config, --out, --seed) plus repeatable --set key=value overrides win
over file values. Commands never mutate their inputs, write their
outputs atomically, and are deterministic given (inputs, config, seed).

Exit codes: 0 success, 1 validation error (an ``InputError`` or a missing
file), 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timedelta, timezone
from typing import Callable, Mapping, Sequence

import numpy as np

from .backtest import (
    DEFAULT_ESTIMATION_WINDOW,
    ReturnMatrix,
    compute_returns,
    run_dynamic,
    run_long_short,
    run_static,
    summarize,
    write_report_bundle,
)
from .errors import ArbitrageViolation, ChainOptError, InputError, InvalidConfig
from .greeks import (
    GreekSet,
    Region,
    classify_region,
    delta_fd,
    delta_ms,
    greek_set,  # noqa: F401  (bench/trace_cli.py wraps it at this name)
    greek_sets,
)
from .implied_vol import IvSolution, SolverOptions, implied_vol, implied_vols
from .market_data import (
    EnrichedQuote,
    GeneratorConfig,
    ReportEntry,
    atomic_write,
    bucket_by_liquidity,
    enrich_records,
    generate_synthetic_chain,
    parse_option_chain,
    parse_spot_series,
    write_option_chain,
    write_report,
    write_spot_series,
    write_table,
)
from .optimizer import (
    KINDS,
    MomentEstimate,
    PortfolioConstraints,
    estimate_moments,
    solve,
    solve_box_constrained,
    solve_markowitz,
    solve_robust,
)
from .pricing import (
    ContractType,
    Exercise,
    Lattice,
    PricingInputs,
    black_scholes_price,
    build_lattices,
    price_option,
)
from .universe import (
    ContractAnalytics,
    MetricKind,
    RankingMetric,
    ScoredContract,
    Universe,
    rank_by_metric,
    select_top_bottom,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# A backtest of box would be a dynamic run that never rebalances, so
# backtest offers dynamic in its place.
BACKTEST_STRATEGIES = ("long_short", "dynamic") + tuple(k for k in KINDS if k != "box")


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation.

    Every field doubles as a config-file key. Zero means "use the
    command's default" for estimation_window and "no cap" for iv_cap.
    """

    chain_path: str | None = None
    spot_path: str | None = None
    rate: float = 0.05
    dividend_yield: float = 0.0
    steps: int = 500
    sigma: float = 0.2
    exercise: str = "american"
    price_tolerance: float = 1e-6
    step_tolerance: float = 1e-8
    max_iterations: int = 100
    metric: str = "iv"
    components: str = ""
    absolute: bool = False
    k: int = 3
    strategy: str = "long_short"
    rebalance_every: int = 1
    estimation_window: int = 0
    lower: float = 0.01
    upper: float = 0.40
    iv_cap: float = 0.0
    target_return: float | None = None
    riskfree: float = 0.0
    shrinkage_intensity: float = 0.2
    uncertainty: float = 0.1
    risk_aversion: float = 1.0
    out_dir: str = "."
    seed: int = 0
    bars: int = 8
    bar_interval_seconds: int = 3600
    spot: float = 100.0
    sigma_low: float = 0.2
    sigma_high: float = 0.5
    half_spread: float = 0.0
    illiquid_fraction: float = 0.0

    def validate(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{spec.name} must be finite, got {value!r}")
        checks = (
            (self.steps >= 1, "steps must be >= 1"),
            (self.sigma > 0.0, "sigma must be > 0"),
            (
                self.exercise in ("american", "european"),
                "exercise must be american or european",
            ),
            (self.price_tolerance > 0.0, "price_tolerance must be > 0"),
            (self.step_tolerance > 0.0, "step_tolerance must be > 0"),
            (self.max_iterations >= 1, "max_iterations must be >= 1"),
            (self.k >= 1, "k must be >= 1"),
            (self.rebalance_every >= 1, "rebalance_every must be >= 1"),
            (self.estimation_window >= 0, "estimation_window must be >= 0"),
            (
                0.0 <= self.lower < self.upper,
                "lower/upper must satisfy 0 <= lower < upper",
            ),
            (self.iv_cap >= 0.0, "iv_cap must be >= 0"),
            (self.riskfree >= 0.0, "riskfree must be >= 0"),
            (
                0.0 <= self.shrinkage_intensity <= 1.0,
                "shrinkage_intensity must be in [0, 1]",
            ),
            (self.uncertainty >= 0.0, "uncertainty must be >= 0"),
            (self.risk_aversion >= 0.0, "risk_aversion must be >= 0"),
            (self.bars >= 1, "bars must be >= 1"),
            (self.bar_interval_seconds >= 1, "bar_interval_seconds must be >= 1"),
            (self.spot > 0.0, "spot must be > 0"),
            (
                0.0 < self.sigma_low <= self.sigma_high,
                "sigma_low/sigma_high must satisfy 0 < low <= high",
            ),
            (self.half_spread >= 0.0, "half_spread must be >= 0"),
            (
                0.0 <= self.illiquid_fraction <= 1.0,
                "illiquid_fraction must be in [0, 1]",
            ),
            (self.dividend_yield >= 0.0, "dividend_yield must be >= 0"),
        )
        for ok, message in checks:
            if not ok:
                raise InvalidConfig(message)


# ---------------------------------------------------------------------------
# config loading


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value file; blank lines and # comments skipped."""
    values: dict[str, str] = {}
    with open(path) as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"{path}:{number}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _convert(name: str, type_name: str, token: str):
    optional = "None" in type_name
    if optional and token.lower() in ("", "none"):
        return None
    base = type_name.replace(" | None", "")
    try:
        if base == "int":
            return int(token)
        if base == "float":
            return float(token)
        if base == "bool":
            lowered = token.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(token)
        return token
    except ValueError:
        raise InvalidConfig(f"config field {name}: cannot parse {token!r} as {base}")


def make_config(
    file_values: Mapping[str, str], overrides: Mapping[str, str]
) -> RunConfig:
    """Merge file values and flag overrides (overrides win) into a
    validated RunConfig; unknown keys are rejected by name."""
    merged = dict(file_values)
    merged.update(overrides)
    known = {spec.name: str(spec.type) for spec in fields(RunConfig)}
    kwargs = {}
    for key, token in merged.items():
        if key not in known:
            raise InvalidConfig(f"unknown config key {key!r}")
        kwargs[key] = _convert(key, known[key], token)
    config = RunConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _require_inputs(config: RunConfig) -> None:
    paths = (("chain_path", config.chain_path), ("spot_path", config.spot_path))
    for name, path in paths:
        if path is None:
            raise InvalidConfig(f"{name} is required for this command")
        if not os.path.isfile(path):
            raise InvalidConfig(f"{name}: no such file {path!r}")


def _load_quotes(config: RunConfig) -> tuple[list[EnrichedQuote], list[ReportEntry]]:
    """Parse, liquidity-screen, and enrich the configured chain.

    Returns bar-level quotes plus every exclusion accumulated along the
    way (malformed rows, liquidity-gap contracts, enrichment drops).
    """
    _require_inputs(config)
    if os.path.getsize(config.chain_path) == 0:
        raise InvalidConfig(f"no rows in {config.chain_path}")
    parsed = parse_option_chain(config.chain_path)
    if not parsed.records:
        raise InvalidConfig(f"no rows in {config.chain_path}")
    spot_series = parse_spot_series(config.spot_path)

    buckets, gap_entries = bucket_by_liquidity(parsed.records)
    kept = {ric for bucket in buckets.values() for ric in bucket.members}
    tradable = [record for record in parsed.records if record[0].ric in kept]
    quotes, dropped = enrich_records(tradable, spot_series, config.rate)
    if not quotes:
        raise InvalidConfig(f"no rows survive enrichment of {config.chain_path}")
    exclusions = list(parsed.report.entries) + gap_entries + dropped
    return quotes, exclusions


def _pricing_inputs(quote: EnrichedQuote, config: RunConfig, sigma: float) -> PricingInputs:
    return PricingInputs(
        spot=quote.spot,
        strike=quote.contract.strike,
        time_to_maturity=quote.time_to_maturity,
        rate=quote.rate,
        dividend_yield=config.dividend_yield,
        volatility=sigma,
        steps=config.steps,
        contract_type=quote.contract.contract_type,
        exercise=Exercise(config.exercise),
    )


def _solver_options(config: RunConfig) -> SolverOptions:
    return SolverOptions(
        price_tolerance=config.price_tolerance,
        step_tolerance=config.step_tolerance,
        max_iterations=config.max_iterations,
    )


def _bar_ivs(quotes: Sequence[EnrichedQuote], config: RunConfig) -> list[IvSolution | None]:
    """The IV solve of each of one bar's quotes, solved in lockstep, or None
    where its mid breaks a no-arbitrage bound."""
    solutions = implied_vols(
        [(quote.mid, _pricing_inputs(quote, config, config.sigma)) for quote in quotes],
        _solver_options(config),
    )
    return [solution if isinstance(solution, IvSolution) else None for solution in solutions]


def _bar_greeks(
    quotes: Sequence[EnrichedQuote],
    config: RunConfig,
    solutions: Sequence[IvSolution | None],
) -> list[GreekSet | ReportEntry | None]:
    """The Greeks of one bar's quotes at their converged IVs, priced in one
    greek_sets call. A quote whose Greeks cannot be priced at its IV gets
    its exclusion, named by the error's type, and an unsolved quote None."""
    converged = [
        index for index, solution in enumerate(solutions)
        if solution is not None and solution.converged
    ]
    results: list[GreekSet | ReportEntry | None] = [None] * len(quotes)
    greeks = greek_sets(
        [_pricing_inputs(quotes[i], config, solutions[i].sigma) for i in converged]
    )
    for index, result in zip(converged, greeks):
        if not isinstance(result, GreekSet):
            result = ReportEntry(quotes[index].contract.ric, type(result).__name__, str(result))
        results[index] = result
    return results


def _ranking_metric(config: RunConfig) -> RankingMetric:
    try:
        kind = MetricKind(config.metric)
    except ValueError:
        raise InvalidConfig(f"metric must be one of {[m.value for m in MetricKind]}")
    components = None
    if kind is MetricKind.COMBINED:
        try:
            components = frozenset(
                MetricKind(token.strip())
                for token in config.components.split(",")
                if token.strip()
            )
        except ValueError:
            raise InvalidConfig(f"components: cannot parse {config.components!r}")
    return RankingMetric(kind=kind, components=components, absolute=config.absolute)


def _select_bar(
    quotes: Sequence[EnrichedQuote], config: RunConfig, decision_time: datetime
) -> tuple[list[ContractAnalytics], list[ScoredContract], Universe, list[ReportEntry]]:
    """Rank one bar's quotes by the configured metric and keep the top-k
    and bottom-k. Returns the bar's analytics, the ranking, the universe
    and the skipped entries. The bar's IVs are solved in lockstep, and
    for a Greek metric its Greeks are priced in one batch. A quote
    without a converged IV keeps an analytics row with nothing in it, so
    the ranking reports it; a quote whose Greeks cannot be priced is
    left out with its own exclusion."""
    metric = _ranking_metric(config)
    solutions = _bar_ivs(quotes, config)
    if metric.kind is MetricKind.IV:
        greeks: list[GreekSet | ReportEntry | None] = [None] * len(quotes)
    else:
        greeks = _bar_greeks(quotes, config, solutions)
    snapshot, failed = [], []
    for quote, solution, result in zip(quotes, solutions, greeks):
        if isinstance(result, ReportEntry):
            failed.append(result)
            continue
        iv = solution.sigma if solution is not None and solution.converged else None
        values = ()
        if result is not None:
            values = (result.delta, result.gamma, result.theta, result.vega, result.rho)
        snapshot.append(ContractAnalytics(quote.contract.ric, iv, *values))
    ranked, skipped = rank_by_metric(snapshot, metric)
    universe = select_top_bottom(ranked, config.k, decision_time)
    return snapshot, ranked, universe, failed + skipped


def _quotes_by_bar(quotes: Sequence[EnrichedQuote]) -> dict[datetime, list[EnrichedQuote]]:
    grouped: dict[datetime, list[EnrichedQuote]] = {}
    for quote in quotes:
        grouped.setdefault(quote.timestamp, []).append(quote)
    return dict(sorted(grouped.items()))


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


def _write_exclusions(config: RunConfig, entries: Sequence[ReportEntry]) -> None:
    write_report(entries, _out_path(config, "exclusions.csv"))


def _write_table(
    config: RunConfig,
    name: str,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    exclusions: Sequence[ReportEntry],
) -> int:
    """Write a command's one output table and its exclusions."""
    path = _out_path(config, name)
    write_table(path, header, rows)
    _write_exclusions(config, exclusions)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _constraints(config: RunConfig) -> PortfolioConstraints:
    return PortfolioConstraints(config.lower, config.upper, config.iv_cap or None)


def _require_strategy(config: RunConfig, allowed: Sequence[str], command: str) -> None:
    if config.strategy not in allowed:
        raise InvalidConfig(
            f"strategy must be one of {allowed} for {command}, got {config.strategy!r}"
        )


def _return_matrix(
    quotes: Sequence[EnrichedQuote],
) -> tuple[ReturnMatrix, list[ReportEntry], dict[datetime, list[EnrichedQuote]]]:
    """Returns from every bar's mids, the gaps, and the quotes by bar."""
    grouped = _quotes_by_bar(quotes)
    timeline = list(grouped)
    if len(timeline) < 2:
        raise InvalidConfig("need at least two bar timestamps to form returns")
    rics = sorted({quote.contract.ric for quote in quotes})
    index = {stamp: i for i, stamp in enumerate(timeline)}
    mids: dict[str, list[float | None]] = {ric: [None] * len(timeline) for ric in rics}
    for quote in quotes:
        mids[quote.contract.ric][index[quote.timestamp]] = quote.mid
    matrix, gaps = compute_returns(mids, timeline)
    return matrix, gaps, grouped


def _select_columns(matrix: ReturnMatrix, universe: Universe) -> ReturnMatrix:
    """The return columns of the universe's members, sorted by id."""
    members = tuple(sorted(universe.top + universe.bottom))
    columns = {ric: j for j, ric in enumerate(matrix.ids)}
    missing = [ric for ric in members if ric not in columns]
    if missing:
        raise InvalidConfig(f"{missing[0]} has no return history")
    picked = [columns[ric] for ric in members]
    return ReturnMatrix(
        start=matrix.start,
        timestamps=matrix.timestamps,
        ids=members,
        returns=matrix.returns[:, picked],
    )


# ---------------------------------------------------------------------------
# commands


def cmd_price(config: RunConfig) -> int:
    """Model price for every (contract, bar) at the configured sigma, one
    batched induction per bar. The first degenerate quote in file order
    fails the command."""
    quotes, exclusions = _load_quotes(config)
    lattices = {}
    for bar_quotes in _quotes_by_bar(quotes).values():
        inputs = [_pricing_inputs(quote, config, config.sigma) for quote in bar_quotes]
        lattices.update(zip(bar_quotes, build_lattices(inputs)))
    rows = []
    for quote in quotes:
        lattice = lattices[quote]
        if not isinstance(lattice, Lattice):
            raise lattice
        rows.append(
            [
                quote.contract.ric,
                quote.timestamp.isoformat(),
                repr(quote.spot),
                repr(quote.contract.strike),
                repr(quote.time_to_maturity),
                repr(config.sigma),
                repr(lattice.root_value),
            ]
        )
    header = ["ric", "timestamp", "spot", "strike", "time_to_maturity", "sigma", "price"]
    return _write_table(config, "price.csv", header, rows, exclusions)


def cmd_iv(config: RunConfig) -> int:
    """Implied volatility for every (contract, bar)."""
    quotes, exclusions = _load_quotes(config)
    opts = _solver_options(config)
    rows = []
    for quote in quotes:
        row = [quote.contract.ric, quote.timestamp.isoformat(), repr(quote.mid)]
        try:
            solution = implied_vol(quote.mid, _pricing_inputs(quote, config, config.sigma), opts)
        except ArbitrageViolation:
            rows.append(row + ["", "0", "", "false"])
            continue
        rows.append(
            row
            + [
                repr(solution.sigma),
                str(solution.iterations),
                solution.method.value,
                "true" if solution.converged else "false",
            ]
        )
    header = ["ric", "timestamp", "market_mid", "iv", "iterations", "method", "converged"]
    return _write_table(config, "iv.csv", header, rows, exclusions)


def cmd_greeks(config: RunConfig) -> int:
    """IV-implied Greeks and exercise region for every (contract, bar).

    Each bar's IVs are solved in lockstep and its Greeks priced in one
    batch; rows and exclusions keep the chain's order."""
    quotes, exclusions = _load_quotes(config)
    # A quote's analytics depend on the quote alone, so equal quotes can
    # share one entry.
    analytics = {}
    for bar_quotes in _quotes_by_bar(quotes).values():
        solutions = _bar_ivs(bar_quotes, config)
        greeks = _bar_greeks(bar_quotes, config, solutions)
        analytics.update(zip(bar_quotes, zip(solutions, greeks)))
    rows = []
    for quote in quotes:
        solution, greeks = analytics[quote]
        row = [quote.contract.ric, quote.timestamp.isoformat()]
        if isinstance(greeks, ReportEntry):
            exclusions.append(greeks)
        if not isinstance(greeks, GreekSet):
            rows.append(row + [""] * 7)
            continue
        rows.append(
            row
            + [
                repr(solution.sigma),
                repr(greeks.delta),
                repr(greeks.gamma),
                repr(greeks.theta),
                repr(greeks.vega),
                repr(greeks.rho),
                greeks.region.value if greeks.region is not None else "",
            ]
        )
    header = ["ric", "timestamp", "iv", "delta", "gamma", "theta", "vega", "rho", "region"]
    return _write_table(config, "greeks.csv", header, rows, exclusions)


def cmd_select(config: RunConfig) -> int:
    """Rank every bar's cross-section and keep the top-k and bottom-k."""
    quotes, exclusions = _load_quotes(config)
    rows = []
    missing: list[ReportEntry] = []
    for stamp, bar_quotes in _quotes_by_bar(quotes).items():
        _, ranked, universe, skipped = _select_bar(bar_quotes, config, stamp)
        missing.extend(skipped)
        scored = {entry.ric: entry for entry in ranked}
        for side, rics in (("top", universe.top), ("bottom", universe.bottom)):
            for ric in rics:
                entry = scored[ric]
                rows.append(
                    [stamp.isoformat(), ric, repr(entry.score), side, str(entry.rank)]
                )
    header = ["timestamp", "ric", "score", "side", "rank"]
    return _write_table(config, "select.csv", header, rows, exclusions + missing)


def cmd_optimize(config: RunConfig) -> int:
    """Select a universe at the last bar and solve one weight vector."""
    _require_strategy(config, KINDS, "optimize")
    quotes, exclusions = _load_quotes(config)
    matrix, gaps, grouped = _return_matrix(quotes)
    last = list(grouped)[-1]
    snapshot, _, universe, skipped = _select_bar(grouped[last], config, last)
    selected = _select_columns(matrix, universe)
    moments = estimate_moments(
        selected.returns, config.estimation_window or selected.n_bars
    )
    ivs = None
    if config.iv_cap > 0.0:
        by_ric = {analytics.ric: analytics.iv for analytics in snapshot}
        ivs = [by_ric.get(ric) for ric in selected.ids]
        if any(value is None for value in ivs):
            raise InvalidConfig("iv_cap requires an implied vol for every member")
    target = (
        config.target_return
        if config.target_return is not None
        else float(moments.mean.mean())
    )
    decision = solve(
        config.strategy,
        moments,
        target,
        selected.ids,
        riskfree=config.riskfree,
        shrinkage_intensity=config.shrinkage_intensity,
        uncertainty=config.uncertainty,
        constraints=_constraints(config),
        ivs=ivs,
        risk_aversion=config.risk_aversion,
    )

    rows = [
        [
            last.isoformat(),
            ric,
            repr(weight),
            config.strategy,
            repr(decision.objective_value),
        ]
        for ric, weight in zip(decision.universe, decision.weights)
    ]
    header = ["timestamp", "ric", "weight", "strategy", "objective_value"]
    return _write_table(config, "optimize.csv", header, rows, exclusions + gaps + skipped)


def _per_bar_universes(
    config: RunConfig, grouped: Mapping[datetime, Sequence[EnrichedQuote]]
) -> tuple[
    dict[datetime, Universe], dict[datetime, dict[str, float]], list[ReportEntry]
]:
    """Universe for each return row, selected from the previous bar's
    analytics so decisions only use information already printed, and
    the converged implied vols of that same snapshot."""
    timeline = list(grouped)
    universes: dict[datetime, Universe] = {}
    ivs: dict[datetime, dict[str, float]] = {}
    skipped: list[ReportEntry] = []
    for previous, stamp in zip(timeline, timeline[1:]):
        snapshot, _, universes[stamp], missing = _select_bar(
            grouped[previous], config, stamp
        )
        skipped.extend(missing)
        ivs[stamp] = {a.ric: a.iv for a in snapshot if a.iv is not None}
    return universes, ivs, skipped


def cmd_backtest(config: RunConfig) -> int:
    """Run the configured strategy over the chain and write the bundle."""
    _require_strategy(config, BACKTEST_STRATEGIES, "backtest")
    quotes, exclusions = _load_quotes(config)
    matrix, gaps, grouped = _return_matrix(quotes)

    if config.strategy == "long_short":
        universes, _, skipped = _per_bar_universes(config, grouped)
        report = run_long_short(universes, matrix)
    elif config.strategy == "dynamic":
        constraints = _constraints(config)
        constraints.check_feasible(2 * config.k)
        window = config.estimation_window or DEFAULT_ESTIMATION_WINDOW
        if matrix.n_bars <= window:
            raise InvalidConfig(
                f"estimation window {window} leaves no bar to trade: the chain "
                f"has {matrix.n_bars} return rows, and dynamic needs more than {window}"
            )
        universes, ivs, skipped = _per_bar_universes(config, grouped)
        report = run_dynamic(
            universes,
            matrix,
            constraints=constraints,
            rebalance_every=config.rebalance_every,
            estimation_window=window,
            risk_aversion=config.risk_aversion,
            ivs=ivs if constraints.iv_cap is not None else None,
        )
    else:
        first = next(iter(grouped))
        _, _, chosen, skipped = _select_bar(grouped[first], config, first)
        report = run_static(
            _select_columns(matrix, chosen),
            config.strategy,
            target_return=config.target_return,
            riskfree=config.riskfree,
            shrinkage_intensity=config.shrinkage_intensity,
            uncertainty=config.uncertainty,
            estimation_window=config.estimation_window or None,
        )

    echo = asdict(config)
    echo.update(report.config_echo)
    write_report_bundle(replace(report, config_echo=echo), config.out_dir)
    _write_exclusions(config, exclusions + gaps + skipped)
    print(
        f"wrote {os.path.join(config.out_dir, 'report.json')} "
        f"(cumulative return {report.metrics.cumulative_return:+.4%})"
    )
    return EXIT_OK


def cmd_synth(config: RunConfig) -> int:
    """Generate a synthetic chain, spot series, and true-sigma table."""
    generator = GeneratorConfig(
        spot=config.spot,
        bars=config.bars,
        bar_interval_seconds=config.bar_interval_seconds,
        sigma_range=(config.sigma_low, config.sigma_high),
        rate=config.rate,
        dividend_yield=config.dividend_yield,
        half_spread=config.half_spread,
        steps=config.steps,
        illiquid_fraction=config.illiquid_fraction,
    )
    chain = generate_synthetic_chain(generator, config.seed)

    chain_path = _out_path(config, "chain.csv")
    spot_path = _out_path(config, "spot.csv")
    atomic_write(chain_path, lambda temp: write_option_chain(chain.records, temp))
    atomic_write(spot_path, lambda temp: write_spot_series(chain.spot_series, temp))
    truth_rows = [[ric, repr(sigma)] for ric, sigma in sorted(chain.true_sigma.items())]
    write_table(_out_path(config, "truth.csv"), ["ric", "sigma"], truth_rows)
    print(f"wrote {chain_path} ({len(chain.records)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selfcheck


def _check_inputs(steps: int, **kwargs) -> PricingInputs:
    base = dict(
        spot=100.0,
        strike=100.0,
        time_to_maturity=1.0,
        rate=0.05,
        dividend_yield=0.0,
        volatility=0.2,
        steps=steps,
        contract_type=ContractType.CALL,
        exercise=Exercise.EUROPEAN,
    )
    base.update(kwargs)
    return PricingInputs(**base)


def _oracle_moments() -> MomentEstimate:
    return MomentEstimate(
        mean=np.array([0.05, 0.08, 0.12]),
        covariance=np.array(
            [[0.04, 0.01, 0.0], [0.01, 0.09, 0.02], [0.0, 0.02, 0.16]]
        ),
        window=30,
    )


def _selfchecks(steps: int) -> list[tuple[str, Callable[[], bool]]]:
    def lattice_converges() -> bool:
        inputs = _check_inputs(steps)
        return abs(price_option(inputs) - black_scholes_price(inputs)) <= 0.01

    def put_call_parity() -> bool:
        call = price_option(_check_inputs(steps))
        put = price_option(_check_inputs(steps, contract_type=ContractType.PUT))
        forward = 100.0 - 100.0 * math.exp(-0.05)
        return abs((call - put) - forward) <= 1e-9

    def american_put_dominates() -> bool:
        european = price_option(_check_inputs(steps, contract_type=ContractType.PUT))
        american = price_option(
            _check_inputs(steps, contract_type=ContractType.PUT, exercise=Exercise.AMERICAN)
        )
        return american >= european - 1e-12

    def american_call_collapses() -> bool:
        european = price_option(_check_inputs(steps))
        american = price_option(_check_inputs(steps, exercise=Exercise.AMERICAN))
        return abs(american - european) <= 1e-10

    def iv_round_trip() -> bool:
        inputs = _check_inputs(steps, volatility=0.3)
        solution = implied_vol(price_option(inputs), inputs)
        return solution.converged and abs(solution.sigma - 0.3) <= 1e-4

    def newton_is_fast() -> bool:
        inputs = _check_inputs(steps, volatility=0.3)
        solution = implied_vol(price_option(inputs), inputs)
        return solution.method.value == "newton" and solution.iterations <= 20

    def stopping_delta_is_slope() -> bool:
        inputs = _check_inputs(
            steps, spot=60.0, contract_type=ContractType.PUT, exercise=Exercise.AMERICAN
        )
        region = classify_region(inputs).region
        return region is Region.STOPPING and delta_ms(inputs) == -1.0

    def continuation_delta_cross_check() -> bool:
        inputs = _check_inputs(steps, exercise=Exercise.AMERICAN)
        return abs(delta_ms(inputs) - delta_fd(inputs)) <= 0.02

    def markowitz_symmetric() -> bool:
        moments = MomentEstimate(
            mean=np.array([0.08, 0.08]),
            covariance=np.array([[0.04, 0.01], [0.01, 0.04]]),
            window=30,
        )
        weights = solve_markowitz(moments, 0.08).weights
        return max(abs(weight - 0.5) for weight in weights) <= 1e-12

    def robust_kappa_zero_reduces() -> bool:
        moments = _oracle_moments()
        plain = solve_markowitz(moments, 0.09)
        robust = solve_robust(moments, uncertainty=0.0, target_return=0.09)
        return max(abs(a - b) for a, b in zip(plain.weights, robust.weights)) <= 1e-6

    def box_solution_feasible() -> bool:
        decision = solve_box_constrained(
            _oracle_moments(), PortfolioConstraints(lower=0.01, upper=0.40)
        )
        weights = decision.weights
        return (
            abs(sum(weights) - 1.0) <= 1e-8
            and min(weights) >= 0.01 - 1e-9
            and max(weights) <= 0.40 + 1e-9
        )

    def frontier_monotone() -> bool:
        moments = _oracle_moments()
        variances = [
            solve_markowitz(moments, target).objective_value
            for target in (0.08, 0.10, 0.12, 0.14)
        ]
        return all(b >= a - 1e-12 for a, b in zip(variances, variances[1:]))

    def drawdown_oracle() -> bool:
        metrics = summarize([1.0, 1.1, 0.99], 3600.0)
        return abs(metrics.max_drawdown - 0.10) <= 1e-12

    def long_short_neutrality() -> bool:
        start = datetime(2024, 1, 2, tzinfo=timezone.utc)
        stamps = tuple(start + timedelta(hours=i + 1) for i in range(2))
        matrix = ReturnMatrix(
            start=start,
            timestamps=stamps,
            ids=("A", "B"),
            returns=np.array([[0.1, 0.1], [-0.05, -0.05]]),
        )
        universes = {
            stamp: Universe(decision_time=stamp, top=("A",), bottom=("B",))
            for stamp in stamps
        }
        report = run_long_short(universes, matrix)
        return report.equity_curve == (1.0, 1.0, 1.0)

    return [
        ("lattice_converges_to_closed_form", lattice_converges),
        ("put_call_parity", put_call_parity),
        ("american_put_dominates_european", american_put_dominates),
        ("american_call_matches_european_without_dividend", american_call_collapses),
        ("iv_round_trip", iv_round_trip),
        ("newton_converges_quickly", newton_is_fast),
        ("stopping_region_delta_is_payoff_slope", stopping_delta_is_slope),
        ("continuation_delta_cross_check", continuation_delta_cross_check),
        ("markowitz_symmetric_closed_form", markowitz_symmetric),
        ("robust_kappa_zero_reduction", robust_kappa_zero_reduces),
        ("box_solution_feasible", box_solution_feasible),
        ("frontier_monotone", frontier_monotone),
        ("drawdown_oracle", drawdown_oracle),
        ("long_short_neutrality", long_short_neutrality),
    ]


def cmd_selfcheck(config: RunConfig) -> int:
    """Run the embedded oracle suite and print one line per check."""
    checks = _selfchecks(config.steps)
    failures = 0
    for name, check in checks:
        try:
            passed = check()
        except Exception as exc:  # report every check, never crash the suite
            print(f"{name}: FAIL ({type(exc).__name__}: {exc})")
            failures += 1
            continue
        if passed:
            print(f"{name}: PASS")
        else:
            print(f"{name}: FAIL")
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# entry point


COMMANDS: dict[str, Callable[[RunConfig], int]] = {
    "price": cmd_price,
    "iv": cmd_iv,
    "greeks": cmd_greeks,
    "select": cmd_select,
    "optimize": cmd_optimize,
    "backtest": cmd_backtest,
    "synth": cmd_synth,
    "selfcheck": cmd_selfcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainopt",
        description="Option-chain analytics: pricing, IV, Greeks, selection, "
        "optimization, backtesting.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="flat key = value config file")
        sub.add_argument("--out", help="output directory (overrides out_dir)")
        sub.add_argument("--seed", type=int, help="RNG seed (overrides seed)")
        sub.add_argument(
            "--set",
            action="append",
            default=None,
            metavar="KEY=VALUE",
            help="override any config key; repeatable",
        )
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    overrides: dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise InvalidConfig(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return make_config(file_values, overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        return COMMANDS[args.command](config)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ChainOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
