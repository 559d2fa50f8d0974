"""Option-chain bar data: parsing, cleaning, enrichment, and synthesis.

The on-disk format is a 26-column CSV of per-contract bars (see
CHAIN_COLUMNS). Seven price columns drive liquidity classification:
a contract is Liquid when no bar ever misses more than one of them and
Illiquid when its worst bar misses three to seven. Contracts whose
worst bar misses exactly two columns fall between the two definitions
and are excluded rather than silently assigned.

A synthetic-chain generator produces desk-scale data with known
volatilities: option mids are lattice prices under a stored true sigma,
so implied-volatility round trips have an exact ground truth.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ExpiredContract,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    NoMid,
    NoSpot,
)
from .pricing import ContractType, Exercise, Lattice, PricingInputs, build_lattices

logger = logging.getLogger(__name__)

YEAR_SECONDS = 365.0 * 86400.0

# Column layout of a chain file, in order.
CHAIN_COLUMNS = (
    "#RIC",
    "Domain",
    "Date-Time",
    "Type",
    "Open",
    "High",
    "Low",
    "Last",
    "Volume",
    "No. Trades",
    "Open Bid",
    "High Bid",
    "Low Bid",
    "Close Bid",
    "No. Bids",
    "Open Ask",
    "High Ask",
    "Low Ask",
    "Close Ask",
    "No. Asks",
    "Mid Open",
    "Mid Close",
    "Root",
    "Strike Price",
    "Maturity",
    "Contract Type",
)

# Price columns that count toward a bar's missing-value total.
TRACKED_PRICE_COLUMNS = (
    "Open",
    "High",
    "Low",
    "Last",
    "Close Bid",
    "Close Ask",
    "Mid Close",
)

# Columns no OptionContract or MarketBar field holds: a bar keeps their
# raw text in extra.
EXTRA_COLUMNS = (
    "Domain",
    "Type",
    "No. Trades",
    "Open Bid",
    "High Bid",
    "Low Bid",
    "No. Bids",
    "Open Ask",
    "High Ask",
    "Low Ask",
    "No. Asks",
    "Mid Open",
)

SPOT_COLUMNS = ("Date-Time", "Last")


class BucketLabel(str, Enum):
    LIQUID = "liquid"
    ILLIQUID = "illiquid"


@dataclass(frozen=True)
class OptionContract:
    """Immutable identity of one listed option."""

    ric: str
    root: str
    contract_type: ContractType
    strike: float
    maturity: date

    def __post_init__(self) -> None:
        if not math.isfinite(self.strike) or self.strike <= 0.0:
            raise InvalidConfig(f"strike must be finite and > 0, got {self.strike}")


@dataclass(frozen=True)
class MarketBar:
    """One bar of quotes for one contract.

    Absent price fields are None. ``extra`` carries the raw text of
    columns the engine does not interpret, so a parsed file can be
    re-serialized without loss. ``na_count`` is the number of absent
    fields among the seven tracked price columns.
    """

    timestamp: datetime
    open: float | None
    high: float | None
    low: float | None
    last: float | None
    volume: int | None
    close_bid: float | None
    close_ask: float | None
    mid_close: float | None
    na_count: int
    extra: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EnrichedQuote:
    """A bar joined with everything a valuation needs."""

    contract: OptionContract
    timestamp: datetime
    spot: float
    mid: float
    time_to_maturity: float
    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.spot) or self.spot <= 0.0:
            raise InvalidConfig(f"spot must be finite and > 0, got {self.spot}")
        if not math.isfinite(self.mid) or self.mid < 0.0:
            raise InvalidConfig(f"mid must be finite and >= 0, got {self.mid}")
        if not math.isfinite(self.time_to_maturity) or self.time_to_maturity <= 0.0:
            raise InvalidConfig(
                f"time_to_maturity must be finite and > 0, got {self.time_to_maturity}"
            )


@dataclass(frozen=True)
class LiquidityBucket:
    label: BucketLabel
    members: tuple[str, ...]


@dataclass(frozen=True)
class ReportEntry:
    """One line of a parse or exclusion report."""

    ric: str
    reason: str
    detail: str


@dataclass
class ParseReport:
    rows_read: int = 0
    rows_kept: int = 0
    entries: list[ReportEntry] = field(default_factory=list)


@dataclass
class ParseResult:
    records: list[tuple[OptionContract, MarketBar]]
    report: ParseReport


# ---------------------------------------------------------------------------
# parsing


def _parse_timestamp(raw: str) -> datetime:
    value = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value


def _parse_contract_type(raw: str) -> ContractType:
    token = raw.strip().lower()
    if token in ("c", "call"):
        return ContractType.CALL
    if token in ("p", "put"):
        return ContractType.PUT
    raise ValueError(f"unrecognized contract type {raw!r}")


def _parse_price(raw: str) -> float | None:
    token = raw.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value) or value < 0.0:
        return None
    return value


def _parse_volume(raw: str) -> int | None:
    token = raw.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value) or value < 0.0 or value != int(value):
        return None
    return int(value)


def parse_option_chain(
    path: str,
    schema: Mapping[str, str] | None = None,
) -> ParseResult:
    """Read a chain CSV into (contract, bar) records, in row order.

    ``schema`` optionally maps canonical column names to the names the
    file actually uses. Unparseable numeric cells become absent fields;
    rows with a broken identity cell, the wrong field count, or an
    inconsistent bar (low above high, bid above ask) are skipped and
    reported.
    """
    rename = dict(schema) if schema else {}

    def col(name: str) -> str:
        return rename.get(name, name)

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn("file is empty; expected a header row")
        header = [cell.strip() for cell in header]
        positions: dict[str, int] = {}
        for name in CHAIN_COLUMNS:
            actual = col(name)
            if actual not in header:
                raise MissingColumn(f"header lacks required column {actual!r}")
            positions[name] = header.index(actual)

        report = ParseReport()
        records: list[tuple[OptionContract, MarketBar]] = []
        for row in reader:
            report.rows_read += 1
            if len(row) != len(header):
                report.entries.append(
                    ReportEntry(
                        ric=row[positions["#RIC"]] if len(row) > positions["#RIC"] else "",
                        reason="malformed_row",
                        detail=f"expected {len(header)} fields, got {len(row)}",
                    )
                )
                continue

            cell = {name: row[index] for name, index in positions.items()}
            ric = cell["#RIC"].strip()
            try:
                contract = OptionContract(
                    ric=ric,
                    root=cell["Root"].strip(),
                    contract_type=_parse_contract_type(cell["Contract Type"]),
                    strike=float(cell["Strike Price"]),
                    maturity=date.fromisoformat(cell["Maturity"].strip()),
                )
                timestamp = _parse_timestamp(cell["Date-Time"])
            except (ValueError, InvalidConfig) as exc:
                report.entries.append(
                    ReportEntry(ric=ric, reason="malformed_row", detail=str(exc))
                )
                continue

            prices = {name: _parse_price(cell[name]) for name in TRACKED_PRICE_COLUMNS}
            low, high = prices["Low"], prices["High"]
            if low is not None and high is not None and low > high:
                report.entries.append(
                    ReportEntry(ric=ric, reason="invariant_violation", detail="low above high")
                )
                continue
            bid, ask = prices["Close Bid"], prices["Close Ask"]
            if bid is not None and ask is not None and bid > ask:
                report.entries.append(
                    ReportEntry(ric=ric, reason="invariant_violation", detail="bid above ask")
                )
                continue

            na_count = sum(1 for value in prices.values() if value is None)
            extra = {name: cell[name] for name in EXTRA_COLUMNS}
            bar = MarketBar(
                timestamp=timestamp,
                open=prices["Open"],
                high=prices["High"],
                low=prices["Low"],
                last=prices["Last"],
                volume=_parse_volume(cell["Volume"]),
                close_bid=prices["Close Bid"],
                close_ask=prices["Close Ask"],
                mid_close=prices["Mid Close"],
                na_count=na_count,
                extra=extra,
            )
            records.append((contract, bar))
            report.rows_kept += 1

    logger.info(
        "parsed %s: %d rows read, %d kept, %d reported",
        path,
        report.rows_read,
        report.rows_kept,
        len(report.entries),
    )
    return ParseResult(records=records, report=report)


def parse_spot_series(path: str) -> list[tuple[datetime, float]]:
    """Read the underlying price file: Date-Time and Last columns. A row
    whose timestamp does not parse, or whose Last is not a positive
    finite number, is rejected by its line number."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = [cell.strip() for cell in next(reader)]
        except StopIteration:
            raise MissingColumn("spot file is empty; expected a header row")
        for name in SPOT_COLUMNS:
            if name not in header:
                raise MissingColumn(f"spot header lacks required column {name!r}")
        time_index = header.index("Date-Time")
        last_index = header.index("Last")
        series: list[tuple[datetime, float]] = []
        for row in reader:
            where = f"spot row {reader.line_num}"
            if len(row) != len(header):
                raise MalformedRow(f"{where} has {len(row)} fields, expected {len(header)}")
            try:
                stamp, last = _parse_timestamp(row[time_index]), float(row[last_index])
            except ValueError as exc:
                raise MalformedRow(f"{where}: {exc}") from None
            if not (math.isfinite(last) and last > 0.0):
                raise MalformedRow(
                    f"{where}: Last must be a positive finite price, got {row[last_index]!r}"
                )
            series.append((stamp, last))
    series.sort(key=lambda pair: pair[0])
    return series


# ---------------------------------------------------------------------------
# liquidity


def bucket_by_liquidity(
    records: Sequence[tuple[OptionContract, MarketBar]],
) -> tuple[dict[BucketLabel, LiquidityBucket], list[ReportEntry]]:
    """Split contracts by their worst bar's missing-value count.

    Worst-case count <= 1 is Liquid and 3..7 is Illiquid. A worst case
    of exactly 2 (or, defensively, above 7) matches neither definition:
    those contracts are excluded and reported.
    """
    worst: dict[str, int] = {}
    order: list[str] = []
    for contract, bar in records:
        if contract.ric not in worst:
            order.append(contract.ric)
            worst[contract.ric] = bar.na_count
        else:
            worst[contract.ric] = max(worst[contract.ric], bar.na_count)

    liquid: list[str] = []
    illiquid: list[str] = []
    excluded: list[ReportEntry] = []
    for ric in order:
        count = worst[ric]
        if count <= 1:
            liquid.append(ric)
        elif 3 <= count <= 7:
            illiquid.append(ric)
        else:
            excluded.append(
                ReportEntry(
                    ric=ric,
                    reason="liquidity_gap",
                    detail=f"worst bar has {count} missing values",
                )
            )

    buckets = {
        BucketLabel.LIQUID: LiquidityBucket(BucketLabel.LIQUID, tuple(liquid)),
        BucketLabel.ILLIQUID: LiquidityBucket(BucketLabel.ILLIQUID, tuple(illiquid)),
    }
    return buckets, excluded


# ---------------------------------------------------------------------------
# feature derivation


def spot_at(series: Sequence[tuple[datetime, float]], when: datetime) -> float:
    """Most recent underlying price at or before the given time."""
    index = bisect_right(series, when, key=lambda pair: pair[0])
    if index == 0:
        raise NoSpot(f"no underlying price at or before {when.isoformat()}")
    return series[index - 1][1]


def _maturity_instant(maturity: date) -> datetime:
    return datetime.combine(maturity, time(0, 0), tzinfo=timezone.utc)


def derive_features(
    record: tuple[OptionContract, MarketBar],
    spot_series: Sequence[tuple[datetime, float]],
    rate: float,
    valuation_time: datetime,
) -> EnrichedQuote:
    """Join one bar with spot, mid, and year-fraction time to maturity.

    Mid is the bid/ask midpoint when both sides are quoted, otherwise
    the bar's own mid close. Time to maturity uses ACT/365 against
    midnight UTC of the maturity date.
    """
    contract, bar = record
    if bar.close_bid is not None and bar.close_ask is not None:
        mid = 0.5 * (bar.close_bid + bar.close_ask)
    elif bar.mid_close is not None:
        mid = bar.mid_close
    else:
        raise NoMid(f"{contract.ric}: no bid/ask pair and no mid close")

    ttm = (
        _maturity_instant(contract.maturity) - valuation_time
    ).total_seconds() / YEAR_SECONDS
    if ttm <= 0.0:
        raise ExpiredContract(
            f"{contract.ric}: maturity {contract.maturity.isoformat()} is not after "
            f"{valuation_time.isoformat()}"
        )

    return EnrichedQuote(
        contract=contract,
        timestamp=valuation_time,
        spot=spot_at(spot_series, valuation_time),
        mid=mid,
        time_to_maturity=ttm,
        rate=rate,
    )


def enrich_records(
    records: Iterable[tuple[OptionContract, MarketBar]],
    spot_series: Sequence[tuple[datetime, float]],
    rate: float,
) -> tuple[list[EnrichedQuote], list[ReportEntry]]:
    """Derive features for every record, reporting drops instead of raising."""
    quotes: list[EnrichedQuote] = []
    dropped: list[ReportEntry] = []
    for contract, bar in records:
        try:
            quotes.append(derive_features((contract, bar), spot_series, rate, bar.timestamp))
        except (NoMid, NoSpot, ExpiredContract, InvalidConfig) as exc:
            dropped.append(
                ReportEntry(ric=contract.ric, reason=type(exc).__name__, detail=str(exc))
            )
    return quotes, dropped


# ---------------------------------------------------------------------------
# synthetic chains


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for the synthetic desk-scale chain.

    Strikes and maturities form the contract grid (one call and one put
    per pair). Option mids are lattice prices at a per-contract true
    volatility drawn uniformly from sigma_range; the underlying follows
    a lognormal path. All randomness flows from the seed passed to
    generate_synthetic_chain.
    """

    spot: float = 100.0
    strikes: tuple[float, ...] = (90.0, 92.5, 95.0, 97.5, 100.0, 102.5, 105.0, 107.5, 110.0)
    maturities: tuple[float, ...] = (0.25, 0.5, 1.0)
    bars: int = 8
    bar_interval_seconds: int = 3600
    sigma_range: tuple[float, float] = (0.2, 0.5)
    rate: float = 0.05
    dividend_yield: float = 0.0
    half_spread: float = 0.0
    spot_drift: float = 0.0
    spot_vol: float = 0.15
    steps: int = 200
    start: datetime = datetime(2024, 1, 2, 14, 30, tzinfo=timezone.utc)
    root: str = "SYN"
    illiquid_fraction: float = 0.0

    def validate(self) -> None:
        if self.spot <= 0.0:
            raise InvalidConfig(f"spot must be > 0, got {self.spot}")
        if not self.strikes or any(k <= 0.0 for k in self.strikes):
            raise InvalidConfig("strikes must be a non-empty tuple of positive prices")
        if not self.maturities or any(t <= 0.0 for t in self.maturities):
            raise InvalidConfig("maturities must be a non-empty tuple of positive years")
        if self.bars < 1:
            raise InvalidConfig(f"bars must be >= 1, got {self.bars}")
        if self.bar_interval_seconds < 1:
            raise InvalidConfig(
                f"bar_interval_seconds must be >= 1, got {self.bar_interval_seconds}"
            )
        if not 0.0 < self.sigma_range[0] <= self.sigma_range[1]:
            raise InvalidConfig(f"sigma_range must be 0 < low <= high, got {self.sigma_range}")
        if self.half_spread < 0.0:
            raise InvalidConfig(f"half_spread must be >= 0, got {self.half_spread}")
        if self.spot_vol < 0.0:
            raise InvalidConfig(f"spot_vol must be >= 0, got {self.spot_vol}")
        if self.steps < 1:
            raise InvalidConfig(f"steps must be >= 1, got {self.steps}")
        if not 0.0 <= self.illiquid_fraction <= 1.0:
            raise InvalidConfig(
                f"illiquid_fraction must be in [0, 1], got {self.illiquid_fraction}"
            )


@dataclass
class SyntheticChain:
    records: list[tuple[OptionContract, MarketBar]]
    true_sigma: dict[str, float]
    spot_series: list[tuple[datetime, float]]


def _format_price(value: float | None) -> str:
    """A price cell: the float's repr, or empty for an absent price."""
    return "" if value is None else repr(float(value))


def generate_synthetic_chain(config: GeneratorConfig, seed: int) -> SyntheticChain:
    """Produce a chain whose mids are model prices at known volatilities.

    Deterministic for a fixed (config, seed): contract order, the spot
    path, drawn volatilities, and volume counts all derive from one
    generator. Bid and ask sit half_spread either side of the model
    mid (bid floored at zero), so a zero spread makes the mid the model
    price exactly.
    """
    config.validate()
    rng = np.random.default_rng(seed)

    contracts: list[tuple[OptionContract, float]] = []
    for maturity_years in config.maturities:
        maturity = (config.start + timedelta(days=round(maturity_years * 365.0))).date()
        for strike in config.strikes:
            for kind in (ContractType.CALL, ContractType.PUT):
                sigma = float(rng.uniform(*config.sigma_range))
                letter = "C" if kind is ContractType.CALL else "P"
                ric = (
                    f"{config.root}{maturity.strftime('%y%m%d')}{letter}"
                    f"{int(round(strike * 1000)):08d}"
                )
                contract = OptionContract(
                    ric=ric,
                    root=config.root,
                    contract_type=kind,
                    strike=strike,
                    maturity=maturity,
                )
                contracts.append((contract, sigma))

    illiquid_rics: set[str] = set()
    if config.illiquid_fraction > 0.0:
        count = int(round(config.illiquid_fraction * len(contracts)))
        picks = rng.choice(len(contracts), size=count, replace=False)
        illiquid_rics = {contracts[int(i)][0].ric for i in sorted(picks)}

    bar_dt_years = config.bar_interval_seconds / YEAR_SECONDS
    spots = [config.spot]
    for _ in range(config.bars - 1):
        shock = rng.standard_normal()
        growth = (
            (config.spot_drift - 0.5 * config.spot_vol**2) * bar_dt_years
            + config.spot_vol * math.sqrt(bar_dt_years) * shock
        )
        spots.append(spots[-1] * math.exp(growth))

    timestamps = [
        config.start + timedelta(seconds=config.bar_interval_seconds * i)
        for i in range(config.bars)
    ]
    spot_series = list(zip(timestamps, spots))

    records: list[tuple[OptionContract, MarketBar]] = []
    true_sigma: dict[str, float] = {}
    for contract, sigma in contracts:
        true_sigma[contract.ric] = sigma
        expiry = _maturity_instant(contract.maturity)
        stamps, rows = [], []
        for timestamp, spot in spot_series:
            ttm = (expiry - timestamp).total_seconds() / YEAR_SECONDS
            if ttm <= 0.0:
                continue
            stamps.append(timestamp)
            rows.append(
                PricingInputs(
                    spot=spot,
                    strike=contract.strike,
                    time_to_maturity=ttm,
                    rate=config.rate,
                    dividend_yield=config.dividend_yield,
                    volatility=sigma,
                    steps=config.steps,
                    contract_type=contract.contract_type,
                    exercise=Exercise.AMERICAN,
                )
            )
        # One induction prices all of the contract's live bars.
        for timestamp, lattice in zip(stamps, build_lattices(rows)):
            if not isinstance(lattice, Lattice):
                raise lattice
            mid = lattice.root_value
            bid = max(mid - config.half_spread, 0.0)
            ask = mid + config.half_spread
            volume = int(rng.integers(100, 10_000))
            missing = contract.ric in illiquid_rics
            extra = {
                "Domain": "Market Price",
                "Type": "Intraday 1Hour",
                "No. Trades": str(max(volume // 10, 1)),
                "Open Bid": "" if missing else _format_price(bid),
                "High Bid": "" if missing else _format_price(bid),
                "Low Bid": "" if missing else _format_price(bid),
                "No. Bids": str(max(volume // 20, 1)),
                "Open Ask": "" if missing else _format_price(ask),
                "High Ask": "" if missing else _format_price(ask),
                "Low Ask": "" if missing else _format_price(ask),
                "No. Asks": str(max(volume // 20, 1)),
                "Mid Open": "" if missing else _format_price(mid),
            }
            bar = MarketBar(
                timestamp=timestamp,
                open=None if missing else mid,
                high=None if missing else mid,
                low=None if missing else mid,
                last=None if missing else mid,
                volume=volume,
                close_bid=bid,
                close_ask=ask,
                mid_close=mid,
                na_count=4 if missing else 0,
                extra=extra,
            )
            records.append((contract, bar))

    return SyntheticChain(records=records, true_sigma=true_sigma, spot_series=spot_series)


# ---------------------------------------------------------------------------
# serialization


def atomic_write(path: str, write: Callable[[str], object]) -> None:
    """Run write(temp_path) on a temporary file beside path, then rename
    the file over path, so no reader ever sees a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(handle)
    try:
        write(temp_path)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def write_option_chain(
    records: Sequence[tuple[OptionContract, MarketBar]], path: str
) -> None:
    """Serialize records back to the 26-column chain format."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CHAIN_COLUMNS)
        for contract, bar in records:
            cells = {
                **bar.extra,
                "#RIC": contract.ric,
                "Date-Time": bar.timestamp.isoformat(),
                "Open": _format_price(bar.open),
                "High": _format_price(bar.high),
                "Low": _format_price(bar.low),
                "Last": _format_price(bar.last),
                "Volume": "" if bar.volume is None else str(bar.volume),
                "Close Bid": _format_price(bar.close_bid),
                "Close Ask": _format_price(bar.close_ask),
                "Mid Close": _format_price(bar.mid_close),
                "Root": contract.root,
                "Strike Price": _format_price(contract.strike),
                "Maturity": contract.maturity.isoformat(),
                "Contract Type": "C" if contract.contract_type is ContractType.CALL else "P",
            }
            writer.writerow([cells.get(name, "") for name in CHAIN_COLUMNS])


def write_spot_series(series: Sequence[tuple[datetime, float]], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SPOT_COLUMNS)
        for timestamp, value in series:
            writer.writerow([timestamp.isoformat(), _format_price(value)])


def write_table(
    path: str, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write a header and rows to path atomically, as CSV with Unix line
    ends; a field holding a comma or a quote is quoted."""

    def write(temp_path: str) -> None:
        with open(temp_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    atomic_write(path, write)


def write_report(entries: Sequence[ReportEntry], path: str) -> None:
    rows = ([entry.ric, entry.reason, entry.detail] for entry in entries)
    write_table(path, ["ric", "reason", "detail"], rows)
