"""Chain parsing, liquidity buckets, enrichment, and the synthetic generator."""

import csv
import math
import os
import tempfile
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt.errors import (
    DegenerateProbability,
    ExpiredContract,
    InvalidConfig,
    MalformedRow,
    MissingColumn,
    NoMid,
    NoSpot,
)
from chainopt.implied_vol import implied_vol
from chainopt.market_data import (
    CHAIN_COLUMNS,
    BucketLabel,
    EnrichedQuote,
    GeneratorConfig,
    MarketBar,
    OptionContract,
    bucket_by_liquidity,
    derive_features,
    enrich_records,
    generate_synthetic_chain,
    parse_option_chain,
    parse_spot_series,
    spot_at,
    write_option_chain,
    write_report,
    write_spot_series,
)
from chainopt.pricing import ContractType, Exercise, PricingInputs, price_option

UTC = timezone.utc

BASE_ROW = {
    "#RIC": "OPT240621C00100000",
    "Domain": "Market Price",
    "Date-Time": "2024-01-02T14:30:00+00:00",
    "Type": "Intraday 1Hour",
    "Open": "5.1",
    "High": "5.3",
    "Low": "5.0",
    "Last": "5.2",
    "Volume": "1200",
    "No. Trades": "240",
    "Open Bid": "5.0",
    "High Bid": "5.2",
    "Low Bid": "4.9",
    "Close Bid": "5.1",
    "No. Bids": "80",
    "Open Ask": "5.2",
    "High Ask": "5.4",
    "Low Ask": "5.1",
    "Close Ask": "5.3",
    "No. Asks": "75",
    "Mid Open": "5.1",
    "Mid Close": "5.2",
    "Root": "OPT",
    "Strike Price": "100.0",
    "Maturity": "2024-06-21",
    "Contract Type": "C",
}


def make_row(**overrides) -> dict:
    row = dict(BASE_ROW)
    row.update(overrides)
    return row


def write_chain_file(path, rows, columns=CHAIN_COLUMNS) -> str:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                writer.writerow([row.get(name, "") for name in columns])
            else:
                writer.writerow(row)
    return str(path)


def make_bar(timestamp=None, na_count=0, **overrides) -> MarketBar:
    fields = dict(
        timestamp=timestamp or datetime(2024, 1, 2, 14, 30, tzinfo=UTC),
        open=5.1,
        high=5.3,
        low=5.0,
        last=5.2,
        volume=1200,
        close_bid=5.1,
        close_ask=5.3,
        mid_close=5.2,
        na_count=na_count,
    )
    fields.update(overrides)
    return MarketBar(**fields)


def make_contract(ric="OPT240621C00100000", **overrides) -> OptionContract:
    fields = dict(
        ric=ric,
        root="OPT",
        contract_type=ContractType.CALL,
        strike=100.0,
        maturity=date(2024, 6, 21),
    )
    fields.update(overrides)
    return OptionContract(**fields)


# ---------------------------------------------------------------------------
# parsing


class TestParseOptionChain:
    def test_parses_contract_identity_and_bar(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [make_row()])
        result = parse_option_chain(path)
        assert result.report.rows_read == 1
        assert result.report.rows_kept == 1
        assert result.report.entries == []
        contract, bar = result.records[0]
        assert contract.ric == "OPT240621C00100000"
        assert contract.root == "OPT"
        assert contract.contract_type is ContractType.CALL
        assert contract.strike == 100.0
        assert contract.maturity == date(2024, 6, 21)
        assert bar.timestamp == datetime(2024, 1, 2, 14, 30, tzinfo=UTC)
        assert bar.open == 5.1
        assert bar.close_bid == 5.1
        assert bar.close_ask == 5.3
        assert bar.mid_close == 5.2
        assert bar.volume == 1200
        assert bar.na_count == 0

    def test_untracked_columns_survive_in_extra(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [make_row()])
        _, bar = parse_option_chain(path).records[0]
        assert bar.extra["Domain"] == "Market Price"
        assert bar.extra["No. Trades"] == "240"
        assert bar.extra["Mid Open"] == "5.1"
        assert "Open" not in bar.extra

    def test_header_only_file_yields_empty_result(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [])
        result = parse_option_chain(path)
        assert result.records == []
        assert result.report.rows_read == 0

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("")
        with pytest.raises(MissingColumn):
            parse_option_chain(str(path))

    def test_missing_column_raises(self, tmp_path):
        columns = [name for name in CHAIN_COLUMNS if name != "Close Bid"]
        path = write_chain_file(tmp_path / "chain.csv", [], columns=columns)
        with pytest.raises(MissingColumn, match="Close Bid"):
            parse_option_chain(path)

    def test_schema_maps_alternate_header_names(self, tmp_path):
        columns = ["RIC" if name == "#RIC" else name for name in CHAIN_COLUMNS]
        row = {**make_row(), "RIC": "OPT240621C00100000"}
        path = write_chain_file(tmp_path / "chain.csv", [row], columns=columns)
        result = parse_option_chain(path, schema={"#RIC": "RIC"})
        assert result.records[0][0].ric == "OPT240621C00100000"

    @pytest.mark.parametrize(
        "token,expected",
        [
            ("C", ContractType.CALL),
            ("c", ContractType.CALL),
            ("Call", ContractType.CALL),
            ("CALL", ContractType.CALL),
            ("P", ContractType.PUT),
            ("p", ContractType.PUT),
            ("Put", ContractType.PUT),
        ],
    )
    def test_contract_type_spellings(self, tmp_path, token, expected):
        path = write_chain_file(tmp_path / "chain.csv", [make_row(**{"Contract Type": token})])
        assert parse_option_chain(path).records[0][0].contract_type is expected

    def test_missing_tracked_cells_count_toward_na(self, tmp_path):
        row = make_row(Open="", High="", Low="")
        path = write_chain_file(tmp_path / "chain.csv", [row])
        _, bar = parse_option_chain(path).records[0]
        assert bar.open is None
        assert bar.high is None
        assert bar.low is None
        assert bar.na_count == 3

    def test_unparseable_numeric_cell_becomes_absent(self, tmp_path):
        row = make_row(Last="n/a")
        path = write_chain_file(tmp_path / "chain.csv", [row])
        result = parse_option_chain(path)
        _, bar = result.records[0]
        assert bar.last is None
        assert bar.na_count == 1
        assert result.report.entries == []

    def test_negative_price_cell_becomes_absent(self, tmp_path):
        row = make_row(**{"Close Bid": "-0.5"})
        path = write_chain_file(tmp_path / "chain.csv", [row])
        _, bar = parse_option_chain(path).records[0]
        assert bar.close_bid is None
        assert bar.na_count == 1

    def test_fractional_volume_becomes_absent(self, tmp_path):
        row = make_row(Volume="12.5")
        path = write_chain_file(tmp_path / "chain.csv", [row])
        _, bar = parse_option_chain(path).records[0]
        assert bar.volume is None

    def test_wrong_field_count_skipped_and_reported(self, tmp_path):
        path = write_chain_file(
            tmp_path / "chain.csv",
            [make_row(), ["OPT240621C00100000", "short row"]],
        )
        result = parse_option_chain(path)
        assert result.report.rows_read == 2
        assert result.report.rows_kept == 1
        assert len(result.report.entries) == 1
        assert result.report.entries[0].reason == "malformed_row"

    def test_bad_identity_cell_skipped_and_reported(self, tmp_path):
        rows = [
            make_row(Maturity="not-a-date"),
            make_row(**{"Strike Price": "banana"}),
            make_row(**{"Contract Type": "X"}),
            make_row(**{"Date-Time": "yesterday"}),
        ]
        path = write_chain_file(tmp_path / "chain.csv", rows)
        result = parse_option_chain(path)
        assert result.records == []
        assert len(result.report.entries) == 4
        assert all(entry.reason == "malformed_row" for entry in result.report.entries)
        assert all(entry.ric == BASE_ROW["#RIC"] for entry in result.report.entries)

    def test_low_above_high_skipped_and_reported(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [make_row(Low="6.0", High="5.0")])
        result = parse_option_chain(path)
        assert result.records == []
        assert result.report.entries[0].reason == "invariant_violation"

    def test_bid_above_ask_skipped_and_reported(self, tmp_path):
        row = make_row(**{"Close Bid": "5.4", "Close Ask": "5.3"})
        path = write_chain_file(tmp_path / "chain.csv", [row])
        result = parse_option_chain(path)
        assert result.records == []
        assert result.report.entries[0].reason == "invariant_violation"

    def test_row_order_preserved(self, tmp_path):
        rows = [make_row(**{"#RIC": f"OPT{i:03d}"}) for i in (3, 1, 2)]
        path = write_chain_file(tmp_path / "chain.csv", rows)
        rics = [contract.ric for contract, _ in parse_option_chain(path).records]
        assert rics == ["OPT003", "OPT001", "OPT002"]

    def test_round_trip_preserves_populated_values(self, tmp_path):
        rows = [make_row(), make_row(Open="", **{"#RIC": "OPT000", "Mid Close": "4.25"})]
        source = write_chain_file(tmp_path / "chain.csv", rows)
        parsed = parse_option_chain(source)
        first = tmp_path / "first.csv"
        write_option_chain(parsed.records, str(first))
        reparsed = parse_option_chain(str(first))
        assert reparsed.records == parsed.records
        second = tmp_path / "second.csv"
        write_option_chain(reparsed.records, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_report_file_format(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [make_row(Maturity="bad")])
        result = parse_option_chain(path)
        report_path = tmp_path / "report.csv"
        write_report(result.report.entries, str(report_path))
        lines = report_path.read_text().splitlines()
        assert lines[0] == "ric,reason,detail"
        assert lines[1].startswith("OPT240621C00100000,malformed_row,")


class TestParseSpotSeries:
    def test_parses_and_sorts(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text(
            "Date-Time,Last\n"
            "2024-01-02T15:30:00+00:00,101.0\n"
            "2024-01-02T14:30:00+00:00,100.0\n"
        )
        series = parse_spot_series(str(path))
        assert [value for _, value in series] == [100.0, 101.0]

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text("Date-Time,Close\n2024-01-02T14:30:00+00:00,100.0\n")
        with pytest.raises(MissingColumn):
            parse_spot_series(str(path))

    @pytest.mark.parametrize("last", ["abc", "", "nan", "inf", "0", "-1.5"])
    def test_bad_last_rejected_by_line(self, tmp_path, last):
        path = tmp_path / "spot.csv"
        path.write_text(
            "Date-Time,Last\n"
            "2024-01-02T14:30:00+00:00,100.0\n"
            f"2024-01-02T15:30:00+00:00,{last}\n"
        )
        with pytest.raises(MalformedRow, match="spot row 3"):
            parse_spot_series(str(path))

    def test_bad_timestamp_rejected_by_line(self, tmp_path):
        path = tmp_path / "spot.csv"
        path.write_text("Date-Time,Last\nyesterday,100.0\n")
        with pytest.raises(MalformedRow, match="spot row 2"):
            parse_spot_series(str(path))


# ---------------------------------------------------------------------------
# liquidity buckets


class TestBucketByLiquidity:
    def records_with_worst(self, spec):
        records = []
        for ric, worst in spec:
            records.append((make_contract(ric=ric), make_bar(na_count=0)))
            records.append((make_contract(ric=ric), make_bar(na_count=worst)))
        return records

    def test_band_boundaries(self):
        spec = [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 7)]
        buckets, excluded = bucket_by_liquidity(self.records_with_worst(spec))
        assert buckets[BucketLabel.LIQUID].members == ("A", "B")
        assert buckets[BucketLabel.ILLIQUID].members == ("D", "E")
        assert [entry.ric for entry in excluded] == ["C"]
        assert excluded[0].reason == "liquidity_gap"

    def test_worst_bar_governs(self):
        records = [
            (make_contract(ric="A"), make_bar(na_count=0)),
            (make_contract(ric="A"), make_bar(na_count=5)),
            (make_contract(ric="A"), make_bar(na_count=1)),
        ]
        buckets, excluded = bucket_by_liquidity(records)
        assert buckets[BucketLabel.ILLIQUID].members == ("A",)
        assert excluded == []

    def test_count_above_seven_excluded(self):
        records = [(make_contract(ric="A"), make_bar(na_count=8))]
        _, excluded = bucket_by_liquidity(records)
        assert [entry.ric for entry in excluded] == ["A"]

    def test_empty_input(self):
        buckets, excluded = bucket_by_liquidity([])
        assert buckets[BucketLabel.LIQUID].members == ()
        assert buckets[BucketLabel.ILLIQUID].members == ()
        assert excluded == []


# ---------------------------------------------------------------------------
# feature derivation


SPOT_SERIES = [
    (datetime(2024, 1, 2, 14, 30, tzinfo=UTC), 100.0),
    (datetime(2024, 1, 2, 15, 30, tzinfo=UTC), 101.0),
    (datetime(2024, 1, 2, 16, 30, tzinfo=UTC), 99.5),
]


class TestSpotLookup:
    def test_most_recent_at_or_before(self):
        assert spot_at(SPOT_SERIES, datetime(2024, 1, 2, 15, 30, tzinfo=UTC)) == 101.0
        assert spot_at(SPOT_SERIES, datetime(2024, 1, 2, 15, 45, tzinfo=UTC)) == 101.0
        assert spot_at(SPOT_SERIES, datetime(2024, 1, 2, 18, 0, tzinfo=UTC)) == 99.5

    def test_before_first_point_raises(self):
        with pytest.raises(NoSpot):
            spot_at(SPOT_SERIES, datetime(2024, 1, 2, 14, 0, tzinfo=UTC))


class TestDeriveFeatures:
    def test_mid_prefers_bid_ask_midpoint(self):
        record = (make_contract(), make_bar(close_bid=5.0, close_ask=5.4, mid_close=9.9))
        quote = derive_features(record, SPOT_SERIES, 0.05, record[1].timestamp)
        assert quote.mid == 5.2
        assert quote.spot == 100.0
        assert quote.rate == 0.05

    def test_mid_falls_back_to_mid_close(self):
        record = (make_contract(), make_bar(close_bid=None, close_ask=5.4, mid_close=5.25, na_count=1))
        quote = derive_features(record, SPOT_SERIES, 0.05, record[1].timestamp)
        assert quote.mid == 5.25

    def test_no_mid_raises(self):
        record = (
            make_contract(),
            make_bar(close_bid=None, close_ask=None, mid_close=None, na_count=3),
        )
        with pytest.raises(NoMid):
            derive_features(record, SPOT_SERIES, 0.05, record[1].timestamp)

    def test_year_fraction_is_act_365(self):
        # 2024-01-02 midnight to 2024-03-15 midnight is 73 days.
        record = (make_contract(maturity=date(2024, 3, 15)), make_bar())
        valuation = datetime(2024, 1, 2, 0, 0, tzinfo=UTC)
        series = [(valuation, 100.0)]
        quote = derive_features(record, series, 0.05, valuation)
        assert quote.time_to_maturity == pytest.approx(73.0 / 365.0, abs=1e-15)

    def test_expired_contract_raises(self):
        record = (make_contract(maturity=date(2024, 1, 2)), make_bar())
        valuation = datetime(2024, 1, 2, 14, 30, tzinfo=UTC)
        with pytest.raises(ExpiredContract):
            derive_features(record, SPOT_SERIES, 0.05, valuation)

    def test_no_spot_propagates(self):
        record = (make_contract(), make_bar())
        with pytest.raises(NoSpot):
            derive_features(record, SPOT_SERIES, 0.05, datetime(2024, 1, 1, tzinfo=UTC))

    def test_enrich_records_reports_drops(self):
        records = [
            (make_contract(ric="GOOD"), make_bar()),
            (
                make_contract(ric="NOMID"),
                make_bar(close_bid=None, close_ask=None, mid_close=None, na_count=3),
            ),
            (
                make_contract(ric="EXPIRED", maturity=date(2023, 12, 29)),
                make_bar(),
            ),
        ]
        quotes, dropped = enrich_records(records, SPOT_SERIES, 0.05)
        assert [quote.contract.ric for quote in quotes] == ["GOOD"]
        assert {entry.ric: entry.reason for entry in dropped} == {
            "NOMID": "NoMid",
            "EXPIRED": "ExpiredContract",
        }


class TestNonFiniteBoundaries:
    # nan compares False with everything, so a bare "<= 0" guard let it in.
    @pytest.mark.parametrize("strike", [math.nan, math.inf])
    def test_contract_rejects_non_finite_strike(self, strike):
        with pytest.raises(InvalidConfig, match="strike"):
            make_contract(strike=strike)

    def test_nan_strike_row_is_malformed(self, tmp_path):
        path = write_chain_file(tmp_path / "chain.csv", [make_row(**{"Strike Price": "nan"})])
        result = parse_option_chain(path)
        assert result.records == []
        assert [entry.reason for entry in result.report.entries] == ["malformed_row"]

    @pytest.mark.parametrize("field", ["spot", "mid", "time_to_maturity"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_enriched_quote_rejects_non_finite(self, field, value):
        fields = dict(
            contract=make_contract(),
            timestamp=datetime(2024, 1, 2, 14, 30, tzinfo=UTC),
            spot=100.0,
            mid=5.2,
            time_to_maturity=0.5,
            rate=0.05,
        )
        fields[field] = value
        with pytest.raises(InvalidConfig, match=field):
            EnrichedQuote(**fields)


# ---------------------------------------------------------------------------
# synthetic generator


class TestGenerateSyntheticChain:
    SMALL = GeneratorConfig(
        strikes=(95.0, 100.0, 105.0),
        maturities=(0.5,),
        bars=3,
        steps=100,
    )

    def test_contract_and_record_counts(self):
        chain = generate_synthetic_chain(self.SMALL, seed=7)
        assert len(chain.true_sigma) == 6
        assert len(chain.records) == 6 * 3
        assert len(chain.spot_series) == 3

    def test_true_sigma_within_configured_range(self):
        chain = generate_synthetic_chain(self.SMALL, seed=7)
        low, high = self.SMALL.sigma_range
        assert all(low <= sigma <= high for sigma in chain.true_sigma.values())

    def test_deterministic_for_fixed_seed(self, tmp_path):
        first = generate_synthetic_chain(self.SMALL, seed=42)
        second = generate_synthetic_chain(self.SMALL, seed=42)
        assert first.records == second.records
        assert first.true_sigma == second.true_sigma
        assert first.spot_series == second.spot_series
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_option_chain(first.records, str(path_a))
        write_option_chain(second.records, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_seed_changes_the_draws(self):
        first = generate_synthetic_chain(self.SMALL, seed=1)
        second = generate_synthetic_chain(self.SMALL, seed=2)
        assert first.true_sigma != second.true_sigma

    def test_zero_spread_mid_is_the_model_price(self):
        chain = generate_synthetic_chain(self.SMALL, seed=3)
        contract, bar = chain.records[0]
        quote = derive_features(
            (contract, bar), chain.spot_series, self.SMALL.rate, bar.timestamp
        )
        model = price_option(
            PricingInputs(
                spot=quote.spot,
                strike=contract.strike,
                time_to_maturity=quote.time_to_maturity,
                rate=self.SMALL.rate,
                dividend_yield=0.0,
                volatility=chain.true_sigma[contract.ric],
                steps=self.SMALL.steps,
                contract_type=contract.contract_type,
                exercise=Exercise.AMERICAN,
            )
        )
        assert quote.mid == model

    def test_spread_straddles_the_model_price(self):
        config = GeneratorConfig(
            strikes=(100.0,), maturities=(0.5,), bars=1, steps=100, half_spread=0.05
        )
        chain = generate_synthetic_chain(config, seed=5)
        _, bar = chain.records[0]
        assert bar.close_ask - bar.close_bid == pytest.approx(0.10, abs=1e-12)
        assert bar.mid_close == pytest.approx(
            0.5 * (bar.close_bid + bar.close_ask), abs=1e-12
        )

    def test_implied_vol_round_trip_on_generated_mids(self):
        config = GeneratorConfig(
            strikes=(95.0, 105.0), maturities=(0.5, 1.0), bars=1, steps=300
        )
        chain = generate_synthetic_chain(config, seed=9)
        for contract, bar in chain.records:
            quote = derive_features(
                (contract, bar), chain.spot_series, config.rate, bar.timestamp
            )
            solution = implied_vol(
                market_price=quote.mid,
                inputs=PricingInputs(
                    spot=quote.spot,
                    strike=contract.strike,
                    time_to_maturity=quote.time_to_maturity,
                    rate=config.rate,
                    dividend_yield=0.0,
                    volatility=0.3,
                    steps=config.steps,
                    contract_type=contract.contract_type,
                    exercise=Exercise.AMERICAN,
                ),
            )
            assert solution.converged
            assert abs(solution.sigma - chain.true_sigma[contract.ric]) <= 1e-4

    def test_a_degenerate_row_fails_with_its_contracts_first_error(self):
        # At N=1, sigma=0.06 and r=0.1 the tree degenerates once dt = T >
        # 0.36 years, so the 3-month contract prices and the 1-year one
        # does not. Its first bar has the longest step, which the message
        # names.
        config = GeneratorConfig(
            strikes=(100.0,),
            maturities=(0.25, 1.0),
            bars=3,
            sigma_range=(0.06, 0.06),
            rate=0.1,
            steps=1,
        )
        expiry = datetime.combine(
            (config.start + timedelta(days=365)).date(), datetime.min.time(), tzinfo=UTC
        )
        first = PricingInputs(
            spot=config.spot,
            strike=100.0,
            time_to_maturity=(expiry - config.start) / timedelta(days=365),
            rate=config.rate,
            dividend_yield=0.0,
            volatility=0.06,
            steps=1,
            contract_type=ContractType.CALL,
            exercise=Exercise.AMERICAN,
        )
        with pytest.raises(DegenerateProbability) as expected:
            price_option(first)
        with pytest.raises(DegenerateProbability) as raised:
            generate_synthetic_chain(config, seed=0)
        assert str(raised.value) == str(expected.value)

    def test_illiquid_fraction_lands_in_illiquid_bucket(self):
        config = GeneratorConfig(
            strikes=(95.0, 100.0, 105.0),
            maturities=(0.5,),
            bars=2,
            steps=50,
            illiquid_fraction=0.5,
        )
        chain = generate_synthetic_chain(config, seed=11)
        buckets, excluded = bucket_by_liquidity(chain.records)
        assert len(buckets[BucketLabel.ILLIQUID].members) == 3
        assert len(buckets[BucketLabel.LIQUID].members) == 3
        assert excluded == []

    def test_generated_file_parses_clean(self, tmp_path):
        chain = generate_synthetic_chain(self.SMALL, seed=13)
        path = tmp_path / "chain.csv"
        write_option_chain(chain.records, str(path))
        result = parse_option_chain(str(path))
        assert result.report.rows_read == len(chain.records)
        assert result.report.rows_kept == len(chain.records)
        assert result.report.entries == []
        assert result.records == chain.records

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strikes=st.lists(
            st.floats(80.0, 120.0, allow_nan=False), min_size=1, max_size=3, unique=True
        ),
        bars=st.integers(1, 4),
        half_spread=st.sampled_from([0.0, 0.013, 0.25]),
        illiquid_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_chain_round_trips_through_write_and_parse(
        self, seed, strikes, bars, half_spread, illiquid_fraction
    ):
        config = GeneratorConfig(
            strikes=tuple(strikes),
            maturities=(0.25, 1.0),
            bars=bars,
            steps=10,
            half_spread=half_spread,
            illiquid_fraction=illiquid_fraction,
        )
        chain = generate_synthetic_chain(config, seed)
        with tempfile.TemporaryDirectory() as root:
            first = os.path.join(root, "first.csv")
            write_option_chain(chain.records, first)
            parsed = parse_option_chain(first)
            second = os.path.join(root, "second.csv")
            write_option_chain(parsed.records, second)
            reparsed = parse_option_chain(second)
        assert parsed.report.entries == []
        assert parsed.records == chain.records
        assert reparsed.records == parsed.records

    def test_spot_series_round_trips(self, tmp_path):
        chain = generate_synthetic_chain(self.SMALL, seed=13)
        path = tmp_path / "spot.csv"
        write_spot_series(chain.spot_series, str(path))
        assert parse_spot_series(str(path)) == chain.spot_series

    @pytest.mark.parametrize(
        "overrides",
        [
            {"spot": 0.0},
            {"strikes": ()},
            {"strikes": (100.0, -5.0)},
            {"maturities": (0.0,)},
            {"bars": 0},
            {"bar_interval_seconds": 0},
            {"sigma_range": (0.0, 0.3)},
            {"sigma_range": (0.5, 0.2)},
            {"half_spread": -0.01},
            {"steps": 0},
            {"illiquid_fraction": 1.5},
        ],
    )
    def test_invalid_config_raises(self, overrides):
        fields = dict(strikes=(100.0,), maturities=(0.5,), bars=1)
        fields.update(overrides)
        with pytest.raises(InvalidConfig):
            generate_synthetic_chain(GeneratorConfig(**fields), seed=1)
