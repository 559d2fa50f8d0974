"""End-to-end tests for the command-line surface.

Every test drives main() in-process on a small synthetic dataset
(4 bars, 100 lattice steps) so the full parse-enrich-solve-write path
runs in well under a minute.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import chainopt
from chainopt import errors
from chainopt.cli import COMMANDS, RunConfig, load_config_file, main, make_config
from chainopt.errors import ChainOptError, DegenerateProbability, InvalidConfig
from chainopt.market_data import (
    GeneratorConfig,
    generate_synthetic_chain,
    write_option_chain,
    write_spot_series,
)
from chainopt.pricing import tree_parameters


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = main(
        ["synth", "--out", str(root), "--seed", "11", "--set", "bars=4", "--set", "steps=100"]
    )
    assert code == 0
    return root


def chain_args(data_dir, out_dir, **extra: object) -> list[str]:
    args = [
        "--out",
        str(out_dir),
        "--set",
        f"chain_path={data_dir / 'chain.csv'}",
        "--set",
        f"spot_path={data_dir / 'spot.csv'}",
        "--set",
        "steps=100",
    ]
    for key, value in extra.items():
        args.extend(["--set", f"{key}={value}"])
    return args


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The errors that exited 1 before they shared a base class; every other
# ChainOptError exits 2.
CALLER_ERRORS = {
    "InvalidConfig",
    "MissingColumn",
    "MalformedRow",
    "InfeasibleConstraints",
    "InfeasibleIvCap",
    "InvalidIntensity",
    "DegenerateWindow",
    "WindowTooLarge",
    "EmptySnapshot",
    "InsufficientContracts",
    "NonPositiveMid",
    "NoSpot",
    "NoMid",
    "ExpiredContract",
    "CurveTooShort",
}
ERROR_TYPES = sorted(
    (
        value
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, ChainOptError)
        and name != "InputError"
    ),
    key=lambda error: error.__name__,
)

PRICE_COLUMNS = ("Open", "High", "Low", "Last", "Close Bid", "Close Ask", "Mid Close")


def set_prices(path, pick, columns, value="0.0001") -> None:
    """Overwrite the given price columns on every chain row pick(row) accepts;
    rows are dicts keyed by column name."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    for row in rows[1:]:
        if pick(dict(zip(header, row))):
            for name in columns:
                row[header.index(name)] = value
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def synth(root, *settings: str) -> None:
    args = ["synth", "--out", str(root)]
    for setting in settings:
        args.extend(["--set", setting])
    assert main(args) == 0


class TestConfigResolution:
    def test_defaults_without_any_input(self):
        config = make_config({}, {})
        assert config == RunConfig()

    def test_file_values_parsed_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# pricing\nsteps = 250\nrate = 0.03\nabsolute = true\n\nk = 5\n"
        )
        config = make_config(load_config_file(path), {})
        assert config.steps == 250
        assert config.rate == 0.03
        assert config.absolute is True
        assert config.k == 5

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 250\n")
        config = make_config(load_config_file(path), {"steps": "99"})
        assert config.steps == 99

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(InvalidConfig, match="frobnicate"):
            make_config({"frobnicate": "1"}, {})

    def test_unparsable_value_names_the_field(self):
        with pytest.raises(InvalidConfig, match="steps"):
            make_config({"steps": "abc"}, {})

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps 250\n")
        with pytest.raises(InvalidConfig, match=":1"):
            load_config_file(path)

    def test_none_token_clears_optional_field(self):
        config = make_config({"target_return": "none"}, {})
        assert config.target_return is None

    def test_out_of_range_value_rejected(self):
        with pytest.raises(InvalidConfig, match="k must be"):
            make_config({"k": "0"}, {})

    @pytest.mark.parametrize(
        "name", [spec.name for spec in fields(RunConfig) if "float" in str(spec.type)]
    )
    def test_non_finite_float_rejected_by_name(self, name):
        for token in ("nan", "inf", "-inf"):
            with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
                make_config({name: token}, {})

    def test_bool_tokens(self):
        assert make_config({"absolute": "yes"}, {}).absolute is True
        assert make_config({"absolute": "0"}, {}).absolute is False
        with pytest.raises(InvalidConfig, match="absolute"):
            make_config({"absolute": "maybe"}, {})


class TestExitCodes:
    def test_empty_chain_file_reports_no_rows(self, capsys, tmp_path, data_dir):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(
            capsys,
            "iv",
            "--out",
            str(tmp_path / "out"),
            "--set",
            f"chain_path={empty}",
            "--set",
            f"spot_path={data_dir / 'spot.csv'}",
        )
        assert code == 1
        assert "no rows" in err

    def test_header_only_chain_reports_no_rows(self, capsys, tmp_path, data_dir):
        header_only = tmp_path / "header.csv"
        header_only.write_text((data_dir / "chain.csv").read_text().splitlines()[0] + "\n")
        code, _, err = run_cli(
            capsys,
            "iv",
            "--out",
            str(tmp_path / "out"),
            "--set",
            f"chain_path={header_only}",
            "--set",
            f"spot_path={data_dir / 'spot.csv'}",
        )
        assert code == 1
        assert "no rows" in err

    def test_missing_column_is_named(self, capsys, tmp_path, data_dir):
        truncated = tmp_path / "narrow.csv"
        lines = (data_dir / "chain.csv").read_text().splitlines()
        truncated.write_text("\n".join(",".join(line.split(",")[:25]) for line in lines) + "\n")
        code, _, err = run_cli(
            capsys,
            "iv",
            "--out",
            str(tmp_path / "out"),
            "--set",
            f"chain_path={truncated}",
            "--set",
            f"spot_path={data_dir / 'spot.csv'}",
        )
        assert code == 1
        assert "Contract Type" in err

    def test_nan_rate_exits_1_naming_the_field(self, capsys, tmp_path, data_dir):
        code, _, err = run_cli(capsys, "price", *chain_args(data_dir, tmp_path, rate="nan"))
        assert code == 1
        assert "rate must be finite" in err

    @pytest.mark.parametrize("last", ["abc", "nan", "-1"])
    def test_bad_spot_exits_1_naming_the_row(self, capsys, tmp_path, data_dir, last):
        with open(data_dir / "spot.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][rows[0].index("Last")] = last
        spot = tmp_path / "spot.csv"
        with open(spot, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "iv", *chain_args(data_dir, out, spot_path=spot))
        assert code == 1
        assert "spot row 2" in err
        assert not (out / "iv.csv").exists()

    def test_nan_strike_row_is_excluded_not_priced(self, capsys, tmp_path, data_dir):
        with open(data_dir / "chain.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        bad_ric = rows[1][header.index("#RIC")]
        rows[1][header.index("Strike Price")] = "nan"
        chain = tmp_path / "chain.csv"
        with open(chain, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "price", *chain_args(data_dir, out, chain_path=chain))
        assert code == 0
        _, excluded = read_rows(out / "exclusions.csv")
        assert [bad_ric, "malformed_row"] in [row[:2] for row in excluded]
        assert "nan" not in (out / "price.csv").read_text()

    def test_missing_input_file_names_the_field(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "iv",
            "--out",
            str(tmp_path / "out"),
            "--set",
            "chain_path=/nonexistent/chain.csv",
            "--set",
            "spot_path=/nonexistent/spot.csv",
        )
        assert code == 1
        assert "chain_path" in err

    def test_unknown_backtest_strategy_rejected(self, capsys, tmp_path, data_dir):
        code, _, err = run_cli(
            capsys,
            "backtest",
            *chain_args(data_dir, tmp_path / "out", strategy="kelly"),
        )
        assert code == 1
        assert "strategy" in err

    def test_unknown_config_key_via_set(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "selfcheck", "--set", "nonsense=1", "--out", str(tmp_path)
        )
        assert code == 1
        assert "nonsense" in err

    def test_set_without_equals_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "selfcheck", "--set", "steps100")
        assert code == 1
        assert "KEY=VALUE" in err

    def test_every_caller_error_is_known(self):
        assert CALLER_ERRORS <= {error.__name__ for error in ERROR_TYPES}

    @pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda error: error.__name__)
    def test_each_error_type_keeps_its_exit_code(self, capsys, monkeypatch, error):
        def failing(config):
            raise error("boom")

        monkeypatch.setitem(COMMANDS, "price", failing)
        code, out, err = run_cli(capsys, "price")
        assert code == (1 if error.__name__ in CALLER_ERRORS else 2)
        assert (out, err) == ("", "error: boom\n")


class TestSynth:
    def test_writes_chain_spot_and_truth(self, data_dir):
        header, rows = read_rows(data_dir / "chain.csv")
        assert header[0] == "#RIC"
        assert len(rows) == 54 * 4
        _, truth = read_rows(data_dir / "truth.csv")
        assert len(truth) == 54
        assert all(0.2 <= float(sigma) <= 0.5 for _, sigma in truth)

    def test_same_seed_reproduces_bytes(self, capsys, tmp_path):
        for name in ("a", "b"):
            code, _, _ = run_cli(
                capsys,
                "synth",
                "--out",
                str(tmp_path / name),
                "--seed",
                "3",
                "--set",
                "bars=2",
                "--set",
                "steps=50",
            )
            assert code == 0
        assert sha256(tmp_path / "a" / "chain.csv") == sha256(tmp_path / "b" / "chain.csv")
        assert sha256(tmp_path / "a" / "spot.csv") == sha256(tmp_path / "b" / "spot.csv")

    def test_seed_changes_the_chain(self, capsys, tmp_path):
        for name, seed in (("a", "1"), ("b", "2")):
            run_cli(
                capsys,
                "synth",
                "--out",
                str(tmp_path / name),
                "--seed",
                seed,
                "--set",
                "bars=2",
                "--set",
                "steps=50",
            )
        assert sha256(tmp_path / "a" / "chain.csv") != sha256(tmp_path / "b" / "chain.csv")


class TestPriceCommand:
    """price solves each bar's quotes in one batched induction; its rows
    and its errors are those of pricing the quotes one by one."""

    @staticmethod
    def serial_quotes(data, **settings):
        """(quote, PricingInputs) for every quote price solves, in its order."""
        overrides = {"chain_path": str(data / "chain.csv"), "spot_path": str(data / "spot.csv")}
        overrides.update({key: str(value) for key, value in settings.items()})
        config = make_config({}, overrides)
        quotes, _ = chainopt.cli._load_quotes(config)
        return [
            (quote, chainopt.cli._pricing_inputs(quote, config, config.sigma))
            for quote in quotes
        ]

    def test_rows_are_the_single_prices_in_chain_order(self, capsys, tmp_path, data_dir):
        assert run_cli(capsys, "price", *chain_args(data_dir, tmp_path))[0] == 0
        with open(tmp_path / "price.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        expected = self.serial_quotes(data_dir, steps=100)
        assert len(rows) == len(expected) == 54 * 4
        for row, (quote, inputs) in zip(rows, expected):
            assert (row["ric"], row["timestamp"]) == (
                quote.contract.ric,
                quote.timestamp.isoformat(),
            )
            assert row["price"] == repr(chainopt.price_option(inputs))

    def test_degenerate_quote_fails_as_the_serial_loop_does(self, capsys, tmp_path, data_dir):
        # At N=1, sigma=0.06 and r=0.1 the tree degenerates once dt = T >
        # 0.36 years: the 3-month contracts price, the 6- and 12-month ones
        # do not. The first row is a 3-month quote at the first bar and the
        # second a 6-month quote at the second bar, so the first degenerate
        # quote in file order sits in a later bar than the first row.
        with open(data_dir / "chain.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        when, maturity = header.index("Date-Time"), header.index("Maturity")
        stamps = sorted({row[when] for row in rows})
        first = next(r for r in rows if r[when] == stamps[0] and r[maturity] == "2024-04-02")
        second = next(r for r in rows if r[when] == stamps[1] and r[maturity] == "2024-07-02")
        rows.remove(first)
        rows.remove(second)
        data = tmp_path / "data"
        data.mkdir()
        with open(data / "chain.csv", "w", newline="") as handle:
            csv.writer(handle).writerows([header, first, second, *rows])
        (data / "spot.csv").write_bytes((data_dir / "spot.csv").read_bytes())
        settings = dict(steps=1, sigma=0.06, rate=0.1)

        quotes = self.serial_quotes(data, **settings)
        errors_in_order = []
        for quote, inputs in quotes:
            try:
                chainopt.price_option(inputs)
            except DegenerateProbability as exc:
                errors_in_order.append((quote.timestamp, str(exc)))
        first_bar = quotes[0][0].timestamp
        serial_error = errors_in_order[0][1]
        first_bar_error = next(e for stamp, e in errors_in_order if stamp == first_bar)
        assert serial_error != first_bar_error

        code, _, err = run_cli(capsys, "price", *chain_args(data, tmp_path / "out", **settings))
        assert code == 2
        assert err == f"error: {serial_error}\n"


class TestIvCommand:
    def test_round_trip_recovers_truth(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(capsys, "iv", *chain_args(data_dir, tmp_path))
        assert code == 0
        header, rows = read_rows(tmp_path / "iv.csv")
        assert header == [
            "ric",
            "timestamp",
            "market_mid",
            "iv",
            "iterations",
            "method",
            "converged",
        ]
        assert len(rows) == 54 * 4
        assert all(row[6] == "true" for row in rows)
        truth = dict(read_rows(data_dir / "truth.csv")[1])
        for row in rows:
            assert abs(float(row[3]) - float(truth[row[0]])) <= 1e-4

    def test_inputs_not_mutated(self, capsys, tmp_path, data_dir):
        before = sha256(data_dir / "chain.csv"), sha256(data_dir / "spot.csv")
        run_cli(capsys, "iv", *chain_args(data_dir, tmp_path))
        after = sha256(data_dir / "chain.csv"), sha256(data_dir / "spot.csv")
        assert before == after

    def test_writes_exclusion_report(self, capsys, tmp_path, data_dir):
        run_cli(capsys, "iv", *chain_args(data_dir, tmp_path))
        header, _ = read_rows(tmp_path / "exclusions.csv")
        assert header == ["ric", "reason", "detail"]


class TestGreeksCommand:
    def test_schema_and_ranges(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(capsys, "greeks", *chain_args(data_dir, tmp_path))
        assert code == 0
        header, rows = read_rows(tmp_path / "greeks.csv")
        assert header == [
            "ric",
            "timestamp",
            "iv",
            "delta",
            "gamma",
            "theta",
            "vega",
            "rho",
            "region",
        ]
        assert len(rows) == 54 * 4
        for row in rows:
            assert row[8] in ("stopping", "continuation")
            assert -1.0 <= float(row[3]) <= 1.0

    def test_one_lattice_step_exits_1_naming_steps(self, capsys, tmp_path, data_dir):
        args = chain_args(data_dir, tmp_path) + ["--set", "steps=1"]
        code, _, err = run_cli(capsys, "greeks", *args)
        assert code == 1
        assert err == "error: steps must be >= 2 for lattice Greeks, got 1\n"
        assert not (tmp_path / "greeks.csv").exists()


class TestGreeksBarByBar:
    """greeks solves each bar's IVs in lockstep and prices the bar's Greeks
    in one batch. Its rows and exclusions are those of solving the chain
    quote by quote with implied_vol and greek_set, where a quote whose
    Greeks cannot be priced at its IV is excluded, not fatal."""

    # An at-the-money call at the first bar, spot 100, whose mid of 0.016
    # implies a volatility of about 8.1e-4, below the 1e-3 vega bump.
    LOW_IV = "SYN240402C00100000"
    BELOW_INTRINSIC = "SYN240402P00110000"
    # A deep out-of-the-money call at the first bar whose solve needs 5
    # prices.
    SLOW = "SYN240402C00110000"
    SETTINGS = dict(steps=50, rate=0.0, max_iterations=3)

    @pytest.fixture(scope="class")
    def shuffled_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("greeks_bars")
        synth(root, "steps=50", "rate=0.0", "bars=3")
        chain = root / "chain.csv"
        with open(chain, newline="") as handle:
            stamps = sorted({row["Date-Time"] for row in csv.DictReader(handle)})
        columns = ("Close Bid", "Close Ask", "Mid Close")
        for ric, stamp, value in (
            (self.LOW_IV, stamps[0], "0.016"),
            (self.BELOW_INTRINSIC, stamps[1], "0.0001"),
            (self.SLOW, stamps[0], "0.002"),
        ):
            set_prices(
                chain, lambda row: (row["#RIC"], row["Date-Time"]) == (ric, stamp), columns, value
            )
        with open(chain, newline="") as handle:
            header, *rows = list(csv.reader(handle))
        random.Random(17).shuffle(rows)
        with open(chain, "w", newline="") as handle:
            csv.writer(handle).writerows([header] + rows)
        return root

    def args(self, data, out, **extra):
        return chain_args(data, out, **self.SETTINGS, **extra)

    def serial(self, data):
        """greeks.csv's rows and exclusions.csv's entries, solved quote by
        quote in chain order."""
        overrides = {"chain_path": str(data / "chain.csv"), "spot_path": str(data / "spot.csv")}
        overrides.update({key: str(value) for key, value in self.SETTINGS.items()})
        config = make_config({}, overrides)
        quotes, exclusions = chainopt.cli._load_quotes(config)
        opts = chainopt.cli._solver_options(config)
        rows = [["ric", "timestamp", "iv", "delta", "gamma", "theta", "vega", "rho", "region"]]
        excluded = [[entry.ric, entry.reason, entry.detail] for entry in exclusions]
        for quote in quotes:
            ric = quote.contract.ric
            row = [ric, quote.timestamp.isoformat()]
            try:
                solution = chainopt.implied_vol(
                    quote.mid, chainopt.cli._pricing_inputs(quote, config, config.sigma), opts
                )
            except errors.ArbitrageViolation:
                solution = None
            greeks = None
            if solution is not None and solution.converged:
                inputs = chainopt.cli._pricing_inputs(quote, config, solution.sigma)
                try:
                    greeks = chainopt.greek_set(inputs)
                except (errors.NegativeVolAfterBump, DegenerateProbability) as error:
                    excluded.append([ric, type(error).__name__, str(error)])
            if greeks is None:
                rows.append(row + [""] * 7)
                continue
            values = (greeks.delta, greeks.gamma, greeks.theta, greeks.vega, greeks.rho)
            region = greeks.region.value if greeks.region is not None else ""
            rows.append(row + [repr(solution.sigma)] + [repr(v) for v in values] + [region])
        return rows, excluded

    def test_rows_and_exclusions_are_the_serial_ones(self, capsys, tmp_path, shuffled_dir):
        code, _, err = run_cli(capsys, "greeks", *self.args(shuffled_dir, tmp_path / "out"))
        assert code == 0, err
        rows, excluded = self.serial(shuffled_dir)
        stamps = [row[1] for row in rows[1:]]
        assert stamps != sorted(stamps)
        assert [entry[:2] for entry in excluded] == [[self.LOW_IV, "NegativeVolAfterBump"]]
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        assert (tmp_path / "out" / "greeks.csv").read_bytes() == expected.read_bytes()
        with open(tmp_path / "out" / "exclusions.csv", newline="") as handle:
            assert list(csv.reader(handle))[1:] == excluded

        # The quote below intrinsic has no IV, and the slow solve stops
        # unconverged at max_iterations.
        assert run_cli(capsys, "iv", *self.args(shuffled_dir, tmp_path / "iv"))[0] == 0
        with open(tmp_path / "iv" / "iv.csv", newline="") as handle:
            unsolved = {
                (row["ric"], row["iv"] != "")
                for row in csv.DictReader(handle)
                if row["converged"] == "false"
            }
        assert unsolved == {(self.BELOW_INTRINSIC, False), (self.SLOW, True)}

    def test_one_greeks_call_per_bar(self, capsys, monkeypatch, tmp_path, data_dir):
        assert run_cli(capsys, "iv", *chain_args(data_dir, tmp_path / "iv"))[0] == 0
        with open(tmp_path / "iv" / "iv.csv", newline="") as handle:
            solved = list(csv.DictReader(handle))
        converged = Counter(row["timestamp"] for row in solved if row["converged"] == "true")
        calls: dict[str, list[int]] = {"chainopt.greeks": [], "chainopt.implied_vol": []}
        for name, rows_per_call in calls.items():
            module = sys.modules[name]

            def counted(rows, real=module.build_lattices, rows_per_call=rows_per_call):
                rows_per_call.append(len(rows))
                return real(rows)

            monkeypatch.setattr(module, "build_lattices", counted)
        assert run_cli(capsys, "greeks", *chain_args(data_dir, tmp_path / "greeks"))[0] == 0
        assert calls["chainopt.greeks"] == [5 * converged[stamp] for stamp in sorted(converged)]
        assert sum(calls["chainopt.implied_vol"]) == sum(int(row["iterations"]) for row in solved)

    @pytest.mark.parametrize(
        "command, settings",
        [("select", {}), ("backtest", {"strategy": "long_short"})],
    )
    def test_bar_commands_exclude_the_quote_once(
        self, capsys, tmp_path, shuffled_dir, command, settings
    ):
        args = self.args(shuffled_dir, tmp_path, metric="delta", k=2, **settings)
        code, _, err = run_cli(capsys, command, *args)
        assert code == 0, err
        _, written = read_rows(tmp_path / "exclusions.csv")
        assert [row[0] for row in written if row[1] == "NegativeVolAfterBump"] == [self.LOW_IV]


@pytest.fixture(scope="module")
def last_day_dir(tmp_path_factory):
    """A chain whose first expiry has less than one day of life left."""
    root = tmp_path_factory.mktemp("cli_last_day")
    config = GeneratorConfig(
        maturities=(1.0 / 365.0, 0.25), bars=2, bar_interval_seconds=300, steps=200
    )
    chain = generate_synthetic_chain(config, 0)
    write_option_chain(chain.records, str(root / "chain.csv"))
    write_spot_series(chain.spot_series, str(root / "spot.csv"))
    return root


class TestLastDayContracts:
    def test_greeks_gives_every_converged_row_a_finite_theta(
        self, capsys, tmp_path, last_day_dir
    ):
        code, _, err = run_cli(capsys, "greeks", *chain_args(last_day_dir, tmp_path))
        assert code == 0, err
        _, rows = read_rows(tmp_path / "greeks.csv")
        converged = [row for row in rows if row[2]]
        # SYN240103...: the contracts that expire the day after the first bar.
        assert any(row[0].startswith("SYN240103") for row in converged)
        assert all(math.isfinite(float(row[5])) for row in converged)

    def test_select_by_theta(self, capsys, tmp_path, last_day_dir):
        args = chain_args(last_day_dir, tmp_path, metric="theta", k=2)
        code, _, err = run_cli(capsys, "select", *args)
        assert code == 0, err
        _, rows = read_rows(tmp_path / "select.csv")
        assert len(rows) == 2 * (2 + 2)  # two bars, k top and k bottom each


class TestSelectCommand:
    def test_two_k_rows_per_bar(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(capsys, "select", *chain_args(data_dir, tmp_path, k=2))
        assert code == 0
        header, rows = read_rows(tmp_path / "select.csv")
        assert header == ["timestamp", "ric", "score", "side", "rank"]
        assert len(rows) == 4 * 4
        stamps = {row[0] for row in rows}
        assert len(stamps) == 4
        for stamp in stamps:
            sides = [row[3] for row in rows if row[0] == stamp]
            assert sides.count("top") == 2
            assert sides.count("bottom") == 2

    def test_top_scores_dominate_bottom(self, capsys, tmp_path, data_dir):
        run_cli(capsys, "select", *chain_args(data_dir, tmp_path, k=2))
        _, rows = read_rows(tmp_path / "select.csv")
        stamp = rows[0][0]
        top = [float(r[2]) for r in rows if r[0] == stamp and r[3] == "top"]
        bottom = [float(r[2]) for r in rows if r[0] == stamp and r[3] == "bottom"]
        assert min(top) >= max(bottom)

    def test_exclusion_details_with_commas_stay_one_field(self, capsys, tmp_path):
        # A contract priced at 0.0001 everywhere has no IV and so no Greeks;
        # the ranking excludes it with the detail "absent: delta, gamma".
        synth(tmp_path, "steps=20", "seed=3")
        chain = tmp_path / "chain.csv"
        with open(chain, newline="") as handle:
            first = next(csv.DictReader(handle))["#RIC"]
        set_prices(chain, lambda row: row["#RIC"] == first, PRICE_COLUMNS)
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "select",
            *chain_args(
                tmp_path, out, steps=20, metric="combined", components="delta,gamma"
            ),
        )
        assert code == 0
        with open(out / "exclusions.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["ric", "reason", "detail"]
        assert any("," in row[2] for row in rows[1:])
        assert all(len(row) == 3 for row in rows)


class TestOptimizeCommand:
    def test_box_weights_feasible(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(
            capsys,
            "optimize",
            *chain_args(data_dir, tmp_path, k=2, strategy="box", upper="0.6"),
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "optimize.csv")
        assert header == ["timestamp", "ric", "weight", "strategy", "objective_value"]
        weights = [float(row[2]) for row in rows]
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)
        assert all(0.01 - 1e-9 <= w <= 0.6 + 1e-9 for w in weights)
        assert all(row[3] == "box" for row in rows)

    def test_long_short_not_an_optimizer(self, capsys, tmp_path, data_dir):
        code, _, err = run_cli(
            capsys,
            "optimize",
            *chain_args(data_dir, tmp_path, strategy="long_short"),
        )
        assert code == 1
        assert "strategy" in err


class TestBacktestCommand:
    def test_long_short_weights_are_plus_minus_one_over_2k(
        self, capsys, tmp_path, data_dir
    ):
        code, _, _ = run_cli(
            capsys,
            "backtest",
            *chain_args(data_dir, tmp_path, strategy="long_short", k=3),
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "weights.csv")
        assert rows
        assert all(abs(float(row[2])) == pytest.approx(1.0 / 6.0) for row in rows)

    def test_equity_starts_at_one(self, capsys, tmp_path, data_dir):
        run_cli(capsys, "backtest", *chain_args(data_dir, tmp_path, strategy="long_short"))
        _, rows = read_rows(tmp_path / "equity.csv")
        assert float(rows[0][1]) == 1.0
        assert len(rows) == 4

    def test_rerun_is_byte_identical_modulo_timestamp(self, capsys, tmp_path, data_dir):
        args = chain_args(data_dir, tmp_path, strategy="long_short", k=2)
        snapshots = []
        for _ in range(2):
            code, _, _ = run_cli(capsys, "backtest", *args)
            assert code == 0
            report = json.loads((tmp_path / "report.json").read_text())
            report.pop("generated_at")
            snapshots.append(
                (
                    sha256(tmp_path / "equity.csv"),
                    sha256(tmp_path / "weights.csv"),
                    report,
                )
            )
        assert snapshots[0] == snapshots[1]

    def test_dynamic_two_asset_universe_infeasible(self, capsys, tmp_path, data_dir):
        code, _, err = run_cli(
            capsys,
            "backtest",
            *chain_args(data_dir, tmp_path, strategy="dynamic", k=1),
        )
        assert code == 1
        assert "cannot sum to 1" in err

    def test_dynamic_with_relaxed_bounds_runs(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(
            capsys,
            "backtest",
            *chain_args(
                data_dir,
                tmp_path,
                strategy="dynamic",
                k=1,
                upper="0.9",
                estimation_window=2,
            ),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["estimation_window"] == 2

    def test_dynamic_window_longer_than_history_rejected(
        self, capsys, tmp_path, data_dir
    ):
        code, _, err = run_cli(
            capsys, "backtest", *chain_args(data_dir, tmp_path, strategy="dynamic")
        )
        assert code == 1
        assert "30" in err and "3 return rows" in err
        assert not (tmp_path / "weights.csv").exists()

    def test_dynamic_iv_cap_member_without_bar_zero_iv(self, capsys, tmp_path):
        # The highest-sigma contract has no IV at bar 0 but is selected
        # later; the cap reads the IVs of the snapshot each universe was
        # ranked on. A cap at the top of the sigma range cannot bind.
        synth(tmp_path, "steps=20", "seed=11", "bars=40", "bar_interval_seconds=300")
        with open(tmp_path / "truth.csv", newline="") as handle:
            truth = list(csv.DictReader(handle))
        top = max(truth, key=lambda row: float(row["sigma"]))["ric"]
        chain = tmp_path / "chain.csv"
        with open(chain, newline="") as handle:
            first_bar = next(csv.DictReader(handle))["Date-Time"]
        set_prices(
            chain,
            lambda row: row["#RIC"] == top and row["Date-Time"] == first_bar,
            ("Close Bid", "Close Ask", "Mid Close"),
        )
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "backtest",
            *chain_args(tmp_path, out, steps=20, strategy="dynamic", k=5, iv_cap=0.5),
        )
        assert code == 0
        _, rows = read_rows(out / "weights.csv")
        assert top in {row[1] for row in rows}

    def test_dynamic_binding_iv_cap_finishes_within_the_box(self, capsys, caplog, tmp_path):
        # Five-minute returns give a gradient step of about 1e4; with the
        # cap binding, every rebalance once ran the projection to its
        # iteration limit and the command never finished.
        synth(tmp_path, "bars=40", "bar_interval_seconds=300", "steps=20", "seed=11")
        out = tmp_path / "out"
        with caplog.at_level(logging.DEBUG, logger="chainopt.optimizer"):
            code, _, _ = run_cli(
                capsys,
                "backtest",
                *chain_args(tmp_path, out, steps=20, strategy="dynamic", k=5, iv_cap=0.30),
            )
        assert code == 0
        converged = re.compile(r"box solve converged after (\d+) iterations")
        iterations = [
            int(match.group(1))
            for record in caplog.records
            if (match := converged.fullmatch(record.getMessage()))
        ]
        assert iterations and max(iterations) <= 10
        truth = {ric: float(sigma) for ric, sigma in read_rows(tmp_path / "truth.csv")[1]}
        books: dict[str, dict[str, float]] = {}
        for stamp, ric, weight in read_rows(out / "weights.csv")[1]:
            books.setdefault(stamp, {})[ric] = float(weight)
        assert len(books) == len(iterations)
        for book in books.values():
            assert all(0.01 - 1e-12 <= w <= 0.40 + 1e-12 for w in book.values())
            assert abs(sum(book.values()) - 1.0) <= 1e-8
            # The IVs are recovered from zero-spread mids at the generating
            # N, so they match the true sigmas to the solver's tolerance.
            assert sum(w * truth[ric] for ric, w in book.items()) <= 0.30 + 1e-4

    def test_report_echoes_resolved_config(self, capsys, tmp_path, data_dir):
        run_cli(
            capsys,
            "backtest",
            *chain_args(data_dir, tmp_path, strategy="long_short", k=2),
        )
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config["strategy"] == "long_short"
        assert config["k"] == 2
        assert config["steps"] == 100
        assert config["seed"] == 0
        assert config["chain_path"].endswith("chain.csv")

    def test_shrinkage_static_strategy_runs(self, capsys, tmp_path, data_dir):
        code, _, _ = run_cli(
            capsys,
            "backtest",
            *chain_args(data_dir, tmp_path, strategy="shrinkage", k=2),
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "weights.csv")
        weights = [float(row[2]) for row in rows]
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)


@pytest.fixture(scope="module")
def window_dir(tmp_path_factory):
    """16 five-minute bars: more return rows than a 10-bar estimation window."""
    root = tmp_path_factory.mktemp("cli_window")
    synth(root, "seed=11", "steps=20", "bars=16", "bar_interval_seconds=300")
    return root


# Two members (k=1) keep the 10-row sample covariance invertible for the
# closed-form solvers; upper=0.9 makes a two-asset box feasible.
STRATEGY_SETTINGS = dict(steps=20, k=1, upper=0.9, estimation_window=10)


class TestEveryStrategy:
    @pytest.mark.parametrize("strategy", ["markowitz", "riskfree", "shrinkage", "robust", "box"])
    def test_optimize(self, capsys, tmp_path, window_dir, strategy):
        args = chain_args(window_dir, tmp_path, strategy=strategy, **STRATEGY_SETTINGS)
        code, _, err = run_cli(capsys, "optimize", *args)
        assert code == 0, err
        _, rows = read_rows(tmp_path / "optimize.csv")
        assert {row[3] for row in rows} == {strategy}
        rics = [row[1] for row in rows]
        assert len(rics) == 2 + (strategy == "riskfree")
        assert ("CASH" in rics) == (strategy == "riskfree")
        weights = [float(row[2]) for row in rows]
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)
        if strategy == "box":
            assert all(0.01 - 1e-9 <= w <= 0.9 + 1e-9 for w in weights)

    @pytest.mark.parametrize(
        "strategy",
        ["long_short", "dynamic", "markowitz", "riskfree", "shrinkage", "robust"],
    )
    def test_backtest(self, capsys, tmp_path, window_dir, strategy):
        args = chain_args(window_dir, tmp_path, strategy=strategy, **STRATEGY_SETTINGS)
        code, _, err = run_cli(capsys, "backtest", *args)
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["strategy"] == strategy
        _, equity = read_rows(tmp_path / "equity.csv")
        assert len(equity) == 16
        assert float(equity[0][1]) == 1.0
        _, weights = read_rows(tmp_path / "weights.csv")
        assert weights

    def test_backtest_rejects_box(self, capsys, tmp_path, window_dir):
        args = chain_args(window_dir, tmp_path, strategy="box", **STRATEGY_SETTINGS)
        code, _, err = run_cli(capsys, "backtest", *args)
        assert code == 1
        assert "strategy" in err


class TestOutputQuoting:
    def test_ric_with_a_comma_stays_one_field(self, capsys, tmp_path, data_dir):
        with open(data_dir / "chain.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        column = rows[0].index("#RIC")
        original = rows[1][column]
        quoted = original.replace("SYN", "SYN,", 1)
        for row in rows[1:]:
            if row[column] == original:
                row[column] = quoted
        chain = tmp_path / "chain.csv"
        with open(chain, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "iv", *chain_args(data_dir, out, chain_path=chain))
        assert code == 0
        with open(out / "iv.csv", newline="") as handle:
            table = list(csv.reader(handle))
        assert {len(row) for row in table} == {7}
        assert quoted in {row[0] for row in table[1:]}


class TestSubToleranceQuotes:
    """A contract on its last day whose mid is at or below the 1e-6 price
    tolerance: every low enough volatility prices within tolerance of it,
    so the solve is rejected rather than reported converged at the seed."""

    @pytest.fixture(scope="class")
    def last_day_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("last_day")
        generator = GeneratorConfig(
            maturities=(1 / 365, 0.25), bars=2, bar_interval_seconds=300, steps=200
        )
        chain = generate_synthetic_chain(generator, 0)
        write_option_chain(chain.records, str(root / "chain.csv"))
        write_spot_series(chain.spot_series, str(root / "spot.csv"))
        return root

    def run(self, capsys, command, data, out, **extra):
        args = chain_args(data, out, **extra)
        args[args.index("steps=100")] = "steps=200"
        code, _, _ = run_cli(capsys, command, *args)
        assert code == 0

    def test_iv_leaves_them_blank_and_unconverged(self, capsys, tmp_path, last_day_dir):
        self.run(capsys, "iv", last_day_dir, tmp_path)
        header, rows = read_rows(tmp_path / "iv.csv")
        mid, iv = header.index("market_mid"), header.index("iv")
        tiny = [row for row in rows if float(row[mid]) <= 1e-6]
        assert len(tiny) == 8
        assert all(row[iv:] == ["", "0", "", "false"] for row in tiny)

    def test_select_reports_them_missing(self, capsys, tmp_path, last_day_dir):
        self.run(capsys, "select", last_day_dir, tmp_path, metric="delta")
        _, excluded = read_rows(tmp_path / "exclusions.csv")
        missing = {row[0] for row in excluded if row[1] == "missing_analytics"}
        assert missing >= {
            "SYN240103P00090000",
            "SYN240103P00092500",
            "SYN240103C00107500",
            "SYN240103C00110000",
        }


class TestUnsolvedQuotesInLockstep:
    """select and backtest solve each bar's IVs in lockstep, and must
    leave out exactly the quotes that iv leaves blank or unconverged: one
    quoted below intrinsic value, and one whose mid implies a volatility
    low enough that its solve meets degenerate trees."""

    BELOW_INTRINSIC = "SYN240402P00110000"
    NEAR_ZERO = "SYN240702C00102500"

    @pytest.fixture(scope="class")
    def unsolved_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("unsolved")
        synth(root, "steps=20", "bars=6", "bar_interval_seconds=300", "seed=11")
        chain = root / "chain.csv"
        with open(chain, newline="") as handle:
            stamps = sorted({row["Date-Time"] for row in csv.DictReader(handle)})
        columns = ("Close Bid", "Close Ask", "Mid Close")
        for ric, stamp, value in (
            (self.BELOW_INTRINSIC, stamps[1], "0.0001"),
            (self.NEAR_ZERO, stamps[2], "0.001"),
        ):
            set_prices(
                chain, lambda row: (row["#RIC"], row["Date-Time"]) == (ric, stamp), columns, value
            )
        return root

    def run(self, capsys, command, data, out, **extra):
        args = chain_args(data, out, max_iterations=10, **extra)
        args[args.index("steps=100")] = "steps=20"
        assert run_cli(capsys, command, *args)[0] == 0

    @staticmethod
    def missing(out):
        _, excluded = read_rows(out / "exclusions.csv")
        return Counter(row[0] for row in excluded if row[1] == "missing_analytics")

    def unsolved(self, capsys, data, out):
        """{timestamp: rics} that iv leaves blank or unconverged."""
        self.run(capsys, "iv", data, out)
        unsolved: dict[str, list[str]] = {}
        with open(out / "iv.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                unsolved.setdefault(row["timestamp"], [])
                if row["iv"] == "" or row["converged"] == "false":
                    unsolved[row["timestamp"]].append(row["ric"])
        return unsolved

    def test_select_and_backtest_leave_out_what_iv_cannot_solve(
        self, capsys, monkeypatch, tmp_path, unsolved_dir
    ):
        unsolved = self.unsolved(capsys, unsolved_dir, tmp_path / "iv")
        by_bar = list(unsolved.values())
        assert self.BELOW_INTRINSIC in by_bar[1]
        assert self.NEAR_ZERO in by_bar[2]

        module = sys.modules["chainopt.pricing"]
        degenerate = []

        def recording(inputs):
            try:
                return tree_parameters(inputs)
            except DegenerateProbability:
                degenerate.append(inputs.volatility)
                raise

        monkeypatch.setattr(module, "tree_parameters", recording)
        self.run(capsys, "select", unsolved_dir, tmp_path / "select", metric="iv")
        assert degenerate
        assert self.missing(tmp_path / "select") == Counter(sum(by_bar, []))

        # Each return row is ranked on the bar before it, so the last
        # bar's quotes are never solved.
        out = tmp_path / "backtest"
        self.run(
            capsys, "backtest", unsolved_dir, out, strategy="dynamic", estimation_window=2
        )
        assert self.missing(out) == Counter(sum(by_bar[:-1], []))


def rows_by_quote(path, value_column):
    """{(ric, timestamp): the row's value_column} of an output table."""
    with open(path, newline="") as handle:
        rows = csv.DictReader(handle)
        return {(row["ric"], row["timestamp"]): row[value_column] for row in rows}


class TestIvIsAFunctionOfItsQuote:
    """Every IV solve starts from the quote's own cold seed, so its IV
    depends neither on the chain's other rows nor on the command."""

    def test_shuffled_and_duplicated_rows_give_identical_ivs(
        self, capsys, tmp_path, data_dir
    ):
        with open(data_dir / "chain.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        rows.append(rows[7])
        random.Random(5).shuffle(rows)
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        with open(shuffled / "chain.csv", "w", newline="") as handle:
            csv.writer(handle).writerows([header] + rows)
        (shuffled / "spot.csv").write_bytes((data_dir / "spot.csv").read_bytes())
        for source, out in ((data_dir, tmp_path / "a"), (shuffled, tmp_path / "b")):
            assert run_cli(capsys, "iv", *chain_args(source, out))[0] == 0
        ivs = rows_by_quote(tmp_path / "a" / "iv.csv", "iv")
        assert len(ivs) == 54 * 4
        with open(tmp_path / "b" / "iv.csv", newline="") as handle:
            solved = list(csv.DictReader(handle))
        assert len(solved) == len(ivs) + 1
        for row in solved:
            assert row["iv"] == ivs[(row["ric"], row["timestamp"])]

    def test_iv_greeks_and_select_share_every_iv(self, capsys, tmp_path, data_dir):
        for command in ("iv", "greeks", "select"):
            args = chain_args(data_dir, tmp_path / command, metric="iv", k=5)
            assert run_cli(capsys, command, *args)[0] == 0
        ivs = rows_by_quote(tmp_path / "iv" / "iv.csv", "iv")
        assert rows_by_quote(tmp_path / "greeks" / "greeks.csv", "iv") == ivs
        scores = rows_by_quote(tmp_path / "select" / "select.csv", "score")
        assert len(scores) == 2 * 5 * 4
        for quote, score in scores.items():
            assert float(score) == float(ivs[quote])


class TestSelfcheck:
    def test_all_checks_pass_at_default_steps(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck")
        assert code == 0
        passes = [line for line in out.splitlines() if line.endswith(": PASS")]
        assert len(passes) >= 10
        assert "FAIL" not in out

    def test_steps_five_fails_convergence(self, capsys):
        code, out, _ = run_cli(capsys, "selfcheck", "--set", "steps=5")
        assert code != 0
        assert "lattice_converges_to_closed_form: FAIL" in out

    def test_checks_are_named(self, capsys):
        _, out, _ = run_cli(capsys, "selfcheck")
        assert "iv_round_trip" in out
        assert "put_call_parity" in out
        assert "frontier_monotone" in out


class TestModuleEntryPoint:
    def run_help(self, *args: str) -> subprocess.CompletedProcess:
        src = str(Path(chainopt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args, "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )

    def test_python_dash_m_help_is_clean(self):
        result = self.run_help("-m", "chainopt")
        assert result.returncode == 0
        assert result.stderr == ""
        assert "backtest" in result.stdout

    def test_cli_module_runs_without_warnings(self):
        # Importing the package must not import chainopt.cli, or runpy
        # warns that the module is already in sys.modules.
        result = self.run_help("-W", "error", "-m", "chainopt.cli")
        assert result.returncode == 0
        assert result.stderr == ""
        assert "backtest" in result.stdout
