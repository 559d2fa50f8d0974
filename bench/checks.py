"""Output checks against independent oracles.

Each check reads the files a command wrote and the inputs the benchmark
generated, and returns a list of problems (empty when the output is
correct). None of them compares against a stored copy of earlier output:

* iv: every row converges and recovers the generator's true sigma.
* greeks: calls (q = 0, so American = European) match Black-Scholes
  closed forms computed here; puts obey sign and range bounds; no gamma
  is negative.
* backtest dynamic: weights lie in the box, sum to one, respect the IV
  cap under the true sigmas, hold the top/bottom-k by true sigma, and the
  equity curve replays from weights.csv and the chain's mids.
"""

from __future__ import annotations

import csv
import math
import os
from collections import defaultdict
from datetime import date, datetime, time, timezone

from layers import BOX, SpanTree, screened_quotes, solve_prices
from workloads import RATE, Inputs, Workload

YEAR_SECONDS = 365.0 * 86400.0

# |iv - true sigma|: the chain is generated and solved at one N, so only
# the solver's price tolerance (1e-6) separates the two.
IV_TOLERANCE = 1e-4

# Lattice Greeks at N=500 against Black-Scholes for the calls of
# greeks_chain, as (absolute, relative); a value passes if either bound
# holds. Over seeds 0-39 (1,200 call rows) the largest errors were: delta
# 3.1e-4 absolute, theta 3.2%, vega 3.5%, rho 0.13%. Each bound is at
# least twice that, and far below the error of a wrong formula or unit.
# Gamma is left out: gamma_fd's 1% spot bump on this lattice is off by up
# to 4.4x (and reads 0 where the bumps fall between nodes), so only its
# sign is checked, against the project's own -1e-6 convexity bound.
GREEK_TOLERANCES = {
    "delta": (1e-3, 0.0),
    "theta": (0.0, 0.08),
    "vega": (0.0, 0.08),
    "rho": (0.0, 0.005),
}
GAMMA_FLOOR = -1e-6

WEIGHT_TOLERANCE = 1e-9
BUDGET_TOLERANCE = 1e-8
EQUITY_TOLERANCE = 1e-12


def _read_rows(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class Chain:
    """The generated chain, read back from the files the benchmark wrote."""

    def __init__(self, inputs: Inputs):
        self.truth = {
            row["ric"]: float(row["sigma"]) for row in _read_rows(inputs.truth_path)
        }
        self.spot = {
            datetime.fromisoformat(row["Date-Time"]): float(row["Last"])
            for row in _read_rows(inputs.spot_path)
        }
        self.terms: dict[str, tuple[str, float, date]] = {}
        self.mid: dict[tuple[str, datetime], float] = {}
        for row in _read_rows(inputs.chain_path):
            ric = row["#RIC"]
            self.terms[ric] = (
                row["Contract Type"],
                float(row["Strike Price"]),
                date.fromisoformat(row["Maturity"]),
            )
            bid, ask = float(row["Close Bid"]), float(row["Close Ask"])
            self.mid[(ric, datetime.fromisoformat(row["Date-Time"]))] = 0.5 * (bid + ask)
        self.timeline = sorted(self.spot)

    def time_to_maturity(self, ric: str, when: datetime) -> float:
        # ACT/365 to midnight UTC of the maturity date.
        expiry = datetime.combine(self.terms[ric][2], time(0, 0), tzinfo=timezone.utc)
        return (expiry - when).total_seconds() / YEAR_SECONDS


def check_iv(out_dir: str, chain: Chain, workload: Workload) -> list[str]:
    rows = _read_rows(os.path.join(out_dir, "iv.csv"))
    problems = []
    if len(rows) != len(chain.mid):
        problems.append(f"iv.csv has {len(rows)} rows for {len(chain.mid)} quotes")
    seen = set()
    for row in rows:
        key = (row["ric"], datetime.fromisoformat(row["timestamp"]))
        seen.add(key)
        if row["converged"] != "true":
            problems.append(f"{key[0]} at {row['timestamp']}: not converged")
            continue
        error = abs(float(row["iv"]) - chain.truth[key[0]])
        if not error <= IV_TOLERANCE:
            problems.append(f"{key[0]} at {row['timestamp']}: |iv - sigma| = {error:.3g}")
    if seen != set(chain.mid):
        problems.append("iv.csv does not cover each (contract, bar) exactly once")
    return problems


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def black_scholes_call_greeks(
    spot: float, strike: float, t: float, rate: float, sigma: float
) -> dict[str, float]:
    """Closed-form call delta, theta, vega and rho with no dividend; theta is
    per year of calendar time."""
    root_t = math.sqrt(t)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * t) / (sigma * root_t)
    d2 = d1 - sigma * root_t
    disc_k = strike * math.exp(-rate * t)
    return {
        "delta": _norm_cdf(d1),
        "theta": -spot * _norm_pdf(d1) * sigma / (2.0 * root_t) - rate * disc_k * _norm_cdf(d2),
        "vega": spot * _norm_pdf(d1) * root_t,
        "rho": disc_k * t * _norm_cdf(d2),
    }


def _within(value: float, reference: float, absolute: float, relative: float) -> bool:
    error = abs(value - reference)
    return error <= absolute or error <= relative * abs(reference)


def check_greeks(out_dir: str, chain: Chain, workload: Workload) -> list[str]:
    rows = _read_rows(os.path.join(out_dir, "greeks.csv"))
    problems = []
    if len(rows) != len(chain.mid):
        problems.append(f"greeks.csv has {len(rows)} rows for {len(chain.mid)} quotes")
    for row in rows:
        ric, when = row["ric"], datetime.fromisoformat(row["timestamp"])
        where = f"{ric} at {row['timestamp']}"
        if not row["iv"]:
            problems.append(f"{where}: no implied vol")
            continue
        iv_error = abs(float(row["iv"]) - chain.truth[ric])
        if not iv_error <= IV_TOLERANCE:
            problems.append(f"{where}: |iv - sigma| = {iv_error:.3g}")
        value = {name: float(row[name]) for name in ("delta", "gamma", "theta", "vega", "rho")}
        if not value["gamma"] >= GAMMA_FLOOR:
            problems.append(f"{where}: gamma {value['gamma']!r} < {GAMMA_FLOOR}")
        kind, strike, _ = chain.terms[ric]
        if kind == "C":
            if row["region"] != "continuation":
                problems.append(f"{where}: call in region {row['region']!r}")
            reference = black_scholes_call_greeks(
                chain.spot[when],
                strike,
                chain.time_to_maturity(ric, when),
                RATE,
                chain.truth[ric],
            )
            for name, (absolute, relative) in GREEK_TOLERANCES.items():
                if not _within(value[name], reference[name], absolute, relative):
                    problems.append(
                        f"{where}: {name} {value[name]!r} vs Black-Scholes {reference[name]!r}"
                    )
            continue
        if not -1.0 <= value["delta"] <= 0.0:
            problems.append(f"{where}: put delta {value['delta']!r} outside [-1, 0]")
        if not value["vega"] >= 0.0:
            problems.append(f"{where}: put vega {value['vega']!r} < 0")
        if not value["rho"] <= 0.0:
            problems.append(f"{where}: put rho {value['rho']!r} > 0")
        if row["region"] not in ("stopping", "continuation"):
            problems.append(f"{where}: region {row['region']!r}")
        if row["region"] == "stopping" and value["delta"] != -1.0:
            problems.append(f"{where}: stopping-region delta {value['delta']!r} != -1")
    return problems


def read_weights(out_dir: str) -> dict[datetime, dict[str, float]]:
    weights: dict[datetime, dict[str, float]] = defaultdict(dict)
    for row in _read_rows(os.path.join(out_dir, "weights.csv")):
        weights[datetime.fromisoformat(row["timestamp"])][row["ric"]] = float(row["weight"])
    return dict(weights)


def failed_rebalances(out_dir: str) -> int:
    with open(os.path.join(out_dir, "events.log")) as handle:
        return sum(1 for line in handle if "rebalance failed" in line)


def _replay_equity(
    chain: Chain, decisions: dict[datetime, dict[str, float]]
) -> list[float]:
    """The engine's accounting: weights drift with returns between
    decisions, a decision resets them, the residual sits in cash at a
    zero rate."""
    weights: dict[str, float] = {}
    cash = 1.0
    equity = [1.0]
    for previous, now in zip(chain.timeline, chain.timeline[1:]):
        if now in decisions:
            weights = dict(decisions[now])
            cash = 1.0 - sum(weights.values())
        growth = {}
        portfolio_return = 0.0
        for ric, weight in weights.items():
            bar_return = chain.mid[(ric, now)] / chain.mid[(ric, previous)] - 1.0
            growth[ric] = 1.0 + bar_return
            portfolio_return += weight * bar_return
        scale = 1.0 + portfolio_return
        equity.append(equity[-1] * scale)
        weights = {ric: w * growth[ric] / scale for ric, w in weights.items()}
        cash = cash / scale
    return equity


def check_dynamic(out_dir: str, chain: Chain, workload: Workload) -> list[str]:
    settings = workload.settings
    cap, k = settings["iv_cap"], settings["k"]
    lower, upper = settings["lower"], settings["upper"]
    decisions = read_weights(out_dir)
    problems = []
    if failed_rebalances(out_dir):
        problems.append("events.log reports failed rebalances")
    expected_stamps = chain.timeline[1 + settings["estimation_window"] :]
    if sorted(decisions) != expected_stamps:
        problems.append(
            f"{len(decisions)} rebalances, expected one at each of the "
            f"{len(expected_stamps)} bars after the estimation window"
        )
    by_sigma = sorted(chain.truth, key=lambda ric: (chain.truth[ric], ric))
    expected_members = set(by_sigma[:k]) | set(by_sigma[-k:])
    for stamp, book in sorted(decisions.items()):
        where = stamp.isoformat()
        if set(book) != expected_members:
            problems.append(f"{where}: members {sorted(book)} are not the top/bottom {k} by sigma")
            continue
        for ric, weight in book.items():
            if not lower - WEIGHT_TOLERANCE <= weight <= upper + WEIGHT_TOLERANCE:
                problems.append(f"{where}: {ric} weight {weight!r} outside [{lower}, {upper}]")
        total = sum(book.values())
        if not abs(total - 1.0) <= BUDGET_TOLERANCE:
            problems.append(f"{where}: weights sum to {total!r}")
        portfolio_iv = sum(weight * chain.truth[ric] for ric, weight in book.items())
        if not portfolio_iv <= cap + IV_TOLERANCE:
            problems.append(f"{where}: portfolio IV {portfolio_iv!r} above cap {cap}")

    written = _read_rows(os.path.join(out_dir, "equity.csv"))
    stamps = [datetime.fromisoformat(row["timestamp"]) for row in written]
    if stamps != chain.timeline:
        problems.append("equity.csv timestamps differ from the chain's bars")
        return problems
    replayed = _replay_equity(chain, decisions)
    for row, expected in zip(written, replayed):
        value = float(row["equity"])
        if not abs(value - expected) <= EQUITY_TOLERANCE * abs(expected):
            problems.append(
                f"equity at {row['timestamp']}: {value!r}, replay gives {expected!r}"
            )
            break
    return problems


CHECKS = {
    "iv": check_iv,
    "greeks": check_greeks,
    "backtest": check_dynamic,
}


def check_outputs(out_dir: str, chain: Chain, workload: Workload) -> list[str]:
    try:
        return CHECKS[workload.command](out_dir, chain, workload)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output in {out_dir}: {type(exc).__name__}: {exc}"]


def cross_check(out_dir: str, trace: dict, inputs: Inputs, workload: Workload) -> list[str]:
    """Counts from the traced run that must agree with the command's outputs."""
    tree = SpanTree(trace["spans"])
    problems = []
    screened = screened_quotes(trace)
    if screened != inputs.quotes:
        problems.append(f"the CLI screened {screened} quotes, the input has {inputs.quotes}")
    if workload.command == "iv":
        full, _ = solve_prices(tree)
        rows = _read_rows(os.path.join(out_dir, "iv.csv"))
        iterations = sum(int(row["iterations"]) for row in rows)
        if full != iterations:
            problems.append(
                f"{full} full-N price_option calls inside implied_vol, "
                f"iv.csv iterations sum to {iterations}"
            )
    if workload.command == "backtest":
        solves = len(tree.named(BOX))
        rebalances = len(read_weights(out_dir)) + failed_rebalances(out_dir)
        if solves != rebalances:
            problems.append(
                f"{solves} box solves, {rebalances} rebalances in weights.csv and events.log"
            )
    return problems
