"""The benchmark's workloads: seeded synthetic inputs plus one CLI command each.

Every workload generates its chain with the program's own
``generate_synthetic_chain`` at the same lattice step count the command
later solves at, with zero bid/ask spread, so each mid is the model price
at a known per-contract volatility (written to ``truth.csv``).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

# Settings the checks rely on are passed explicitly, even where they equal
# a default, so a change of default cannot change what a workload means.
RATE = 0.05
SIGMA_RANGE = (0.2, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    generator: dict
    settings: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.generator["steps"]

    def cli_args(self, chain_path: str, spot_path: str, out_dir: str) -> list[str]:
        args = [self.command, "--out", out_dir]
        merged = {
            "chain_path": chain_path,
            "spot_path": spot_path,
            "steps": self.steps,
            "rate": RATE,
            **self.settings,
        }
        for key, value in merged.items():
            args += ["--set", f"{key}={value}"]
        return args


WORKLOADS = {
    # Lattice and IV-solver hot path: 11 strikes x 3 maturities x call/put
    # = 66 contracts over 2 five-minute bars (132 quotes) at N=500.
    # Strikes stay within 12.5% of spot: a put deep enough to sit in the
    # stopping region (K=115, T=0.25, sigma=0.2 already does) has a mid
    # equal to intrinsic value and no implied vol.
    "iv_chain": Workload(
        name="iv_chain",
        command="iv",
        generator=dict(
            strikes=tuple(87.5 + 2.5 * i for i in range(11)),
            maturities=(0.25, 0.5, 1.0),
            bars=2,
            bar_interval_seconds=300,
            steps=500,
        ),
    ),
    # Pricing layer through greek_set and classify_region: 5 strikes x 3
    # maturities x call/put = 30 contracts over 2 bars (60 rows) at N=500.
    "greeks_chain": Workload(
        name="greeks_chain",
        command="greeks",
        generator=dict(
            strikes=(90.0, 95.0, 100.0, 105.0, 110.0),
            maturities=(0.25, 0.5, 1.0),
            bars=2,
            bar_interval_seconds=300,
            steps=500,
        ),
    ),
    # Whole backtest path: 5 near-the-money strikes x 2 maturities x
    # call/put = 20 contracts over 100 five-minute bars (2,000 quotes) at
    # N=20, k=3, so 69 of the 99 return rows rebalance after the 30-bar
    # estimation window. Near-the-money strikes keep the IV work per seed
    # within a few percent (8 contracts spread over 95-110 varied it by
    # 6%, one hybrid solve repeated on every bar). The cap equals the top
    # of the volatility range: the solver runs its Dykstra IV-cap
    # projection at every step, and the cap cannot bind.
    "dynamic_intraday": Workload(
        name="dynamic_intraday",
        command="backtest",
        generator=dict(
            strikes=(95.0, 97.5, 100.0, 102.5, 105.0),
            maturities=(0.25, 0.5),
            bars=100,
            bar_interval_seconds=300,
            steps=20,
        ),
        settings=dict(
            strategy="dynamic",
            k=3,
            iv_cap=SIGMA_RANGE[1],
            lower=0.01,
            upper=0.40,
            rebalance_every=1,
            estimation_window=30,
        ),
    ),
}


@dataclass(frozen=True)
class Inputs:
    chain_path: str
    spot_path: str
    truth_path: str
    quotes: int

    @classmethod
    def in_dir(cls, directory: str, quotes: int = 0) -> "Inputs":
        return cls(
            *(os.path.join(directory, name) for name in ("chain.csv", "spot.csv", "truth.csv")),
            quotes,
        )


def generate(workload: Workload, seed: int, directory: str) -> Inputs:
    """Write the workload's chain, spot and truth files for ``seed``."""
    from chainopt import (
        GeneratorConfig,
        generate_synthetic_chain,
        write_option_chain,
        write_spot_series,
    )

    config = GeneratorConfig(
        sigma_range=SIGMA_RANGE, rate=RATE, half_spread=0.0, **workload.generator
    )
    chain = generate_synthetic_chain(config, seed)
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs.in_dir(directory, len(chain.records))
    write_option_chain(chain.records, inputs.chain_path)
    write_spot_series(chain.spot_series, inputs.spot_path)
    with open(inputs.truth_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ric", "sigma"])
        for ric, sigma in sorted(chain.true_sigma.items()):
            writer.writerow([ric, repr(sigma)])
    return inputs
