"""Show that the output checks reject wrong outputs.

Usage, from the root of a checkout, after one run of each workload with
bench/run.py (which leaves its inputs and outputs under .bench_work/):

    python3 bench/check_mutants.py

For each workload it copies the last command's outputs, confirms that the
copy passes the checks, then applies each mutation below to a fresh copy
and confirms that the checks fail. Exits 1 if a mutation goes unnoticed.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

from checks import Chain, check_outputs
from workloads import WORKLOADS, Inputs

WORK_DIR = os.path.join(os.getcwd(), ".bench_work")


def _is_call(row: dict) -> bool:
    # RICs read <root><yymmdd><C|P><strike x 1000, 8 digits>.
    return row["ric"][-9] == "C"


def _first(rows: list[dict], want) -> dict:
    return next(row for row in rows if want(row))


def _scale(row: dict, field: str, factor: float) -> None:
    row[field] = repr(float(row[field]) * factor)


def _shift(row: dict, field: str, delta: float) -> None:
    row[field] = repr(float(row[field]) + delta)


def _drop_last_rebalance(rows: list[dict]) -> None:
    last = rows[-1]["timestamp"]
    rows[:] = [row for row in rows if row["timestamp"] != last]


def _move_weight(rows: list[dict]) -> None:
    # Keeps the budget and the box: only the equity replay can notice.
    settings = WORKLOADS["dynamic_intraday"].settings
    step = 1e-6
    up = _first(rows, lambda row: float(row["weight"]) < settings["upper"] - step)
    down = _first(rows, lambda row: row is not up
                  and float(row["weight"]) > settings["lower"] + step)
    _shift(up, "weight", step)
    _shift(down, "weight", -step)


MUTATIONS = {
    "iv_chain": [
        ("iv.csv", "iv off by 2e-4", lambda rows: _shift(rows[0], "iv", 2e-4)),
        ("iv.csv", "row reported unconverged", lambda rows: rows[1].update(converged="false")),
        ("iv.csv", "row missing", lambda rows: rows.pop(2)),
    ],
    "greeks_chain": [
        ("greeks.csv", "call delta off by 0.01",
         lambda rows: _shift(_first(rows, _is_call), "delta", 0.01)),
        ("greeks.csv", "call vega 20% high", lambda rows: _scale(_first(rows, _is_call), "vega", 1.2)),
        ("greeks.csv", "call theta 20% low",
         lambda rows: _scale(_first(rows, _is_call), "theta", 0.8)),
        ("greeks.csv", "call rho 1% high", lambda rows: _scale(_first(rows, _is_call), "rho", 1.01)),
        ("greeks.csv", "put rho with the wrong sign",
         lambda rows: _scale(_first(rows, lambda row: not _is_call(row)), "rho", -1.0)),
        ("greeks.csv", "negative gamma", lambda rows: rows[0].update(gamma="-0.001")),
        ("greeks.csv", "iv off by 2e-4", lambda rows: _shift(rows[0], "iv", 2e-4)),
    ],
    "dynamic_intraday": [
        ("weights.csv", "weight moved between members", _move_weight),
        ("weights.csv", "weight above the upper bound", lambda rows: _shift(rows[0], "weight", 0.3)),
        ("weights.csv", "last rebalance missing", _drop_last_rebalance),
        ("equity.csv", "equity off by 1e-9", lambda rows: _scale(rows[-1], "equity", 1 + 1e-9)),
    ],
}


def _edit_csv(path: str, edit) -> None:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def main() -> int:
    missed = 0
    for name, mutations in MUTATIONS.items():
        workload = WORKLOADS[name]
        run_dir = os.path.join(WORK_DIR, name)
        source = os.path.join(run_dir, "out")
        if not os.path.isdir(source):
            print(f"{name}: no outputs under {source}; run bench/run.py on it first")
            return 2
        chain = Chain(Inputs.in_dir(os.path.join(run_dir, "inputs")))
        copy = os.path.join(run_dir, "mutant")
        unchanged = (mutations[0][0], "unchanged", lambda rows: None)
        for target, label, edit in [unchanged] + mutations:
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(source, copy)
            _edit_csv(os.path.join(copy, target), edit)
            problems = check_outputs(copy, chain, workload)
            noticed = bool(problems) != (label == "unchanged")
            missed += not noticed
            print(f"{name}: {label}: {'ok' if noticed else 'NOT NOTICED'}"
                  + (f" ({problems[0]})" if problems else ""))
        shutil.rmtree(copy, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
