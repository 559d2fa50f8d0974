"""Run one chainopt CLI command with a span recorded around each layer call.

Usage: python3 bench/trace_cli.py SPANS_JSON COMMAND [ARGS...]

Every public function that the benchmark's commands (iv, greeks,
backtest dynamic) call across a module boundary is replaced, at the name
the calling module looks it up by, with a wrapper that records a span:
name, start, end, parent span and a few attributes (lattice steps,
IV-solve outcome). ``chainopt.cli.main`` is the root span.
Spans stay in memory and are written to SPANS_JSON when the command ends,
together with the iteration counts from the box solver's own debug log
line. The command's exit code is passed through.

The IV module is reached through ``sys.modules["chainopt.implied_vol"]``:
the package re-exports the ``implied_vol`` function under the same name,
so ``import chainopt.implied_vol`` yields the function, not the module.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import sys
from time import perf_counter

import chainopt.cli  # noqa: F401  (imports every submodule)


def _steps(args, kwargs):
    return {"steps": args[0].steps}


def _solve_args(args, kwargs):
    return {"steps": args[1].steps}


def _solve_result(result):
    return {"converged": result.converged, "method": result.method.value}


def _quote_count(result):
    return {"quotes": len(result[0])}


# (module, attribute, span name, attributes from the arguments,
#  attributes from the result)
WRAPPED = [
    ("chainopt.cli", "parse_option_chain", "market_data.parse_option_chain", None, None),
    ("chainopt.cli", "parse_spot_series", "market_data.parse_spot_series", None, None),
    ("chainopt.cli", "bucket_by_liquidity", "market_data.bucket_by_liquidity", None, None),
    ("chainopt.cli", "enrich_records", "market_data.enrich_records", None, _quote_count),
    ("chainopt.cli", "implied_vol", "implied_vol.implied_vol", _solve_args, _solve_result),
    ("chainopt.cli", "greek_set", "greeks.greek_set", None, None),
    ("chainopt.cli", "classify_region", "greeks.classify_region", None, None),
    ("chainopt.cli", "rank_by_metric", "universe.rank_by_metric", None, None),
    ("chainopt.cli", "select_top_bottom", "universe.select_top_bottom", None, None),
    ("chainopt.cli", "compute_returns", "backtest.compute_returns", None, None),
    ("chainopt.cli", "run_dynamic", "backtest.run_dynamic", None, None),
    ("chainopt.implied_vol", "price_option", "pricing.price_option", _steps, None),
    ("chainopt.greeks", "price_option", "pricing.price_option", _steps, None),
    ("chainopt.greeks", "build_lattice", "pricing.build_lattice", _steps, None),
    ("chainopt.backtest", "estimate_moments", "optimizer.estimate_moments", None, None),
    ("chainopt.backtest", "solve_box_constrained", "optimizer.solve_box_constrained", None, None),
]

BOX_LOG = re.compile(r"box solve converged after (\d+) iterations")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, describe_args=None, describe_result=None):
        span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
        if describe_args is not None:
            span.update(describe_args(args, kwargs))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if describe_result is not None:
            span.update(describe_result(result))
        return result

    def wrap(self, module_name, attribute, name, describe_args, describe_result):
        module = sys.modules[module_name]
        fn = getattr(module, attribute)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe_args, describe_result)

        setattr(module, attribute, traced)


class _BoxIterations(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.iterations: list[int] = []

    def emit(self, record):
        match = BOX_LOG.fullmatch(record.getMessage())
        if match:
            self.iterations.append(int(match.group(1)))


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    for entry in WRAPPED:
        tracer.wrap(*entry)
    box_log = _BoxIterations()
    optimizer_logger = logging.getLogger("chainopt.optimizer")
    optimizer_logger.setLevel(logging.DEBUG)
    optimizer_logger.addHandler(box_log)

    cli = sys.modules["chainopt.cli"]
    code = tracer.call("cli.main", cli.main, (command,), {})
    with open(spans_path, "w") as handle:
        json.dump({"spans": tracer.spans, "box_iterations": box_log.iterations}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
