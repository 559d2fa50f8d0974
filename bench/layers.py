"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the durations of its direct
children; calls are nested and single-threaded, so the children never
overlap. A layer's self time is the sum over its spans.
"""

from __future__ import annotations

from collections import defaultdict

PRICE = "pricing.price_option"
LATTICE = "pricing.build_lattice"
SOLVE = "implied_vol.implied_vol"
GREEK_SET = "greeks.greek_set"
REGION = "greeks.classify_region"
BOX = "optimizer.solve_box_constrained"
ROOT = "cli.main"

ENGINE = "backtest.run_dynamic"

# name: (unit, better); the order is the order of the report.
PER_LAYER = {
    "pricing.self_s": ("s", "lower"),
    "pricing.price_calls": ("count", "lower"),
    "pricing.lattice_calls": ("count", "lower"),
    "pricing.node_updates_per_s": ("1/s", "higher"),
    "implied_vol.ms_per_solve": ("ms", "lower"),
    "implied_vol.full_prices_per_solve": ("count", "lower"),
    "implied_vol.coarse_prices_per_solve": ("count", "lower"),
    "implied_vol.newton_share": ("ratio", "higher"),
    "implied_vol.nonconverged": ("count", "lower"),
    "greeks.ms_per_row": ("ms", "lower"),
    "greeks.lattices_per_row": ("count", "lower"),
    "cli.iv_solves_per_quote": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "market_data.parse_s": ("s", "lower"),
    "market_data.enrich_s": ("s", "lower"),
    "universe.rank_s": ("s", "lower"),
    "optimizer.box_solves": ("count", "lower"),
    "optimizer.ms_per_box_solve": ("ms", "lower"),
    "optimizer.pgd_iterations_per_solve": ("count", "lower"),
    "backtest.returns_s": ("s", "lower"),
    "backtest.engine_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    # A layer the workload never enters reports 0 rather than no value.
    return numerator / denominator if denominator else 0.0


class SpanTree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self.children[span["parent"]].append(index)

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def self_time(self, index: int) -> float:
        return self.duration(index) - sum(
            self.duration(child) for child in self.children[index]
        )

    def named(self, *names: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span["name"] in names]

    def self_total(self, *names: str) -> float:
        return sum(self.self_time(i) for i in self.named(*names))

    def inclusive_total(self, *names: str) -> float:
        return sum(self.duration(i) for i in self.named(*names))

    def descendants(self, index: int, name: str) -> int:
        pending, count = list(self.children[index]), 0
        while pending:
            child = pending.pop()
            count += self.spans[child]["name"] == name
            pending.extend(self.children[child])
        return count


def layer_metrics(trace: dict, quotes: int, overhead_s: float) -> dict[str, float]:
    tree = SpanTree(trace["spans"])
    spans = tree.spans

    pricing = tree.named(PRICE, LATTICE)
    pricing_self = sum(tree.self_time(i) for i in pricing)
    node_updates = sum(spans[i]["steps"] * (spans[i]["steps"] + 1) // 2 for i in pricing)

    solves = tree.named(SOLVE)
    full, coarse = solve_prices(tree)
    newton = sum(1 for i in solves if spans[i].get("method") == "newton")
    nonconverged = sum(1 for i in solves if not spans[i].get("converged", False))

    rows = tree.named(GREEK_SET)
    greek_lattices = sum(tree.descendants(i, LATTICE) for i in tree.named(GREEK_SET, REGION))

    boxes = tree.named(BOX)
    iterations = trace["box_iterations"]

    return {
        "pricing.self_s": pricing_self,
        "pricing.price_calls": len(tree.named(PRICE)),
        "pricing.lattice_calls": len(tree.named(LATTICE)),
        "pricing.node_updates_per_s": _ratio(node_updates, pricing_self),
        "implied_vol.ms_per_solve": 1e3 * _ratio(tree.inclusive_total(SOLVE), len(solves)),
        "implied_vol.full_prices_per_solve": _ratio(full, len(solves)),
        "implied_vol.coarse_prices_per_solve": _ratio(coarse, len(solves)),
        "implied_vol.newton_share": _ratio(newton, len(solves)),
        "implied_vol.nonconverged": nonconverged,
        "greeks.ms_per_row": 1e3 * _ratio(tree.inclusive_total(GREEK_SET, REGION), len(rows)),
        "greeks.lattices_per_row": _ratio(greek_lattices, len(rows)),
        "cli.iv_solves_per_quote": _ratio(len(solves), quotes),
        "cli.self_s": tree.self_total(ROOT),
        "market_data.parse_s": tree.self_total(
            "market_data.parse_option_chain", "market_data.parse_spot_series"
        ),
        "market_data.enrich_s": tree.self_total(
            "market_data.bucket_by_liquidity", "market_data.enrich_records"
        ),
        "universe.rank_s": tree.self_total(
            "universe.rank_by_metric", "universe.select_top_bottom"
        ),
        "optimizer.box_solves": len(boxes),
        "optimizer.ms_per_box_solve": 1e3 * _ratio(tree.inclusive_total(BOX), len(boxes)),
        "optimizer.pgd_iterations_per_solve": _ratio(sum(iterations), len(iterations)),
        "backtest.returns_s": tree.self_total("backtest.compute_returns"),
        "backtest.engine_self_s": tree.self_total(ENGINE),
        "trace.overhead_s": overhead_s,
    }


def solve_prices(tree: SpanTree) -> tuple[int, int]:
    """price_option calls made directly by implied_vol: (at the solve's own
    N, on a coarser tree). Where N does not exceed the solver's derivative
    steps the two cannot be told apart and all count as full."""
    full = coarse = 0
    for i in tree.named(SOLVE):
        for child in tree.children[i]:
            if tree.spans[child]["name"] == PRICE:
                if tree.spans[child]["steps"] == tree.spans[i]["steps"]:
                    full += 1
                else:
                    coarse += 1
    return full, coarse


def screened_quotes(trace: dict) -> int:
    return sum(span.get("quotes", 0) for span in trace["spans"]
               if span["name"] == "market_data.enrich_records")
