"""Every metric the benchmark reports, with its unit, direction and layer,
and the reduction of a traced run to per-layer values.

BENCHMARK.json lists the same names, units and directions; the tests
hold the two in step.
"""

from __future__ import annotations

import collections
from typing import NamedTuple

from common import layer_of


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of the median


END_TO_END = (
    Metric("setup_s", "s", "lower", "end_to_end", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", "end_to_end", 0.25),
    Metric("latency_p50_ms", "ms", "lower", "end_to_end", 0.25),
    Metric("latency_p90_ms", "ms", "lower", "end_to_end", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "end_to_end", 0.1),
)

# mean seconds per call, over the spans with these names
CALL_TIMES = {
    "diagonalization.construct_s": ("diagonalization.decimal_diagonal", "diagonalization.cf_diagonal"),
    "diagonalization.verify_s": ("diagonalization.verify_differs",),
    "diagonalization.rule_out_s": ("diagonalization.rule_out_periods",),
    "enumeration.rows_s": ("enumeration.rows",),
    "continued_fraction.from_rational_s": ("continued_fraction.from_rational",),
    "continued_fraction.to_rational_s": ("continued_fraction.to_rational",),
    "continued_fraction.convergents_s": ("continued_fraction.convergents",),
    "continued_fraction.from_real_approx_s": ("continued_fraction.from_real_approx",),
    "decimal_expansion.expand_s": ("decimal_expansion.expand",),
    "decimal_expansion.reconstruct_s": ("decimal_expansion.reconstruct",),
    "decimal_expansion.period_by_order_s": ("decimal_expansion.period_length_by_order",),
    "decimal_expansion.digit_at_s": ("decimal_expansion.digit_at",),
    "exact_numbers.parse_s": ("exact_numbers.parse_rational",),
    "exact_numbers.format_s": ("exact_numbers.to_string",),
    "cli.run_s": ("cli.run",),
    "cli.process_s": ("cli.process",),
}

# work counters, reported per op
COUNTS = (
    "diagonalization.entries_pulled",
    "diagonalization.positions",
    "enumeration.rows",
    "continued_fraction.terms",
    "decimal_expansion.digits",
)

LAYERS = ("exact_numbers", "continued_fraction", "decimal_expansion", "enumeration",
          "diagonalization", "cli", "bench")

PER_LAYER = (
    *(Metric(name, "s", "lower", layer_of(name)) for name in CALL_TIMES),
    *(Metric(name, "count/op", "higher" if name.endswith("positions") else "lower",
             layer_of(name)) for name in COUNTS),
    Metric("diagonalization.useful_ratio", "ratio", "higher", "diagonalization"),
    # decimal_expansion calls that raised, per op of the long_reconstruct workload
    Metric("decimal_expansion.failed", "ratio", "lower", "decimal_expansion"),
    Metric("cli.interpreter_s", "s", "lower", "cli"),
    Metric("cli.import_s", "s", "lower", "cli"),
    *(Metric(f"{layer}.self_s", "s/op", "lower", layer) for layer in LAYERS),
    Metric("trace.overhead_s", "s/op", "lower", "trace"),
    Metric("trace.overhead_ratio", "ratio", "lower", "trace"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def layer_values(tr) -> dict[str, float]:
    """Per-layer values that this traced pass has data for.

    Spans are flat lists (name, start, end, parent index, op id); a
    span's self time is its duration less its children's.
    """
    calls: dict[str, list[float]] = collections.defaultdict(list)
    child_time: collections.Counter = collections.Counter()
    for name, start, end, parent, _ in tr.spans:
        calls[name].append(end - start)
        if parent is not None:
            child_time[parent] += end - start
    self_time: collections.Counter = collections.Counter()
    for index, (name, start, end, _, _) in enumerate(tr.spans):
        self_time[layer_of(name)] += end - start - child_time[index]

    out: dict[str, float] = {}
    for metric, names in CALL_TIMES.items():
        durations = [d for n in names for d in calls.get(n, ())]
        if durations:
            out[metric] = sum(durations) / len(durations)
    ops = max(tr.ops, 1)
    for name in COUNTS:
        if name in tr.counters:
            out[name] = tr.counters[name] / ops
    if "diagonalization.positions" in tr.counters:
        pulled = tr.counters["diagonalization.entries_pulled"]
        # a construction that reads rows without consuming them pulls nothing
        out["diagonalization.useful_ratio"] = (
            tr.counters["diagonalization.positions"] / pulled if pulled else 1.0
        )
    for layer in LAYERS:
        if layer in self_time:
            out[f"{layer}.self_s"] = self_time[layer] / ops
    return out
