"""Run one diagcf benchmark workload and print its metrics.

    python3 bench/run.py --workload diagonal|convert|cli|long_reconstruct \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports diagcf from that
checkout's src/ and from nowhere else, and fails before printing a
result if there is none. Inputs come only from the seed. Each workload
is a closed loop with one client: ops run one at a time in one process,
and the loop stops on a block boundary once S seconds and at least 101
ops (so p90 has ten samples above it) have passed.

--trace 0 reports the end-to-end metrics. `setup_s` is the median over
fifteen fresh interpreters of importing diagcf and building the seeded
inputs; one runs before the timed loop and the others between its
blocks, spread over the S seconds so that the median does not rest on
one moment of a shared host. Latency and throughput both use the time
an op spends inside diagcf, not in the oracle checks: throughput is the
ops that passed over the sum of all ops' latencies. Every timing is then
scaled to a host of fixed speed (common.HostSpeed): a fixed pure-Python
kernel, timed every 50 ms over the whole run, gives the factor, and the
unscaled values are printed above the result. Peak RSS is that of the
process running the ops, or of the largest `diagcf` child on `cli`.

--trace 1 runs each block of ops twice in turn, once untraced and once
with a span around every call into diagcf, alternating which goes
first, for S seconds in all. It reports per-layer metrics from the
traced passes and the tracing overhead: the median over blocks of the
traced minus the untraced wall time. A layer metric the workload never
touches is taken from a short traced sample of the workload that does,
and says so; `decimal_expansion.failed` always comes from the
`long_reconstruct` workload, the one whose ops fail today. Spans and counters are written to .bench_out/.

The last line of stdout is one JSON object with the keys `correct`
(no op returned a wrong answer), `attempted`, `failed` (wrong answers
plus ops that raised an untyped error or crashed; failed/attempted is
the failed_ratio) and `metrics`. The lines above it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import common
import metrics
import workload_cli
import workload_convert
import workload_diagonal
import workload_long_reconstruct
from common import HostSpeed, Mismatch, SetupError, Tracer

WORKLOADS = {w.NAME: w for w in (
    workload_diagonal, workload_convert, workload_cli, workload_long_reconstruct)}
MIN_OPS = 101
SETUP_PROBES = 15
INTERPRETER_PROBES = 3
IMPORT_PROBES = 3
DIGEST_BLOCKS = 3
# ops of each workload run, traced, to fill the layer metrics of another
SAMPLE_OPS = {"diagonal": 25, "convert": 800, "cli": 25, "long_reconstruct": 4}
OUT = common.ROOT / ".bench_out"
IMPORT_PROBE = "import time; t = time.perf_counter(); import diagcf.cli; print(time.perf_counter() - t)"


class LoopResult(NamedTuple):
    ops: int
    seconds: float
    latencies: list[float]
    failed: int
    wrong: int
    reasons: dict[str, list]  # reason -> [count, first message]


def _specs(blocks):
    for block in blocks:
        for i, spec in enumerate(block):
            yield spec, i == len(block) - 1


def run_loop(op, lib, inputs, tr: Tracer, *, seconds: float = 0.0,
             limit: int | None = None, min_ops: int = MIN_OPS, blocks=None,
             speed: HostSpeed | None = None) -> LoopResult:
    """Closed loop, one op at a time over `blocks` (by default all of the
    inputs' blocks): `limit` ops, or whole blocks until `seconds` and
    `min_ops` are both reached. Between ops, `speed` probes the host."""
    latencies: list[float] = []
    reasons: dict[str, list] = {}
    wrong = 0
    start = time.perf_counter()
    for spec, block_end in _specs(inputs.blocks() if blocks is None else blocks):
        tr.begin_op(spec.kind)
        try:
            op(lib, tr, inputs, spec)
        except Exception as exc:  # an op's failure is a measurement, not the end of the run
            wrong += isinstance(exc, Mismatch)
            entry = reasons.setdefault(f"{spec.kind}: {type(exc).__name__}", [0, str(exc)[:200]])
            entry[0] += 1
        finally:
            latencies.append(tr.end_op())
        if speed is not None:
            speed.maybe_probe()
        n = len(latencies)
        if limit is not None:
            if n >= limit:
                break
        elif block_end and n >= min_ops and time.perf_counter() - start >= seconds:
            break
    failed = sum(count for count, _ in reasons.values())
    return LoopResult(len(latencies), time.perf_counter() - start, latencies, failed, wrong, reasons)


def setup_workload(name: str, seed: int):
    """Import diagcf and build the seeded inputs; returns (seconds, lib, inputs)."""
    start = time.perf_counter()
    lib = common.load_library()
    inputs = WORKLOADS[name].setup(lib, seed)
    return time.perf_counter() - start, lib, inputs


def _child_seconds(argv: list[str]) -> float:
    """Seconds the child printed, or its wall time when it printed nothing."""
    res = common.run_child(argv, common.child_env())
    if res.code != 0:
        raise SetupError(f"{' '.join(argv[:3])} exited {res.code}: {res.stderr.decode()[-500:]}")
    return float(res.stdout) if res.stdout.strip() else res.seconds


def probe_setup(name: str, seed: int) -> float:
    argv = [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)]
    return _child_seconds(argv)


def timed_run(name: str, seed: int, lib, inputs, seconds: float):
    """The untraced loop in SETUP_PROBES stretches of equal time, with a
    set-up probe before each; the stretches share one stream of blocks.
    The host's speed is probed throughout, and on both sides of every
    set-up probe."""
    blocks = inputs.blocks()
    speed = HostSpeed()
    setup_times: list[float] = []
    parts: list[LoopResult] = []
    for _ in range(SETUP_PROBES):
        speed.probe()
        setup_times.append(probe_setup(name, seed))
        speed.probe()
        parts.append(run_loop(WORKLOADS[name].run_op, lib, inputs, Tracer(),
                              seconds=seconds / SETUP_PROBES,
                              min_ops=-(-MIN_OPS // SETUP_PROBES), blocks=blocks, speed=speed))
    return setup_times, merge(parts), speed


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "cli.interpreter_s": statistics.median(
            _child_seconds([sys.executable, "-c", "pass"]) for _ in range(INTERPRETER_PROBES)
        ),
    }


def input_digest(inputs) -> str:
    blocks = inputs.blocks()
    text = repr([next(blocks) for _ in range(DIGEST_BLOCKS)])
    return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(name: str, setup_times: list[float], res: LoopResult, inputs,
               factor: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics, every timing multiplied by the host-speed `factor`."""
    deciles = statistics.quantiles(res.latencies, n=10, method="inclusive")
    if name == "cli":  # its ops run in child processes
        rss_kb = inputs.max_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times) * factor,
        "throughput_ops_s": (res.ops - res.failed) / math.fsum(res.latencies) / factor,
        "latency_p50_ms": deciles[4] * 1000 * factor,
        "latency_p90_ms": deciles[8] * 1000 * factor,
        "peak_rss_mb": rss_kb / 1024,
    }


def _traced(op, lib, inputs, limit: int) -> tuple[Tracer, LoopResult]:
    tr = Tracer(keep_spans=True)
    return tr, run_loop(op, lib, inputs, tr, limit=limit)


def merge(results: list[LoopResult]) -> LoopResult:
    reasons: dict[str, list] = {}
    for res in results:
        for reason, (count, message) in res.reasons.items():
            reasons.setdefault(reason, [0, message])[0] += count
    return LoopResult(
        sum(r.ops for r in results), sum(r.seconds for r in results),
        [t for r in results for t in r.latencies], sum(r.failed for r in results),
        sum(r.wrong for r in results), reasons,
    )


def interleaved(op, lib, inputs, seconds: float):
    """Each block untraced and traced in turn, the first of the two
    alternating, until `seconds` and MIN_OPS traced ops are reached.
    Returns the traced tracer, the untraced and traced results, and the
    (untraced, traced) wall time of every block."""
    plain, traced = Tracer(), Tracer(keep_spans=True)
    results: dict[Tracer, list[LoopResult]] = {plain: [], traced: []}
    pairs: list[tuple[float, float, int]] = []
    start = time.perf_counter()
    for i, block in enumerate(inputs.blocks()):
        for tr in (plain, traced) if i % 2 == 0 else (traced, plain):
            results[tr].append(run_loop(op, lib, inputs, tr, limit=len(block), blocks=[block]))
        pairs.append((results[plain][-1].seconds, results[traced][-1].seconds, len(block)))
        if time.perf_counter() - start >= seconds and traced.ops >= MIN_OPS:
            break
    return traced, merge(results[plain]), merge(results[traced]), pairs


def per_layer(name: str, seed: int, seconds: float, lib, inputs, env: dict):
    """Interleaved untraced and traced passes over the same ops, plus
    samples of the other workloads for layers this one never calls."""
    tr, untraced, traced, pairs = interleaved(WORKLOADS[name].run_op, lib, inputs, seconds)
    sources: list[tuple[str, Tracer, LoopResult]] = [(name, tr, traced)]

    def add(label: str, workload, workload_inputs, limit: int, own: bool = False) -> None:
        if not own:
            sources.append((label, *_traced(workload.run_op, lib, workload_inputs, limit)))
        if hasattr(workload, "run_in_process"):
            sources.append((f"{label}, in process",
                            *_traced(workload.run_in_process, lib, workload_inputs, limit)))

    add(name, WORKLOADS[name], inputs, traced.ops, own=True)
    for other, workload in WORKLOADS.items():
        if other != name:
            add(f"{other} sample", workload, workload.setup(lib, seed), SAMPLE_OPS[other])

    values: dict[str, float] = {}
    borrowed: dict[str, str] = {}  # metric -> the sample it came from
    for label, source_tr, _ in sources:
        for metric, value in metrics.layer_values(source_tr).items():
            if metric not in values:
                values[metric] = value
                if label != name:
                    borrowed[metric] = label
    label, long_tr, _ = next(
        s for s in sources if s[0].startswith(workload_long_reconstruct.NAME))
    values["decimal_expansion.failed"] = long_tr.counters["decimal_expansion.failed"] / long_tr.ops
    if label != name:
        borrowed["decimal_expansion.failed"] = label
    values["trace.overhead_s"] = statistics.median((t - u) / n for u, t, n in pairs)
    values["trace.overhead_ratio"] = statistics.median(t / u - 1 for u, t, _ in pairs)
    values["cli.interpreter_s"] = env["cli.interpreter_s"]
    values["cli.import_s"] = statistics.median(
        _child_seconds([sys.executable, "-c", IMPORT_PROBE]) for _ in range(IMPORT_PROBES)
    )
    write_trace(name, seed, env, sources)
    print(f"tracing overhead: median of {len(pairs)} interleaved blocks")
    wrong = untraced.wrong + sum(res.wrong for _, _, res in sources)
    return values, borrowed, traced, wrong


def write_trace(name: str, seed: int, env: dict, sources) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    doc = {
        "workload": name,
        "seed": seed,
        "env": env,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "passes": [
            {"label": label, "ops": tr.ops, "counters": dict(tr.counters), "spans": tr.spans}
            for label, tr, _ in sources
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def report(res: LoopResult, values: dict[str, float], borrowed: dict[str, str] = {}) -> None:
    print(f"ops {res.ops} in {res.seconds:.3f} s; failed_ratio {res.failed / res.ops:.6f} "
          f"({res.failed} failed of {res.ops} attempted, {res.wrong} wrong answers)")
    for reason, (count, message) in sorted(res.reasons.items()):
        print(f"  failed {count}x {reason}: {message}")
    for metric, value in values.items():
        note = f" (n={res.ops})" if metric.startswith("latency") else ""
        if metric in borrowed:
            note = f" [from {borrowed[metric]}]"
        print(f"{metric} {value:.6g} {metrics.UNITS[metric]}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    name, seed = args.workload, args.seed
    try:
        if args.setup_probe:
            print(setup_workload(name, seed)[0])
            return 0
        _, lib, inputs = setup_workload(name, seed)
        env = environment()
        print("env " + json.dumps(env))
        print(f"inputs sha256 {input_digest(inputs)} (first {DIGEST_BLOCKS} blocks, seed {seed})")
        if args.trace:
            values, borrowed, res, wrong = per_layer(name, seed, args.seconds, lib, inputs, env)
            values = {m.name: values[m.name] for m in metrics.PER_LAYER}
            report(res, values, borrowed)
        else:
            setup_times, res, speed = timed_run(name, seed, lib, inputs, args.seconds)
            wrong = res.wrong
            values = end_to_end(name, setup_times, res, inputs, speed.factor)
            print(f"setup_s: median of {len(setup_times)} fresh interpreters "
                  + " ".join(f"{t:.4f}" for t in setup_times))
            print(f"host speed factor {speed.factor:.4f} ({len(speed.samples)} probes); "
                  "unscaled: " + " ".join(f"{k} {v:.6g}" for k, v in
                                         end_to_end(name, setup_times, res, inputs).items()))
            report(res, values)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": res.ops,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": metrics.UNITS[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
