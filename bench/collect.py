"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10 [--workloads diagonal convert]
                             [--seconds 50] [--trace 0|1] [--label NAME] [--out FILE]
                             [--against EARLIER.json]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median,
flagged when it is not under a third of the metric's bound, and it can
write the lot as one JSON record of the BENCH_*.json series. With
--against it also prints how far each median moved from an earlier
record's, flagged when it got worse by more than the bound. Each run's
environment, host speed factor included, goes into the record.
Runs go one after another, never side by side, so they do not share the
machine with each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import metrics  # noqa: E402


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        low, high = spec.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=BENCH.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    for line in lines:
        if line.startswith("host speed factor "):
            env["host_speed_factor"] = float(line.split()[3])
    return env, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def compare(earlier: dict, later: dict, registry: dict) -> None:
    for workload, entry in later["workloads"].items():
        before = earlier["workloads"].get(workload, {}).get("metrics", {})
        for name, m in entry["metrics"].items():
            if name not in before:
                continue
            change = m["median"] / before[name]["median"] - 1
            worse = change if registry[name].better == "lower" else -change
            bound = registry[name].bound
            flag = f"  WORSE than bound {bound}" if bound and worse > bound else ""
            print(f"  {workload} {name}: median {before[name]['median']:.6g} -> "
                  f"{m['median']:.6g} ({change:+.3f}){flag}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="+", default=["diagonal", "convert"])
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    registry = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}
    record = {"label": args.label, "run_seconds": args.seconds, "trace": args.trace,
              "seeds": seeds(args.seeds), "env": [], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in record["seeds"]:
            env, result = run_once(workload, seed, args.seconds, args.trace)
            record["env"].append({"workload": workload, "seed": seed, **env})
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not args.trace) + f" failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        for name in runs[0]["metrics"]:
            m = registry[name]
            entry["metrics"][name] = {
                "unit": m.unit, "better": m.better, "layer": m.layer,
                **summarise([r["metrics"][name]["value"] for r in runs]),
            }
        record["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            bound = registry[name].bound
            flag = ""
            if bound and m["spread"] is not None:
                flag = "  ok" if m["spread"] < bound / 3 else f"  WIDE (bound {bound})"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}{flag}", flush=True)
    if args.against:
        compare(json.loads(args.against.read_text()), record, registry)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
