"""Scaling series behind the complexity claims in diagcf's docstrings.

    python3 bench/scaling.py [--out FILE]

Three series, each with a least-squares slope on log-log axes:

- `digit_at` time against the position j, from 10^2 to 10^100 (claimed
  O(log j): slope ~0 against j, ~1 against log j once j is large);
- decimal-diagonal construction and `verify_differs` time against depth
  (quadratic while rows are walked entry by entry: slope ~2);
- `expand` time and traced peak memory against period length (slope ~1).

Informational only: nothing here is gated.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def digit_at_series(lib) -> dict:
    x = Fraction(1, 1_000_003)
    positions = [10**e for e in (2, 5, 10, 20, 50, 100)]
    calls = 2000

    def batch(j):
        return lambda: [lib.digit_at(x, j) for _ in range(calls)]

    seconds = [best_of(batch(j), 5) / calls for j in positions]
    return {
        "x": "1/1000003", "j": [f"1e{round(math.log10(j))}" for j in positions], "seconds": seconds,
        "slope_vs_j": slope(positions, seconds),
        "slope_vs_log_j": slope([math.log(j) for j in positions], seconds),
    }


def diagonal_series(lib) -> dict:
    depths = [125, 250, 500, 1000, 2000]
    values = lib.calkin_wilf().take(max(depths))
    construct, verify = [], []
    repeat = 3
    for d in depths:
        built = lib.decimal_diagonal([lib.digits_of(v) for v in values[:d]], d)
        construct.append(best_of(
            lambda: lib.decimal_diagonal([lib.digits_of(v) for v in values[:d]], d), repeat))
        verify.append(best_of(
            lambda: lib.verify_differs(built, [lib.digits_of(v) for v in values[:d]], d), repeat))
    return {"depth": depths, "construct_s": construct, "verify_s": verify,
            "construct_slope": slope(depths, construct), "verify_slope": slope(depths, verify)}


def full_period_prime(at_least: int) -> int:
    q = at_least
    while not (oracles.is_prime(q) and oracles.order_of_10(q) == q - 1):
        q += 1
    return q


def expand_series(lib) -> dict:
    primes = [full_period_prime(n) for n in (1_000, 10_000, 100_000, 300_000)]
    periods, seconds, peak_bytes = [], [], []
    for q in primes:
        x = Fraction(1, q)
        seconds.append(best_of(lambda: lib.expand(x), 3 if q < 100_000 else 1))
        tracemalloc.start()
        periods.append(len(lib.expand(x).period))
        peak_bytes.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return {"q": primes, "period": periods, "seconds": seconds, "peak_bytes": peak_bytes,
            "time_slope": slope(periods, seconds), "memory_slope": slope(periods, peak_bytes)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    lib = common.load_library()
    record = {
        "env": run.environment(),
        "digit_at": digit_at_series(lib),
        "diagonal": diagonal_series(lib),
        "expand": expand_series(lib),
    }
    d, g, e = record["digit_at"], record["diagonal"], record["expand"]
    print(f"digit_at: {' '.join(f'{t * 1e6:.2f}us' for t in d['seconds'])} at j = {' '.join(d['j'])}; "
          f"slope {d['slope_vs_j']:.3f} vs j, {d['slope_vs_log_j']:.3f} vs log j")
    print(f"diagonal: depth {g['depth']}; construct slope {g['construct_slope']:.3f}, "
          f"verify slope {g['verify_slope']:.3f}")
    print(f"expand: period {e['period']}; time slope {e['time_slope']:.3f}, "
          f"memory slope {e['memory_slope']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
