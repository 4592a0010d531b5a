"""`convert`: exact conversions in both directions, one rational per op.

Each op receives its rational as text, parses it, converts to a
continued fraction and a repeating decimal and back again, and formats
the results. The op's band fixes which conversions run:

- small: p/q with p, q <= 1000, the acceptance suite's grid (87.5%);
- real: `from_real_approx` of a seeded float at eps 1e-12 (8%);
- big: 256-bit numerator and denominator, continued fractions only (4%);
- long: 1/q for a prime q in [10^4, 2*10^5], periods in the thousands
  to the hundred-thousands, every check but `reconstruct` (0.25%);
- order: `period_length_by_order` of 1/m for a 10- to 12-digit prime m
  (0.25%).

The bands slower than every small op (big, long, order) take 4.5% of
the ops, so the 50th and 90th latency percentiles both fall inside the
smooth distribution of the small and real bands. One long and one order
op in 400 keep the two heavy bands, each about a hundred times a small
op, to about a third of the run's time: memory-bound long expansions
swing most with the load of a shared host, and throughput should mostly
follow the continued-fraction and small-decimal work. Every block of
400 ops holds exactly this mix; long-period denominators alternate
between two strata from block to block, so every other block reaches the
largest periods and peak memory does not depend on luck.

No op of this workload fails on a correct library. `reconstruct` of a
period past CPython's 4300-digit limit on int-string conversion raises
today (ROADMAP item 4), so the long band stops short of it here; the
`long_reconstruct` workload runs the same band with `reconstruct` and
counts those failures, and traced runs report their share as
`decimal_expansion.failed`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import oracles
from common import Mismatch

NAME = "convert"
BAND_COUNTS = (("small", 350), ("real", 32), ("big", 16), ("long", 1), ("order", 1))
LONG_STRATA = (10_000, 45_000, 200_000)
EPS = 1e-12
DEEP = 10**12


class Spec(NamedTuple):
    kind: str
    text: str
    value: Fraction | float
    positions: tuple[int, ...]  # digit_at positions to check


class Inputs:
    def __init__(self, seed: int):
        self.seed = seed

    def blocks(self):
        rng = random.Random(f"{NAME}:{self.seed}")
        index = 0
        while True:
            block = []
            for band, count in BAND_COUNTS:
                block += [_make(rng, band, index) for _ in range(count)]
            rng.shuffle(block)
            index += 1
            yield block


def _next_prime(n: int) -> int:
    while not oracles.is_prime(n):
        n += 1
    return n


def _make(rng: random.Random, band: str, block: int) -> Spec:
    if band == "real":
        v = 10 ** rng.uniform(-2, 2)
        return Spec(band, repr(v), v, ())
    if band == "small":
        x = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
    elif band == "big":
        x = Fraction(rng.getrandbits(256) | 1 << 255, rng.getrandbits(256) | 1 << 255)
    elif band == "long":
        stratum = block % 2
        x = Fraction(1, _next_prime(rng.randrange(*LONG_STRATA[stratum:stratum + 2])))
    else:  # order: 10, 11 and 12 digits in turn
        digits = 10 + block % 3
        x = Fraction(1, _next_prime(rng.randrange(10 ** (digits - 1), 10**digits)))
    reach = x.denominator  # the preperiod plus one period never exceeds this
    positions = (rng.randint(1, 20), rng.randint(1, reach), rng.randint(DEEP // 10, DEEP))
    return Spec(band, oracles.text(x), x, positions)


def setup(lib, seed: int) -> Inputs:
    return Inputs(seed)


def run_op(lib, tr, inputs: Inputs, spec: Spec) -> None:
    if spec.kind == "real":
        return _real(lib, tr, spec)
    x = tr.call("exact_numbers.parse_rational", lib.parse_rational, spec.text)
    if x != spec.value:
        raise Mismatch(f"parse_rational({spec.text!r}) = {x}")
    if spec.kind == "order":
        return _order(lib, tr, spec, x)
    _continued_fraction(lib, tr, spec, x)
    if spec.kind != "big":
        _decimal(lib, tr, spec, x)
    if tr.call("exact_numbers.to_string", lib.to_string, x) != spec.text:
        raise Mismatch(f"to_string({x!r}) does not give back {spec.text!r}")


def _continued_fraction(lib, tr, spec: Spec, x: Fraction) -> None:
    cf = tr.call("continued_fraction.from_rational", lib.from_rational, x)
    tr.count("continued_fraction.terms", len(cf.terms))
    _cf_round_trip(lib, tr, cf, x)
    if list(cf.terms) != oracles.euclid_terms(x):
        raise Mismatch(f"from_rational({x}) = {cf}")


def _cf_round_trip(lib, tr, cf, value: Fraction) -> None:
    if tr.call("continued_fraction.to_rational", lib.to_rational, cf) != value:
        raise Mismatch(f"to_rational({cf}) != {value}")
    last = tr.call("continued_fraction.convergents", lib.convergents, cf, len(cf.terms))[-1]
    if last.value != value:
        raise Mismatch(f"last convergent of {cf} is {last.value}, not {value}")
    text = tr.call("continued_fraction.format", str, cf)
    if tr.call("continued_fraction.parse_cf", lib.parse_cf, text) != cf:
        raise Mismatch(f"parse_cf({text!r}) does not give back {cf}")


def _decimal(lib, tr, spec: Spec, x: Fraction) -> None:
    """Check `expand` against the oracles first and `reconstruct` last,
    and not at all on the long band: there `reconstruct` fails on
    CPython's limit on int-string conversion (see `long_reconstruct`),
    and every check of the expansion must have run before it."""
    e = tr.call("decimal_expansion.expand", lib.expand, x)
    tr.count("decimal_expansion.digits", len(e.preperiod) + len(e.period))
    mu, lam = oracles.decimal_shape(x.denominator)
    digits = oracles.digits(x, 1, mu + lam)
    if (e.integer_part, e.preperiod, e.period) != (
        x.numerator // x.denominator, digits[:mu], digits[mu:] or "0"
    ):
        raise Mismatch(f"expand({x}) = {_short(e)}, not {_short(digits)} split at {mu}")
    report = tr.call(
        "decimal_expansion.period_length_by_order", lib.period_length_by_order, x
    )
    if (report.period_length, report.preperiod_length, report.terminating) != (
        lam or 1, mu, lam == 0
    ):
        raise Mismatch(f"period_length_by_order({x}) = {report}")
    for j in spec.positions:
        got = tr.call("decimal_expansion.digit_at", lib.digit_at, x, j)
        if j <= mu:
            listed = int(e.preperiod[j - 1])
        else:
            listed = int(e.period[(j - mu - 1) % len(e.period)])
        if not got == listed == oracles.digit(x, j):
            raise Mismatch(f"digit {j} of {x}: digit_at {got}, expand {listed}")
    text = tr.call("decimal_expansion.format", str, e)
    if tr.call("decimal_expansion.parse_expansion", lib.parse_expansion, text) != e:
        raise Mismatch(f"parse_expansion does not give back {_short(e)}")
    if spec.kind == "long":
        return
    if tr.call("decimal_expansion.reconstruct", lib.reconstruct, e) != x:
        raise Mismatch(f"reconstruct({_short(e)}) != {x}")


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 60 else f"{text[:40]}...({len(text)} chars)"


def _order(lib, tr, spec: Spec, x: Fraction) -> None:
    m = x.denominator
    report = tr.call(
        "decimal_expansion.period_length_by_order", lib.period_length_by_order, x
    )
    lam = report.period_length
    if report.preperiod_length or report.terminating or not oracles.is_order_of_10(lam, m):
        raise Mismatch(f"period_length_by_order(1/{m}) = {report}")
    for j in spec.positions:
        got = tr.call("decimal_expansion.digit_at", lib.digit_at, x, j)
        shifted = tr.call("decimal_expansion.digit_at", lib.digit_at, x, j + lam)
        if not got == shifted == oracles.digit(x, j):
            raise Mismatch(f"digits {j} and {j + lam} of 1/{m} differ")


def _real(lib, tr, spec: Spec) -> None:
    v = float(spec.text)
    cf = tr.call("continued_fraction.from_real_approx", lib.from_real_approx, v, EPS)
    tr.count("continued_fraction.terms", len(cf.terms))
    expected = oracles.first_convergent_within(Fraction(v), Fraction(EPS))
    _cf_round_trip(lib, tr, cf, expected)
    if list(cf.terms) != oracles.euclid_terms(expected):
        raise Mismatch(f"from_real_approx({v!r}) = {cf}, not canonical")
