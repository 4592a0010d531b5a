"""`diagonal`: the paper's headline construction, end to end.

Each op takes a seed-chosen window of the Calkin-Wilf enumeration,
builds the decimal diagonal over the rows' digit streams, checks it with
`verify_differs` on fresh rows, runs `rule_out_periods` on the prefix,
then builds and verifies the continued-fraction diagonal over a
seed-chosen run of metallic-mean rows.

Depths follow a fixed geometric ladder of 25 rungs from 50 to 500, one
op per rung in each block of 25, in seeded order. Runs end on whole
blocks, so every run sees the same depth mix, and p50 and p90 fall in
the middle of rungs 12 and 22 rather than between two rungs. The ladder
stops at 500 so that a run holds some fifty blocks: p90 then rests on
as many samples of its rung, not on the dozen a ladder up to 1000
allows, and the per-row walk is still quadratic over most of it. The
seed picks the windows, the shapes and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import oracles
from common import Mismatch

NAME = "diagonal"
RUNGS = 25  # ops per block, one per depth rung; odd, so p50 is a rung's median
MIN_DEPTH, MAX_DEPTH = 50, 500
MAX_OFFSET = 5000
SPOT_CHECKS = 8


class Spec(NamedTuple):
    kind: str
    depth: int
    offset: int  # row k is the (offset + k)-th Calkin-Wilf rational
    cf_offset: int  # row k is metallic(cf_offset + k)
    max_preperiod: int
    max_period: int
    spots: tuple[int, ...]


class Inputs:
    def __init__(self, lib, seed: int):
        self.seed = seed
        self.rationals: list[Fraction] = lib.calkin_wilf().take(MAX_OFFSET + MAX_DEPTH)

    def blocks(self):
        rng = random.Random(f"{NAME}:{self.seed}")
        ratio = MAX_DEPTH / MIN_DEPTH
        while True:
            block = []
            for rung in range(RUNGS):
                depth = round(MIN_DEPTH * ratio ** (rung / (RUNGS - 1)))
                block.append(Spec(
                    "diagonal", depth, rng.randrange(MAX_OFFSET),
                    rng.randrange(MAX_OFFSET), rng.randrange(6), rng.randint(1, 8),
                    tuple(sorted(rng.sample(range(1, depth + 1), SPOT_CHECKS))),
                ))
            rng.shuffle(block)
            yield block


def setup(lib, seed: int) -> Inputs:
    return Inputs(lib, seed)


def run_op(lib, tr, inputs: Inputs, spec: Spec) -> None:
    d = spec.depth
    window = inputs.rationals[spec.offset:spec.offset + d]

    def digit_rows():
        return [lib.digits_of(x) for x in window]

    def metallic_rows():
        return [lib.metallic(spec.cf_offset + k) for k in range(1, d + 1)]

    rows = tr.call("enumeration.rows", digit_rows)
    built = tr.call("diagonalization.decimal_diagonal", lib.decimal_diagonal, rows, d)
    pulled = sum(row.position for row in rows)
    fresh = tr.call("enumeration.rows", digit_rows)
    verdict = tr.call("diagonalization.verify_differs", lib.verify_differs, built, fresh, d)
    if not verdict.ok:
        raise Mismatch(f"decimal diagonal matches row {verdict.counterexample}")
    rulings = tr.call(
        "diagonalization.rule_out_periods", lib.rule_out_periods,
        built.digits, spec.max_preperiod, spec.max_period,
    )

    cf_rows = tr.call("enumeration.rows", metallic_rows)
    cf_built = tr.call("diagonalization.cf_diagonal", lib.cf_diagonal, cf_rows, d)
    pulled += sum(row.position for row in cf_rows)
    cf_fresh = tr.call("enumeration.rows", metallic_rows)
    verdict = tr.call(
        "diagonalization.verify_differs", lib.verify_differs, cf_built, cf_fresh, d
    )
    if not verdict.ok:
        raise Mismatch(f"cf diagonal matches row {verdict.counterexample}")

    tr.count("enumeration.rows", 4 * d)
    tr.count("diagonalization.positions", 2 * d)
    tr.count("diagonalization.entries_pulled", pulled)
    check(spec, built.digits, rulings, cf_built.terms)


def check(spec: Spec, digits, rulings, cf_terms) -> None:
    """Spot-check both diagonals and every ruling against oracles.py."""
    if len(digits) != spec.depth or not set(digits) <= {4, 5}:
        raise Mismatch("decimal diagonal has the wrong length or a digit outside {4, 5}")
    for k in spec.spots:
        d_kk = oracles.digit(oracles.calkin_wilf_at(spec.offset + k), k)
        if digits[k - 1] != (4 if d_kk == 5 else 5):
            raise Mismatch(f"decimal diagonal digit {k} is {digits[k - 1]}, diagonal digit {d_kk}")
    expected = [0] + [spec.cf_offset + k + 1 for k in range(1, spec.depth + 1)]
    if list(cf_terms) != expected:
        raise Mismatch("cf diagonal is not a_0k = a_kk + 1 over the metallic rows")
    shapes = [(p, l) for p in range(spec.max_preperiod + 1) for l in range(1, spec.max_period + 1)]
    if [(r.preperiod, r.period) for r in rulings] != shapes:
        raise Mismatch("rule_out_periods skipped or reordered a shape")
    for r in rulings:
        witness = oracles.first_witness(digits, r.preperiod, r.period)
        if (r.consistent, r.witness_position) != (witness is None, witness):
            raise Mismatch(f"ruling for p={r.preperiod} l={r.period} disagrees")
