"""`long_reconstruct`: the long band of `convert`, `reconstruct` included.

Each op is 1/q for a prime q in [10^4, 2*10^5], alternating between the
strata of `convert`'s long band, and runs every check of a `convert`
long op followed by `reconstruct`. Today `reconstruct` raises ValueError
on nearly every op, because the period passes CPython's 4300-digit limit
on int-string conversion (ROADMAP item 4); the op then counts as failed,
not as wrong.

This workload is not gated: the gated workloads are ones on which no op
fails. It runs on its own (`--workload long_reconstruct`), and traced
runs of every workload take `decimal_expansion.failed` from a short
sample of it, so the defect shows there until it is fixed.
"""

from __future__ import annotations

import random

import workload_convert

NAME = "long_reconstruct"


class Inputs:
    def __init__(self, seed: int):
        self.seed = seed

    def blocks(self):
        rng = random.Random(f"{NAME}:{self.seed}")
        index = 0
        while True:
            yield [workload_convert._make(rng, "long", index + stratum)._replace(kind=NAME)
                   for stratum in (0, 1)]
            index += 2


def setup(lib, seed: int) -> Inputs:
    return Inputs(seed)


run_op = workload_convert.run_op
