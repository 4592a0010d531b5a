"""`cli`: one `diagcf` process per op, as a user at a shell would run it.

The mix is the README's commands with small seeded inputs plus four
typed-error paths, 25 ops per block. For inputs this small, interpreter
start, imports, argparse and rendering are nearly all of the wait, so
this workload isolates the CLI layer. Every op is checked for exact
stdout bytes and exit code against output computed by oracles.py.
An error path passes with exit code 1, empty stdout and exactly one
`error: ` line on stderr; a traceback is a failed op.

It is not in BENCHMARK.json's gated set: on a shared host its process
tail latency swings too far between runs to hold a bound. Traced runs
of the gated workloads measure the CLI layer on one block of this mix.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import oracles
from common import Mismatch, child_env, run_child

NAME = "cli"
# what the installed `diagcf` console script runs
LAUNCH = "import sys; from diagcf.cli import main; sys.exit(main())"
PI_TERMS = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1)  # OEIS A001203
PI_TABLE_SIZE = 48  # the library's stream refuses to go past its table


class Crash(Exception):
    """The process died with a traceback instead of a result or typed error."""


class Spec(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    expected: str | None  # exact stdout; None for an error path


class Inputs:
    def __init__(self, seed: int):
        self.seed = seed
        self.env = child_env()
        self.max_rss_kb = 0  # largest op child so far

    def blocks(self):
        rng = random.Random(f"{NAME}:{self.seed}")
        while True:
            block = [make(rng) for make in MIX]
            rng.shuffle(block)
            yield block


def setup(lib, seed: int) -> Inputs:
    return Inputs(seed)


def run_op(lib, tr, inputs: Inputs, spec: Spec) -> None:
    res = tr.call("cli.process", run_child, [sys.executable, "-c", LAUNCH, *spec.argv], inputs.env)
    inputs.max_rss_kb = max(inputs.max_rss_kb, res.max_rss_kb)
    check(spec, res.code, res.stdout.decode(), res.stderr.decode())


def run_in_process(lib, tr, inputs: Inputs, spec: Spec) -> None:
    """The same op through `diagcf.cli.run` with in-memory sinks."""
    from diagcf import cli  # not at module level: setup_s times the first import of diagcf

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli.run", cli.run, list(spec.argv), out, err)
    check(spec, code, out.getvalue(), err.getvalue())


def check(spec: Spec, code: int, stdout: str, stderr: str) -> None:
    if "Traceback" in stderr:
        raise Crash(f"{' '.join(spec.argv)}: {stderr.strip().splitlines()[-1]}")
    if spec.expected is None:
        lines = stderr.splitlines()
        if code != 1 or stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            raise Mismatch(f"{' '.join(spec.argv)}: exit {code}, stderr {stderr!r}")
    elif code != 0 or stdout != spec.expected:
        raise Mismatch(f"{' '.join(spec.argv)}: exit {code}, stdout {stdout!r}")


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 1000), rng.randint(1, 1000))


def _from_rational(rng: random.Random, fmt: str) -> Spec:
    x = _small(rng)
    terms = oracles.euclid_terms(x)
    shown = oracles.cf_text(terms) if fmt == "bracket" else " ".join(map(str, terms))
    return Spec("from-rational", ("cf", "from-rational", oracles.text(x), "--format", fmt), _lines(shown))


def _to_rational(rng: random.Random) -> Spec:
    terms = [rng.randint(0, 9)] + [rng.randint(1, 30) for _ in range(rng.randint(0, 6))]
    value = oracles.fold(terms)
    return Spec("to-rational", ("cf", "to-rational", oracles.cf_text(terms)), _lines(oracles.text(value)))


def _from_real(rng: random.Random) -> Spec:
    literal = repr(round(10 ** rng.uniform(-1, 1.5), 8))
    eps = rng.choice(("1e-6", "1e-9"))
    value = oracles.first_convergent_within(Fraction(float(literal)), Fraction(float(eps)))
    shown = oracles.cf_text(oracles.euclid_terms(value))
    return Spec("from-real", ("cf", "from-real", literal, "--eps", eps), _lines(shown))


def _stream_terms(name: str, count: int) -> list[int]:
    if name == "sqrt2":
        return [1] + [2] * (count - 1)
    if name == "phi":
        return [1] * count
    if name == "e":
        terms = [2]
        m = 1
        while len(terms) < count:
            terms += [1, 2 * m, 1]
            m += 1
        return terms[:count]
    if name == "pi":
        return list(PI_TERMS[:count])
    k = int(name.split(":")[1])
    return [k] * count


def _convergents(rng: random.Random) -> Spec:
    name = rng.choice(("sqrt2", "e", "phi", "pi", f"metallic:{rng.randint(1, 9)}"))
    count = rng.randint(1, 12)
    values = oracles.convergent_values(_stream_terms(name, count))
    return Spec(
        "convergents", ("cf", "convergents", name, "--count", str(count)),
        _lines(*map(oracles.text, values)),
    )


def _expansion(x: Fraction) -> str:
    mu, lam = oracles.decimal_shape(x.denominator)
    digits = "".join(str(oracles.digit(x, j)) for j in range(1, mu + lam + 1))
    return f"{x.numerator // x.denominator}.{digits[:mu]}({digits[mu:] or '0'})"


def _expand(rng: random.Random) -> Spec:
    x = _small(rng)
    return Spec("expand", ("decimal", "expand", oracles.text(x)), _lines(_expansion(x)))


def _period(rng: random.Random) -> Spec:
    x = _small(rng)
    mu, lam = oracles.decimal_shape(x.denominator)
    shown = (
        f"terminating (preperiod {mu}, period 0)" if lam == 0
        else f"period length {lam} (preperiod {mu})"
    )
    return Spec("period", ("decimal", "period", oracles.text(x)), _lines(shown))


def _find_period(rng: random.Random) -> Spec:
    least = rng.randint(1, 16)
    d = 3
    while d % 2 == 0 or d % 5 == 0 or oracles.order_of_10(d) < least:
        d += 1
    shown = f"1/{d} (period length {oracles.order_of_10(d)})"
    return Spec("find-period", ("decimal", "find-period", str(least)), _lines(shown))


def _table(rows, labels: tuple[str, str], fmt: str) -> list[str]:
    if fmt == "tsv":
        return [f"{k}\t{diag}\t{built}" for k, diag, built in rows]
    head = [f"{'k':>6}  {labels[0]:>8}  {labels[1]:>8}  differs"]
    return head + [
        f"{k:>6}  {diag:>8}  {built:>8}  {'yes' if diag != built else 'no'}"
        for k, diag, built in rows
    ]


def _decimal_diagonal(depth: int) -> list[tuple[int, int, int]]:
    rows = []
    for k in range(1, depth + 1):
        d_kk = oracles.digit(oracles.calkin_wilf_at(k), k)
        rows.append((k, d_kk, 4 if d_kk == 5 else 5))
    return rows


def _diag_decimal(rng: random.Random) -> Spec:
    depth, fmt = rng.randint(5, 30), rng.choice(("table", "tsv"))
    rows = _decimal_diagonal(depth)
    shown = "0." + "".join(str(built) for _, _, built in rows)
    return Spec(
        "diag-decimal", ("diag", "decimal", "--depth", str(depth), "--format", fmt),
        _lines(f"constructed: {shown}", *_table(rows, ("d_kk", "d_0k"), fmt)),
    )


def _diag_cf(rng: random.Random) -> Spec:
    depth, fmt = rng.randint(5, 20), rng.choice(("table", "tsv"))
    rows = [(k, k, k + 1) for k in range(1, depth + 1)]  # row k is metallic(k)
    shown = oracles.cf_text([0] + [built for _, _, built in rows])
    return Spec(
        "diag-cf",
        ("diag", "cf", "--source", "irrationals", "--depth", str(depth), "--format", fmt),
        _lines(f"constructed: {shown}", *_table(rows, ("a_kk", "a_0k"), fmt)),
    )


def _diag_rationals(rng: random.Random) -> Spec:
    k = 1
    while len(oracles.euclid_terms(oracles.calkin_wilf_at(k))) - 1 >= k:
        k += 1
    x = oracles.calkin_wilf_at(k)
    shown = (
        f"diagonal undefined at k={k}: CF of {x.numerator}/{x.denominator} = "
        f"{oracles.cf_text(oracles.euclid_terms(x))} has no a_{k}{k}"
    )
    return Spec("diag-rationals", ("diag", "cf", "--source", "rationals"), _lines(shown))


def _analyze(rng: random.Random) -> Spec:
    pre, per = rng.randint(0, 3), rng.randint(1, 5)
    depth = rng.randint(pre + 2 * per, 40)
    digits = [built for _, _, built in _decimal_diagonal(depth)]
    lines = ["constructed: 0." + "".join(map(str, digits))]
    ruled_out = 0
    for p in range(pre + 1):
        for l in range(1, per + 1):
            j = oracles.first_witness(digits, p, l)
            if j is None:
                lines.append(f"p={p} l={l}: consistent")
            else:
                ruled_out += 1
                lines.append(f"p={p} l={l}: ruled out (positions {j} and {j + l} differ)")
    lines.append(f"ruled out {ruled_out} of {(pre + 1) * per} (preperiod, period) pairs")
    return Spec(
        "analyze",
        ("diag", "analyze", "--depth", str(depth), "--max-preperiod", str(pre),
         "--max-period", str(per)),
        _lines(*lines),
    )


def _approx(rng: random.Random) -> Spec:
    target = _small(rng)
    cf_approx = rng.choice(oracles.convergent_values(oracles.euclid_terms(target)))
    places = rng.randint(1, 4)
    n = round(target * 10**places)
    literal = f"{n // 10**places}.{n % 10**places:0{places}d}"
    cf_error, dec_error = abs(target - cf_approx), abs(target - Fraction(literal))
    closer = "cf" if cf_error < dec_error else "decimal" if dec_error < cf_error else "tie"
    return Spec(
        "approx",
        ("approx", "compare", oracles.text(target), oracles.text(cf_approx), literal),
        _lines(
            f"cf error: {oracles.text(cf_error)}",
            f"decimal error: {oracles.text(dec_error)}",
            f"closer: {closer}",
        ),
    )


def _error(kind: str, *argv: str) -> Spec:
    return Spec(kind, argv, None)


MIX = (
    lambda rng: _from_rational(rng, "bracket"),
    lambda rng: _from_rational(rng, "plain"),
    _to_rational, _to_rational,
    _from_real, _from_real,
    _convergents, _convergents,
    _expand, _expand,
    _period, _period,
    _find_period,
    _diag_decimal, _diag_decimal,
    _diag_cf, _diag_cf,
    _diag_rationals,
    _analyze,
    _approx, _approx,
    lambda rng: _error("negative", "decimal", "expand", "--", f"-{oracles.text(_small(rng))}"),
    lambda rng: _error("zero-denominator", "cf", "from-rational", f"{rng.randint(1, 1000)}/0"),
    lambda rng: _error(
        "pi-past-table", "cf", "convergents", "pi", "--count",
        str(rng.randint(PI_TABLE_SIZE + 1, PI_TABLE_SIZE + 12)),
    ),
    # a known defect: today this prints a ValueError traceback
    lambda rng: _error("nan", "cf", "from-real", "nan"),
)
