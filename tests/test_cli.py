import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diagcf import PeriodReport, RangeError
from diagcf.cli import MAX_EXPONENT, run
from diagcf.decimal_expansion import MAX_DIGITS
from diagcf.exact_numbers import _digits_of_int

SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "diagcf.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCF:
    def test_from_rational(self, capsys):
        code, out, _ = invoke(capsys, "cf", "from-rational", "6/7")
        assert code == 0
        assert out == "[0; 1, 6]\n"

    def test_from_rational_plain(self, capsys):
        code, out, _ = invoke(capsys, "cf", "from-rational", "6/7", "--format", "plain")
        assert code == 0
        assert out == "0 1 6\n"

    def test_to_rational(self, capsys):
        code, out, _ = invoke(capsys, "cf", "to-rational", "[3; 7, 15, 1]")
        assert code == 0
        assert out == "355/113\n"

    def test_to_rational_plain_input(self, capsys):
        code, out, _ = invoke(capsys, "cf", "to-rational", "0 1 6")
        assert code == 0
        assert out == "6/7\n"

    def test_round_trip(self, capsys):
        _, cf_text, _ = invoke(capsys, "cf", "from-rational", "169/550")
        code, out, _ = invoke(capsys, "cf", "to-rational", cf_text.strip())
        assert code == 0
        assert out == "169/550\n"

    def test_from_real(self, capsys):
        code, out, _ = invoke(capsys, "cf", "from-real", "1.4142135623730951", "--eps", "1e-9")
        assert code == 0
        terms = out.strip()
        assert terms.startswith("[1; 2, 2, 2")

    def test_convergents_of_stream(self, capsys):
        code, out, _ = invoke(capsys, "cf", "convergents", "pi", "--count", "4")
        assert code == 0
        assert out == "3\n22/7\n333/106\n355/113\n"

    def test_convergents_of_rational(self, capsys):
        code, out, _ = invoke(capsys, "cf", "convergents", "6/7")
        assert code == 0
        assert out == "0\n1\n6/7\n"

    def test_convergents_of_cf_literal(self, capsys):
        code, out, _ = invoke(capsys, "cf", "convergents", "[3; 7, 15, 1]")
        assert code == 0
        assert out.strip().split("\n")[-1] == "355/113"


class TestDecimal:
    def test_expand(self, capsys):
        code, out, _ = invoke(capsys, "decimal", "expand", "129/550")
        assert code == 0
        assert out == "0.23(45)\n"

    def test_expand_169_550(self, capsys):
        # 169/550 itself expands to 0.30(72)
        code, out, _ = invoke(capsys, "decimal", "expand", "169/550")
        assert code == 0
        assert out == "0.30(72)\n"

    def test_period(self, capsys):
        code, out, _ = invoke(capsys, "decimal", "period", "169/550")
        assert code == 0
        assert out == "period length 2 (preperiod 2)\n"

    def test_period_terminating(self, capsys):
        code, out, _ = invoke(capsys, "decimal", "period", "1/8")
        assert code == 0
        assert out == "terminating (preperiod 3, period 0)\n"

    def test_period_from_the_order_of_10(self, capsys):
        # 10 has order (10^12 + 38) / 6 modulo the prime 10^12 + 39; the
        # walk of the remainders refused this after MAX_DIGITS steps
        code, out, _ = invoke(capsys, "decimal", "period", "1/1000000000039")
        assert (code, out) == (0, "period length 166666666673 (preperiod 0)\n")

    def test_period_from_long_division_where_rho_gives_up(self, capsys, monkeypatch):
        import diagcf.decimal_expansion as decimal_expansion

        def refuse(x):
            raise RangeError("found no factor")

        monkeypatch.setattr(decimal_expansion, "period_length_by_order", refuse)
        code, out, _ = invoke(capsys, "decimal", "period", "169/550")
        assert (code, out) == (0, "period length 2 (preperiod 2)\n")

    def test_period_length_past_the_int_str_limit(self, capsys, monkeypatch):
        # 1/3^9100 has period 3^9098, of 4341 digits; its report costs seconds of modular
        # powers, so a stand-in gives one of 5001 digits. The length ended in a ValueError
        import diagcf.cli as cli

        asked = []

        def report(x):
            asked.append(x)
            return PeriodReport(10**5000, 3, False)

        monkeypatch.setattr(cli, "_period_report", report)
        code, out, err = invoke(capsys, "decimal", "period", "1/" + _digits_of_int(3**9100))
        assert (code, out, err) == (0, f"period length 1{'0' * 5000} (preperiod 3)\n", "")
        assert asked == [Fraction(1, 3**9100)]

    def test_find_period(self, capsys):
        code, out, _ = invoke(capsys, "decimal", "find-period", "6")
        assert code == 0
        assert out == "1/7 (period length 6)\n"

    def test_find_period_long_divides_once(self, capsys, monkeypatch):
        # find_period_at_least re-checks its winner by long division; the
        # printed length comes from the order, not from a second division
        import diagcf.decimal_expansion as decimal_expansion

        divided = []
        period_length = decimal_expansion.period_length

        def spy(x):
            divided.append(x)
            return period_length(x)

        monkeypatch.setattr(decimal_expansion, "period_length", spy)
        code, out, _ = invoke(capsys, "decimal", "find-period", "50")
        assert (code, out) == (0, "1/59 (period length 58)\n")
        assert divided == [Fraction(1, 59)]

    def test_expansion_over_the_digit_limit_is_refused(self):
        # 10^9 + 7 is prime and 10 has order 10^9 + 6 modulo it: the length
        # is known, and refused, before a digit is divided
        started = time.perf_counter()
        done = run_process("decimal", "expand", "1/1000000007", timeout=10)
        assert time.perf_counter() - started < 2
        assert (done.returncode, done.stdout) == (1, "")
        assert "Traceback" not in done.stderr
        assert done.stderr == (
            f"error: the expansion of 1/1000000007 has more than {MAX_DIGITS} digits\n"
        )


class TestDiag:
    def test_decimal_diagonal(self, capsys):
        code, out, _ = invoke(capsys, "diag", "decimal", "--depth", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "constructed: 0.55555"
        assert lines[1] == "     k      d_kk      d_0k  differs"
        assert len(lines) == 7
        assert all(line.endswith("yes") for line in lines[2:])

    def test_decimal_diagonal_tsv(self, capsys):
        code, out, _ = invoke(capsys, "diag", "decimal", "--depth", "3", "--format", "tsv")
        assert code == 0
        assert out.split("\n")[1] == "1\t0\t5"

    def test_cf_irrationals(self, capsys):
        code, out, _ = invoke(capsys, "diag", "cf", "--source", "irrationals", "--depth", "4")
        assert code == 0
        assert out.startswith("constructed: [0; 2, 3, 4, 5]\n")

    def test_cf_rationals(self, capsys):
        code, out, _ = invoke(capsys, "diag", "cf", "--source", "rationals")
        assert code == 0
        assert out == "diagonal undefined at k=1: CF of 1/1 = [1] has no a_11\n"

    def test_analyze(self, capsys):
        code, out, _ = invoke(
            capsys, "diag", "analyze", "--depth", "30",
            "--max-preperiod", "2", "--max-period", "3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("constructed: 0.")
        assert len(lines) == 1 + 9 + 1
        assert lines[-1].endswith("(preperiod, period) pairs")

    def test_analyze_depth_too_small(self, capsys):
        code, _, err = invoke(
            capsys, "diag", "analyze", "--depth", "5",
            "--max-preperiod", "2", "--max-period", "3",
        )
        assert code == 1
        assert err.startswith("error:")


class TestApprox:
    def test_compare(self, capsys):
        code, out, _ = invoke(
            capsys, "approx", "compare",
            "3141592653589793/1000000000000000", "355/113", "3.1416",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("cf error: ")
        assert lines[1].startswith("decimal error: ")
        assert lines[2] == "closer: cf"

    def test_accepts_decimal_literals(self, capsys):
        code, out, _ = invoke(capsys, "approx", "compare", "1/3", "1/3", "0.3333")
        assert code == 0
        assert "decimal error: 1/30000" in out
        assert out.strip().endswith("closer: cf")


    def test_compare_past_the_int_string_limit(self, capsys):
        code, out, err = invoke(capsys, "approx", "compare", "1e5000", "1", "1")
        assert (code, err) == (0, "")
        assert out.startswith("cf error: " + "9" * 5000 + "\n")
        assert out.endswith("closer: tie\n")

    @pytest.mark.parametrize(
        "target, error",
        [
            ("7" * 5000, "7" * 5000),
            ("2" + "0" * 4999 + "/1" + "0" * 4999, "2"),
            ("0." + "0" * 4999 + "5", "1/2" + "0" * 4999),
        ],
        ids=["integer", "p/q", "decimal"],
    )
    def test_long_literals_parse(self, capsys, target, error):
        # each literal has 5000 digits, past the 4300 that Fraction(str) takes
        code, out, err = invoke(capsys, "approx", "compare", target, "0", "0")
        assert (code, err) == (0, "")
        assert out == f"cf error: {error}\ndecimal error: {error}\ncloser: tie\n"

    @pytest.mark.parametrize(
        "literal",
        ["355/113", "-2", "+3", " 7 ", ".5", "5.", "1e5", "1E-3", "+.5e-3", "1_000",
         "1_0.2_5e1_0", "0/5", "00012/0004"],
    )
    def test_literals_keep_their_fraction_value(self, capsys, literal):
        code, out, _ = invoke(capsys, "approx", "compare", literal, "0", literal)
        assert code == 0
        cf_error = out.split("\n")[0].removeprefix("cf error: ")
        assert Fraction(cf_error) == abs(Fraction(literal))

    @pytest.mark.parametrize(
        "literal, exponent", [("1e100000000", 100000000), (" -2.5E-1_000_001", -1000001)]
    )
    def test_huge_exponent_is_refused_before_the_power(self, literal, exponent):
        # 10**100000000 used to be computed before any check
        done = run_process("approx", "compare", literal, "1", "1", timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: exponent {exponent} of {literal.strip()!r} "
            f"exceeds {MAX_EXPONENT} in magnitude\n"
        )

    def test_exponent_run_past_the_int_string_limit(self, capsys):
        # decided by the run's length; str() of the exponent would fail
        literal = "1e" + "9" * 5000
        code, out, err = invoke(capsys, "approx", "compare", literal, "1", "1")
        assert (code, out) == (1, "")
        assert err == (
            f"error: exponent {'9' * 5000} of {literal!r} exceeds {MAX_EXPONENT} in magnitude\n"
        )

    def test_exponent_run_of_leading_zeros(self, capsys):
        code, out, err = invoke(capsys, "approx", "compare", "1e" + "0" * 5000 + "5", "0", "0")
        assert (code, out, err) == (0, "cf error: 100000\ndecimal error: 100000\ncloser: tie\n", "")

    def test_exponent_at_the_bound(self, capsys):
        code, out, err = invoke(capsys, "approx", "compare", f"1e-{MAX_EXPONENT}", "0", "0")
        assert (code, err) == (0, "")
        assert out.startswith(f"cf error: 1/1{'0' * MAX_EXPONENT}\n")
        code, out, err = invoke(capsys, "approx", "compare", f"1e-{MAX_EXPONENT + 1}", "0", "0")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "exceeds" in err

    @pytest.mark.parametrize("literal", ["1/0", "nan", "inf", "abc", "1/", "1.5/2", "1__0", "1e"])
    def test_bad_number_literal_is_a_one_line_error(self, capsys, literal):
        code, out, err = invoke(capsys, "approx", "compare", literal, "1", "1")
        assert (code, out) == (1, "")
        assert err == f"error: invalid number literal: {literal!r}\n"


class TestErrorsAndExitCodes:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (("cf", "convergents", "sqrt2", "--count"), "count"),
            (("cf", "convergents", "1/3", "--count"), "count"),
            (("diag", "decimal", "--depth"), "depth"),
            (("diag", "cf", "--source", "irrationals", "--depth"), "depth"),
            (("diag", "analyze", "--depth"), "depth"),
        ],
        ids=["convergents-stream", "convergents-rational", "decimal", "cf", "analyze"],
    )
    def test_count_past_maxsize_is_refused(self, argv, name):
        # these ended in islice's ValueError traceback
        done = run_process(*argv, str(10**20), timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {name} must be <= {sys.maxsize}\n"

    def test_domain_error_is_exit_1(self, capsys):
        code, out, err = invoke(capsys, "cf", "from-rational", "1/0")
        assert code == 1
        assert out == ""
        assert err == "error: zero denominator\n"

    def test_negative_input(self, capsys):
        # "--" keeps argparse from reading the leading minus as an option
        code, _, err = invoke(capsys, "cf", "from-rational", "--", "-1/2")
        assert code == 1
        assert "negative input" in err

    def test_usage_error_is_exit_2(self, capsys):
        code, _, _ = invoke(capsys, "bogus")
        assert code == 2

    def test_missing_subcommand_is_exit_2(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    def test_bad_literal(self, capsys):
        code, _, err = invoke(capsys, "cf", "to-rational", "[1; x]")
        assert code == 1
        assert "invalid continued fraction literal" in err

    def test_cf_terms_are_ascii_digit_runs(self, capsys):
        code, out, err = invoke(capsys, "cf", "to-rational", "[1_0; 2]")
        assert (code, out) == (1, "")
        assert err == "error: invalid continued fraction literal: '[1_0; 2]'\n"

    def test_pi_convergents_beyond_table(self, capsys):
        code, _, err = invoke(capsys, "cf", "convergents", "pi", "--count", "60")
        assert code == 1
        assert "fixed table" in err

    def test_metallic_source_reports_its_own_error(self, capsys):
        code, out, err = invoke(capsys, "cf", "convergents", "metallic:0")
        assert code == 1
        assert out == ""
        assert err == "error: metallic index must be >= 1\n"

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_cf_diagonal_depth_named_depth(self, capsys, depth):
        code, out, err = invoke(
            capsys, "diag", "cf", "--source", "irrationals", "--depth", depth
        )
        assert code == 1
        assert out == ""
        assert err == "error: depth must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("cf", "from-real", "nan"),
            ("cf", "from-real", "inf"),
            ("cf", "from-real", "--", "-inf"),
            ("cf", "from-real", "1.5", "--eps", "nan"),
            ("cf", "from-real", "1.5", "--eps", "inf"),
        ],
    )
    def test_non_finite_real_is_a_one_line_error(self, argv):
        proc = run_process(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "must be a finite number" in lines[0]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("cf", "from-rational", "1" + "0" * 5000 + "/1"), "[1" + "0" * 5000 + "]"),
            (("decimal", "expand", "1" + "0" * 5000 + "/3"), "3" * 5000 + ".(3)"),
        ],
        ids=["cf-from-rational", "decimal-expand"],
    )
    def test_prints_past_the_int_string_limit(self, argv, expected):
        proc = run_process(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected + "\n"

    def test_help_is_exit_0(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "usage" in out.lower()


# Literals from ASCII and Arabic-Indic digits, the grammar's punctuation and
# the stream names, fed to the commands that only parse and convert them;
# `cf convergents` with a `--count`; and the `diag` commands with every
# option. Each integer is in -3..64, so that a case takes milliseconds, or a
# count or depth past sys.maxsize, which is refused before any work. `decimal`
# stays out: a short literal can still start seconds of work there (`decimal
# expand` of a product of two 20-digit primes).
fuzz_literals = st.lists(
    st.one_of(
        st.text("0123456789", min_size=1, max_size=6),
        st.text("".join(map(chr, range(0x660, 0x66A))), min_size=1, max_size=3),
        st.sampled_from([*"_+-/.eE[];, ", "sqrt2", "e", "phi", "pi", "metallic:"]),
    ),
    max_size=8,
).map("".join)
fuzz_counts = st.one_of(st.integers(-3, 64), st.sampled_from([2**63, 10**20])).map(str)
fuzz_argv = st.one_of(
    st.tuples(st.sampled_from(["from-rational", "to-rational", "convergents"]), fuzz_literals)
    .map(lambda t: ["cf", *t]),
    st.tuples(fuzz_literals, fuzz_counts)
    .map(lambda t: ["cf", "convergents", t[0], "--count", t[1]]),
    st.lists(fuzz_literals, min_size=3, max_size=3).map(lambda t: ["approx", "compare", *t]),
    st.tuples(
        st.sampled_from(["decimal", "cf", "analyze"]),
        st.lists(st.one_of(
            st.tuples(st.just("--source"), st.sampled_from(["irrationals", "rationals"])),
            st.tuples(st.just("--format"), st.sampled_from(["table", "tsv"])),
            st.tuples(st.just("--depth"), fuzz_counts),
            st.tuples(
                st.sampled_from(["--max-preperiod", "--max-period"]), st.integers(-3, 64).map(str)
            ),
        ), max_size=4),
    ).map(lambda t: ["diag", t[0], *(arg for option in t[1] for arg in option)]),
)


@settings(max_examples=300, deadline=None)
@given(fuzz_argv)
def test_literal_commands_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse writes help and usage errors to sys.stdout and sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv, stdout=out, stderr=err)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Every README example, each diagonal at three depths in both formats, and
# the error paths. The first five cases are the original stability cases.
GOLDEN_ARGV = [
    ("cf", "from-rational", "6/7"),
    ("decimal", "expand", "169/550"),
    ("diag", "decimal", "--depth", "10"),
    ("diag", "analyze", "--depth", "20"),
    ("diag", "cf", "--source", "irrationals"),
    ("cf", "from-rational", "6/7", "--format", "plain"),
    ("cf", "to-rational", "[3; 7, 15, 1]"),
    ("cf", "from-real", "1.41421356", "--eps", "1e-9"),
    ("cf", "convergents", "pi", "--count", "4"),
    ("cf", "convergents", "pi", "--count", "48"),
    ("decimal", "expand", "129/550"),
    ("decimal", "period", "1/6"),
    ("decimal", "find-period", "6"),
    ("diag", "decimal", "--depth", "20"),
    ("diag", "cf", "--source", "irrationals", "--depth", "10"),
    ("diag", "cf", "--source", "rationals"),
    ("diag", "analyze", "--depth", "30", "--max-preperiod", "2", "--max-period", "3"),
    ("approx", "compare", "3141592653589793/1000000000000000", "355/113", "3.1416"),
    *(
        ("diag", *command, "--depth", str(depth), "--format", fmt)
        for command in (("decimal",), ("cf", "--source", "irrationals"))
        for depth in (1, 20, 300)
        for fmt in ("table", "tsv")
    ),
    *(("diag", "analyze", "--depth", str(depth)) for depth in (1, 20, 300)),
    ("cf", "from-rational", "--", "-1/2"),
    ("cf", "convergents", "pi", "--count", "60"),
    ("cf", "convergents", "metallic:0"),
    ("cf", "from-real", "nan"),
    ("decimal", "expand", "1/0"),
    ("diag", "decimal", "--depth", "0"),
    ("diag", "cf", "--source", "irrationals", "--depth", "0"),
    ("diag", "cf", "--source", "irrationals", "--depth", "-3"),
    ("diag", "analyze", "--depth", "3"),
    ("diag", "analyze", "--max-preperiod", "-1"),
    ("diag", "analyze", "--max-period", "0"),
    ("diag", "analyze", "--depth", "0", "--max-preperiod", "-5", "--max-period", "1"),
]

# One record per case: exit code, stdout and stderr as `run` printed them
# when the transcript was written. Rewrite a record only for an intended
# change of output.
GOLDEN = {
    tuple(record["argv"]): record
    for record in json.loads((Path(__file__).parent / "cli_golden.json").read_text())
}


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_output_is_stable_across_runs(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    record = GOLDEN[argv]
    assert (code, out, err) == (record["code"], record["stdout"], record["stderr"])
