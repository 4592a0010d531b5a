import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import diagcf.decimal_expansion
from diagcf import (
    DecimalExpansion,
    DomainError,
    PeriodReport,
    digit_at,
    expand,
    find_period_at_least,
    multiplicative_order,
    parse_expansion,
    period_length,
    period_length_by_order,
    reconstruct,
)

SRC = Path(__file__).resolve().parents[1] / "src"

def order_brute(base, modulus):
    """Independent oracle: step the power until it returns to 1."""
    r = base % modulus
    length = 1
    while r != 1:
        r = r * base % modulus
        length += 1
    return length


def unrolled_digits(e: DecimalExpansion, n: int) -> str:
    """Independent oracle: preperiod then the period, repeated out to n digits."""
    s = e.preperiod
    while len(s) < n:
        s += e.period
    return s[:n]


def reconstruct_raw(integer_part: int, preperiod: str, period: str) -> Fraction:
    """Closed form without the constructor's guards, for minimality probes."""
    p, l = len(preperiod), len(period)
    value = Fraction(integer_part)
    if preperiod:
        value += Fraction(int(preperiod), 10**p)
    value += Fraction(int(period), 10**p * (10**l - 1))
    return value


class TestExpand:
    def test_examples(self):
        assert expand(Fraction(1, 6)) == DecimalExpansion(0, "1", "6")
        assert expand(Fraction(6, 7)) == DecimalExpansion(0, "", "857142")
        assert expand(Fraction(5)) == DecimalExpansion(5, "", "0")
        # 0.23(45) reconstructs to 129/550; 169/550 itself is 0.30(72)
        assert expand(Fraction(129, 550)) == DecimalExpansion(0, "23", "45")
        assert expand(Fraction(169, 550)) == DecimalExpansion(0, "30", "72")

    def test_more_cases(self):
        assert expand(Fraction(0)) == DecimalExpansion(0, "", "0")
        assert expand(Fraction(1, 8)) == DecimalExpansion(0, "125", "0")
        assert expand(Fraction(1, 3)) == DecimalExpansion(0, "", "3")
        assert expand(Fraction(22, 7)) == DecimalExpansion(3, "", "142857")
        assert str(expand(Fraction(129, 550))) == "0.23(45)"
        assert str(expand(Fraction(5))) == "5.(0)"

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="negative"):
            expand(Fraction(-1, 3))

    def test_round_trip_small(self):
        rng = random.Random(31)
        for _ in range(300):
            x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            assert reconstruct(expand(x)) == x

    @given(st.builds(Fraction, st.integers(0, 2000), st.integers(1, 2000)))
    def test_round_trip_property(self, x):
        assert reconstruct(expand(x)) == x

    def test_round_trip_past_the_int_string_limit(self):
        # the period of 1/10007 has 10006 digits, over CPython's 4300
        x = Fraction(1, 10007)
        assert len(expand(x).period) == 10006
        assert reconstruct(expand(x)) == x

    def test_minimality(self):
        rng = random.Random(37)
        for _ in range(200):
            x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            e = expand(x)
            # no proper divisor block of the period also generates x
            l = len(e.period)
            for d in range(1, l):
                if l % d == 0:
                    assert reconstruct_raw(e.integer_part, e.preperiod, e.period[:d]) != x
            # the preperiod cannot be shortened either
            if e.preperiod:
                assert reconstruct_raw(e.integer_part, e.preperiod[:-1], e.period) != x

    def test_never_all_nines(self):
        for q in range(1, 300):
            for p in (1, q - 1, q + 1, 7):
                if p >= 1:
                    e = expand(Fraction(p, q))
                    assert set(e.period) != {"9"}


class TestPeriodLength:
    def test_examples(self):
        assert period_length(Fraction(1, 6)) == PeriodReport(1, 1, False)
        assert period_length(Fraction(169, 550)).period_length == 2
        assert period_length(Fraction(129, 550)) == PeriodReport(2, 2, False)
        # long-division remainders of 1/7 cycle through 1,3,2,6,4,5
        assert period_length(Fraction(1, 7)) == PeriodReport(6, 0, False)

    def test_terminating_reports(self):
        assert period_length(Fraction(5)) == PeriodReport(1, 0, True)
        assert period_length(Fraction(1, 8)) == PeriodReport(1, 3, True)


class TestPeriodLengthByOrder:
    def test_examples(self):
        # 10 = 1 mod 3
        assert period_length_by_order(Fraction(1, 6)) == PeriodReport(1, 1, False)
        # 550 = 2 * 5^2 * 11 and 10^2 = 1 mod 11
        assert period_length_by_order(Fraction(169, 550)) == PeriodReport(2, 2, False)
        assert period_length_by_order(Fraction(1, 8)) == PeriodReport(1, 3, True)

    def test_agrees_with_long_division(self):
        for q in range(1, 400):
            x = Fraction(1, q)
            assert period_length_by_order(x) == period_length(x)
        rng = random.Random(41)
        for _ in range(300):
            x = Fraction(rng.randint(1, 3000), rng.randint(1, 1000))
            assert period_length_by_order(x) == period_length(x)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(10, 3) == 1
        assert multiplicative_order(10, 7) == 6
        assert multiplicative_order(10, 11) == 2
        assert multiplicative_order(10, 17) == 16

    def test_against_brute_force(self):
        for n in range(2, 2000):
            if math.gcd(10, n) == 1:
                assert multiplicative_order(10, n) == order_brute(10, n)

    def test_other_bases(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(2, 500)
            b = rng.randint(2, 500)
            if math.gcd(b, n) == 1:
                assert multiplicative_order(b, n) == order_brute(b, n)
        # powers of two, where Carmichael's lambda is half of Euler's phi
        for e in range(1, 13):
            for n in (2**e, 3 * 2**e):
                for b in (3, 5, 7):
                    if math.gcd(b, n) == 1:
                        assert multiplicative_order(b, n) == order_brute(b, n)

    def test_errors(self):
        with pytest.raises(DomainError):
            multiplicative_order(10, 1)
        with pytest.raises(DomainError, match="coprime"):
            multiplicative_order(10, 4)


class TestDigitAt:
    def test_examples(self):
        # 169/550 = 0.30(72): 3, 0, 7, 2, 7, ...
        assert digit_at(Fraction(169, 550), 5) == 7
        # 129/550 = 0.23(45): 2, 3, 4, 5, 4, ...
        assert digit_at(Fraction(129, 550), 5) == 4
        assert digit_at(Fraction(5), 3) == 0
        # period 857142 wraps: position 7 is position 1 again
        assert digit_at(Fraction(6, 7), 7) == 8

    def test_agrees_with_unrolled_expansion(self):
        rng = random.Random(47)
        for _ in range(60):
            x = Fraction(rng.randint(0, 900), rng.randint(1, 900))
            reference = unrolled_digits(expand(x), 200)
            for j in range(1, 201):
                assert digit_at(x, j) == int(reference[j - 1])

    def test_deep_position(self):
        # 1/7 has period 142857; position 10**12 is 10**12 mod 6 = 4 -> digit 8
        assert digit_at(Fraction(1, 7), 10**12) == 8

    def test_errors(self):
        with pytest.raises(DomainError):
            digit_at(Fraction(1, 3), 0)
        with pytest.raises(DomainError):
            digit_at(Fraction(-1, 3), 1)


class TestReconstruct:
    def test_examples(self):
        assert reconstruct(DecimalExpansion(0, "1", "6")) == Fraction(1, 6)
        assert reconstruct(DecimalExpansion(5, "", "0")) == Fraction(5)
        # 23/100 + 45/9900 = 129/550
        assert reconstruct(DecimalExpansion(0, "23", "45")) == Fraction(129, 550)

    def test_leading_zero_preperiod(self):
        assert reconstruct(DecimalExpansion(0, "02", "0")) == Fraction(1, 50)

    @given(
        st.integers(0, 10**6),
        st.one_of(st.text("0123456789", max_size=6), st.sampled_from(["0", "00", "090"])),
        st.one_of(st.text("0123456789", min_size=1, max_size=6), st.sampled_from(["0", "00", "09"])),
    )
    def test_non_canonical_expansions(self, w, u, v):
        # any block pair, not just expand's minimal one, against the three-term sum
        if set(v) != {"9"}:
            assert reconstruct(DecimalExpansion(w, u, v)) == reconstruct_raw(w, u, v)

    def test_malformed_rejected_at_construction(self):
        with pytest.raises(DomainError):
            DecimalExpansion(0, "2a", "5")
        with pytest.raises(DomainError, match="empty period"):
            DecimalExpansion(0, "2", "")
        with pytest.raises(DomainError, match="nine-repeating"):
            DecimalExpansion(0, "", "9")
        with pytest.raises(DomainError, match="nine-repeating"):
            DecimalExpansion(0, "1", "99")
        with pytest.raises(DomainError):
            DecimalExpansion(-1, "", "3")


class TestFindPeriodAtLeast:
    def test_examples(self):
        assert find_period_at_least(1) == Fraction(1, 3)
        assert find_period_at_least(6) == Fraction(1, 7)
        # 10 is a primitive root mod 17
        assert find_period_at_least(16) == Fraction(1, 17)

    def test_least_answer(self):
        # brute force: the first d >= 3 coprime to 10 whose order is long enough
        orders = {}
        for bound in range(1, 301):
            d = 3
            while True:
                if math.gcd(d, 10) == 1:
                    if d not in orders:
                        orders[d] = order_brute(10, d)
                    if orders[d] >= bound:
                        break
                d += 1
            assert find_period_at_least(bound) == Fraction(1, d)

    def test_scan_skips_denominators_too_small_to_qualify(self, monkeypatch):
        # the order of 10 mod d is at most d - 1, so no d <= 1000 can have one >= 1000
        moduli = []
        order = diagcf.decimal_expansion.multiplicative_order

        def spy(base, modulus):
            moduli.append(modulus)
            return order(base, modulus)

        monkeypatch.setattr(diagcf.decimal_expansion, "multiplicative_order", spy)
        x = find_period_at_least(1000)
        assert moduli and min(moduli) > 1000
        assert len(expand(x).period) >= 1000

    def test_verified_by_expand(self):
        for bound in range(1, 31):
            x = find_period_at_least(bound)
            assert len(expand(x).period) >= bound

    def test_recheck_refuses_a_wrong_order(self, monkeypatch):
        # the order says every d qualifies; long division of 1/9 says period 1
        monkeypatch.setattr(diagcf.decimal_expansion, "multiplicative_order", lambda b, m: 10**9)
        with pytest.raises(AssertionError, match="^long division of 1/9 disagrees"):
            find_period_at_least(7)

    def test_recheck_survives_optimized_mode(self):
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import diagcf.decimal_expansion as m\n"
            "assert False, 'assert statements run'\n"
            "m.multiplicative_order = lambda b, n: 10**9\n"
            "try:\n"
            "    print(m.find_period_at_least(7))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe, str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "long division of 1/9 disagrees with the order of 10\n"

    def test_errors(self):
        with pytest.raises(DomainError):
            find_period_at_least(0)


class TestTextForm:
    def test_round_trip(self):
        for text in ("0.23(45)", "5.(0)", "0.(3)", "3.(142857)"):
            assert str(parse_expansion(text)) == text

    def test_parse_matches_expand(self):
        assert parse_expansion("0.1(6)") == expand(Fraction(1, 6))

    def test_round_trip_past_the_int_string_limit(self):
        e = expand(Fraction(10**5000, 3))  # integer part of 5000 threes
        assert str(e) == "3" * 5000 + ".(3)"
        assert parse_expansion(str(e)) == e
        assert parse_expansion("1" + "0" * 5000 + ".(0)") == DecimalExpansion(10**5000, "", "0")

    @pytest.mark.parametrize("bad", ["0.23", "0.23()", "abc", "0.2(3", "-1.(3)", "0.2(3)4"])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_expansion(bad)
