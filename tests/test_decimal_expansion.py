import math
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import diagcf.decimal_expansion
import diagcf.enumeration
from diagcf import (
    DecimalExpansion,
    DomainError,
    PeriodReport,
    RangeError,
    digit_at,
    digits_of,
    expand,
    find_period_at_least,
    multiplicative_order,
    parse_expansion,
    period_length,
    period_length_by_order,
    reconstruct,
)
from diagcf._factoring import is_strong_lucas_probable_prime, prime_factors
from diagcf.decimal_expansion import _divide_to, _long_divide

SRC = Path(__file__).resolve().parents[1] / "src"

# 2^a * 5^b * d: the preperiod is max(a, b), the period is d's
denominators = st.builds(
    lambda a, b, d: 2**a * 5**b * d, st.integers(0, 15), st.integers(0, 15), st.integers(1, 3000)
)


def order_brute(base, modulus):
    """Independent oracle: step the power until it returns to 1."""
    r = base % modulus
    length = 1
    while r != 1:
        r = r * base % modulus
        length += 1
    return length


def expand_by_digit(x: Fraction) -> DecimalExpansion:
    """Independent oracle: long division one digit at a time, up to the
    first repeated remainder."""
    den = x.denominator
    whole, rem = divmod(x.numerator, den)
    digits, seen = [], {}
    while rem not in seen:
        seen[rem] = len(digits)
        rem *= 10
        digits.append(str(rem // den))
        rem %= den
    start = seen[rem]
    return DecimalExpansion(whole, "".join(digits[:start]), "".join(digits[start:]))


def primes_by_trial_division(n: int) -> list[int]:
    """Independent oracle: the distinct primes of n, by every divisor up to its root."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


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
        for refuse in (expand, period_length):
            with pytest.raises(DomainError, match="^negative input$"):
                refuse(Fraction(-1, 3))

    def test_round_trip_small(self):
        rng = random.Random(31)
        for _ in range(300):
            x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            assert reconstruct(expand(x)) == x

    @given(st.builds(Fraction, st.integers(0, 2000), st.integers(1, 2000)))
    def test_round_trip_property(self, x):
        assert reconstruct(expand(x)) == x

    @given(
        st.one_of(st.integers(0, 10**6), st.integers(10**4300, 10**4301)),
        denominators,
    )
    @example(0, 1)
    @example(7, 1)
    @example(1, 2**15)
    @example(10**4300 + 1, 7 * 2**3 * 5**9)
    def test_matches_digit_by_digit_long_division(self, p, q):
        # integers, zero, 2^a * 5^b denominators, mixed preperiods, numerators
        # past CPython's 4300-digit int/str limit
        x = Fraction(p, q)
        assert expand(x) == expand_by_digit(x)

    def test_period_of_a_million_and_three(self):
        assert len(expand(Fraction(1, 1000003)).period) == 166667

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

    def test_long_division_alone(self, monkeypatch):
        # the long-division side of the oracle pair reaches its report
        # without the order of 10, which expand also rests on
        for name in ("expand", "multiplicative_order", "period_length_by_order"):
            monkeypatch.setattr(diagcf.decimal_expansion, name, None)
        rng = random.Random(53)
        inputs = [Fraction(rng.randint(0, 3000), rng.choice([1, 2, 5, 8, 40, 3, 7]) * rng.randint(1, 300))
                  for _ in range(300)]
        # the preperiods closest to the walk's bound of q.bit_length() digits
        inputs += [Fraction(1, 2**a) for a in range(301)] + [Fraction(3, 5**b * 7) for b in range(301)]
        inputs += [Fraction(11, 2**a * 5**b * 13) for a in range(0, 301, 20) for b in range(0, 301, 20)]
        inputs.append(Fraction(0))
        for x in inputs:
            e = expand_by_digit(x)
            assert period_length(x) == PeriodReport(len(e.period), len(e.preperiod), e.period == "0")

    @staticmethod
    def count_steps(monkeypatch, x):
        # the walk's `% q` steps, counted on the denominator that the real
        # rational check hands the walk: (report or refusal, steps)
        class CountingInt(int):
            steps = 0

            def __rmod__(self, other):
                CountingInt.steps += 1
                return int.__rmod__(self, other)

        check = diagcf.decimal_expansion._check_rational

        def counting_check(value):
            num, den = check(value)
            return num, CountingInt(den)

        monkeypatch.setattr(diagcf.decimal_expansion, "_check_rational", counting_check)
        try:
            outcome = period_length(x)
        except RangeError as refusal:
            outcome = refusal
        return outcome, CountingInt.steps

    def test_refusal_walks_the_cycle_once(self, monkeypatch):
        # 10 has order (10^12 + 38) / 6 modulo the prime 10^12 + 39; the
        # walk jumps past the preperiod bound in one modular power and then
        # takes MAX_DIGITS remainder steps before it refuses
        monkeypatch.setattr(diagcf.decimal_expansion, "MAX_DIGITS", 1000)
        refusal, steps = self.count_steps(monkeypatch, Fraction(1, 1000000000039))
        assert isinstance(refusal, RangeError)
        assert str(refusal) == "the expansion of 1/1000000000039 has more than 1000 digits"
        assert steps == 1000 + 2

    @pytest.mark.parametrize("x, report", [
        (Fraction(1, 7), PeriodReport(6, 0, False)),
        (Fraction(169, 550), PeriodReport(2, 2, False)),
        (Fraction(1, 2**300 * 7), PeriodReport(6, 300, False)),
        (Fraction(1, 10007), PeriodReport(10006, 0, False)),
        (Fraction(0), PeriodReport(1, 0, True)),
    ])
    def test_walk_that_returns_takes_lambda_plus_twice_mu_steps(self, monkeypatch, x, report):
        # two steps to reach the cycle, lambda to walk it, one to place the
        # walker ahead, and two per preperiod digit while the walkers meet
        steps = report.period_length + 2 * report.preperiod_length + 3
        assert self.count_steps(monkeypatch, x) == (report, steps)

    @pytest.mark.parametrize("x", [Fraction(1, 101 * 103), Fraction(3, 2**5 * 1009 * 1013)])
    def test_expand_where_rho_gives_up_takes_one_walk(self, monkeypatch, x):
        # both denominators have no prime below 53, so the order route needs rho; with no
        # rho step allowed, expand takes its lengths from one walk of lambda + 2 mu + 3 steps
        report, expansion = period_length_by_order(x), expand(x)
        walks = []

        def counted_walk(value):
            with pytest.MonkeyPatch.context() as patch:  # the count covers the walk alone
                walks.append(self.count_steps(patch, value))
            return walks[-1][0]

        monkeypatch.setattr(diagcf._factoring, "MAX_RHO_STEPS", 0)
        monkeypatch.setattr(diagcf.decimal_expansion, "period_length", counted_walk)
        with pytest.raises(RangeError, match="rho steps$"):
            period_length_by_order(x)
        assert expand(x) == expansion
        assert walks == [(report, report.period_length + 2 * report.preperiod_length + 3)]


class TestDigitLimit:
    def test_refused_before_a_digit_is_divided(self):
        # 10^9 + 7 is prime and 10 has order 10^9 + 6 modulo it
        started = time.perf_counter()
        with pytest.raises(RangeError, match="^the expansion of 1/1000000007 has more than"):
            expand(Fraction(1, 1000000007))
        assert time.perf_counter() - started < 1

    def test_a_ten_million_digit_period_fits(self):
        e = expand(Fraction(1, 10000019))
        assert (len(e.preperiod), len(e.period)) == (0, 10000018)
        # the period read as an integer is (10^lambda - 1) / 10000019
        assert e.period.startswith("00000009999981")
        assert int(e.period[-12:]) * 10000019 % 10**12 == 10**12 - 1

    @given(
        st.builds(
            Fraction,
            st.integers(0, 10**6),
            st.builds(lambda a, b, d: 2**a * 5**b * d,
                      st.integers(0, 60), st.integers(0, 60), st.integers(1, 300)),
        )
    )
    @example(Fraction(1, 2**40))  # mu + lambda = 41
    @example(Fraction(1, 2**39))  # mu + lambda = 40
    @example(Fraction(1, 41))  # lambda = 5
    @example(Fraction(1, 83))  # lambda = 41
    @example(Fraction(1, 2**37 * 41))  # mu = 37, lambda = 5
    def test_both_routes_refuse_exactly_the_longer_expansions(self, x):
        # mu + lambda over the limit is refused by the order route (expand)
        # and by long division (period_length) alike, and nothing else is
        report = period_length_by_order(x)
        too_long = report.preperiod_length + report.period_length > 40
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diagcf.decimal_expansion, "MAX_DIGITS", 40)
            for route in (expand, period_length):
                if too_long:
                    with pytest.raises(RangeError, match="has more than 40 digits$"):
                        route(x)
                else:
                    route(x)


R19, R23 = (10**19 - 1) // 9, (10**23 - 1) // 9  # repunit primes


class TestFactoringBudget:
    # short periods over denominators that rho cannot split within its
    # budget: 10^71 - 1 = 9 * R71, and R71 is the product of a 30-digit and
    # a 41-digit prime; R19 * R23 needs about 10^9 rho steps

    @pytest.mark.parametrize("d, period", [(10**71 - 1, 71), (R19 * R23, 437)], ids=["10^71-1", "R19*R23"])
    def test_expand_takes_the_lengths_from_long_division(self, d, period):
        started = time.perf_counter()
        e = expand(Fraction(1, d))
        assert time.perf_counter() - started < 10
        assert (len(e.preperiod), len(e.period)) == (0, period)
        assert e == expand_by_digit(Fraction(1, d))

    def test_the_order_route_refuses(self):
        started = time.perf_counter()
        with pytest.raises(RangeError, match="^found no factor of a 134-bit number in 1048576 rho steps$"):
            period_length_by_order(Fraction(1, R19 * R23))
        assert time.perf_counter() - started < 10

    def test_factoring_is_loaded_on_first_use(self):
        # `import diagcf` leaves the factoring module uncompiled
        probe = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import diagcf\n"
            "print('diagcf._factoring' in sys.modules, diagcf.multiplicative_order(10, 7),\n"
            "      'diagcf._factoring' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "False 6 True\n")


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

    @given(st.integers(2, 4999).filter(lambda d: math.gcd(d, 10) == 1))
    def test_property_against_brute_force(self, d):
        assert multiplicative_order(10, d) == order_brute(10, d)

    @pytest.mark.parametrize(
        "modulus, order, primes",
        [
            (2**61 - 1, (2**61 - 2) // 2, (3, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)),
            (10**14 + 31, 50000000000015, (5, 13, 29, 547, 48492137)),
        ],
    )
    def test_large_prime_moduli(self, modulus, order, primes):
        started = time.perf_counter()
        assert multiplicative_order(10, modulus) == order
        assert time.perf_counter() - started < 1
        # the pinned order's certificate: the primes are all of its primes,
        # 10^order = 1 and no 10^(order / p) is
        assert [p for p in primes if primes_by_trial_division(p) == [p]] == list(primes)
        rest = order
        for p in primes:
            while rest % p == 0:
                rest //= p
        assert rest == 1
        assert pow(10, order, modulus) == 1
        assert all(pow(10, order // p, modulus) != 1 for p in primes)

    @pytest.mark.parametrize("k", [100, 200, 400])
    def test_a_prime_power_modulus_takes_three_powers(self, k, monkeypatch):
        # phi(3^k) = 2*3^(k-1) and the order of 10 is 3^(k-2): one power strips the 2, one
        # strips a 3 and one fails to strip the next, so the stripping stops at the first
        # power that is not 1, never one power per factor of 3
        powers = []

        def spy(*args):
            powers.append(args[1:])
            return pow(*args)

        monkeypatch.setattr(diagcf.decimal_expansion, "pow", spy, raising=False)
        assert multiplicative_order(10, 3**k) == 3 ** (k - 2)
        assert powers == [(3 ** (k - 1), 3**k), (3 ** (k - 2), 3**k), (3 ** (k - 3), 3**k)]

    def test_errors(self):
        with pytest.raises(DomainError):
            multiplicative_order(10, 1)
        with pytest.raises(DomainError, match="coprime"):
            multiplicative_order(10, 4)


class TestPrimeFactors:
    @pytest.mark.parametrize(
        "n, primes",
        [
            (3215031751, [151, 751, 28351]),  # strong pseudoprime to bases 2, 3, 5, 7
            # strong pseudoprime to every prime base up to 31
            (3825123056546413051, [149491, 747451, 34233211]),
            (561, [3, 11, 17]),  # Carmichael numbers
            (41041, [7, 11, 13, 41]),
            (825265, [5, 7, 17, 19, 73]),
            (10007**2, [10007]),  # prime squares
            (999999000001**2, [999999000001]),
            (1000003 * 1000033, [1000003, 1000033]),
        ],
    )
    def test_pinned(self, n, primes):
        assert prime_factors(n) == primes

    @given(st.integers(1, 10**7))
    @example(1)
    @example(2809)  # 53^2, the first square past the trial primes
    @example(53 * 59)
    def test_property_against_trial_division(self, n):
        assert prime_factors(n) == primes_by_trial_division(n)

    @given(st.integers(10**4, 10**6), st.integers(10**4, 10**6))
    def test_products_of_two_primes(self, a, b):
        p, q = (next(n for n in range(m, 2 * m) if primes_by_trial_division(n) == [n]) for m in (a, b))
        assert prime_factors(p * q) == sorted({p, q})

    def test_past_the_exact_miller_rabin_bound(self):
        # above 3.3 * 10^24 primality also takes the strong Lucas test
        m31, m61, m89 = 2**31 - 1, 2**61 - 1, 2**89 - 1  # Mersenne primes
        assert prime_factors(m89) == [m89]
        assert prime_factors(2**127 - 1) == [2**127 - 1]
        assert prime_factors(m61 * m31 * m31) == [m31, m61]
        assert prime_factors(m61**2) == [m61]
        assert prime_factors(m89 * 3**5 * 47) == [3, 47, m89]

    def test_strong_lucas_passes_primes_and_its_known_pseudoprimes(self):
        # the odd composites below 20000 that pass the strong Lucas test with
        # Selfridge's parameters are exactly these (OEIS A217255)
        passed = {
            n for n in range(5, 20000, 2)
            if is_strong_lucas_probable_prime(n) and primes_by_trial_division(n) != [n]
        }
        assert passed == {5459, 5777, 10877, 16109, 18971}
        assert all(
            is_strong_lucas_probable_prime(n)
            for n in range(5, 20000, 2) if primes_by_trial_division(n) == [n]
        )


BLOCK_EDGES = (1, 255, 256, 257, 511, 512, 513)
remainders = st.integers(1, 2**200).flatmap(
    lambda den: st.tuples(st.integers(0, den - 1), st.just(den))
)


class TestDivideTo:
    """The verify walk's `_divide_to` divides `_long_divide`'s blocks and renders none:
    its digit is the last `_long_divide` renders, with the same remainder after it."""

    @staticmethod
    def check(rem, den, n):
        digits, left = _long_divide(rem, den, n)
        assert _divide_to(rem, den, n) == (int(digits[-1]), left)

    @settings(deadline=None)
    @given(remainders, st.sampled_from(BLOCK_EDGES) | st.integers(1, 2000))
    def test_last_digit_of_long_division(self, rem_den, n):
        self.check(*rem_den, n)

    @pytest.mark.parametrize("n", BLOCK_EDGES + (2000,))
    @given(remainders)
    def test_at_the_block_edges(self, n, rem_den):
        self.check(*rem_den, n)


class CountingDen(int):
    """A denominator that counts the whole-block steps (`% den`) and the block divisions
    (`divmod(_, den)`) made with it; the results stay plain ints."""

    mods = divmods = 0

    def __rmod__(self, other):
        self.mods += 1
        return int.__rmod__(self, other)

    def __rdivmod__(self, other):
        self.divmods += 1
        return int.__rdivmod__(self, other)


class TestBlockCounts:
    """Digits come in blocks of 256: k digits take ceil(k / 256) divisions in one call."""

    @staticmethod
    def spy(monkeypatch, module):
        # each `_long_divide` call that module makes, as (digits asked for, its denominator)
        calls = []

        def counted(rem, den, n):
            calls.append((n, CountingDen(den)))
            return _long_divide(rem, calls[-1][1], n)

        monkeypatch.setattr(module, "_long_divide", counted)
        return calls

    @pytest.mark.parametrize("k", (0,) + BLOCK_EDGES + (5000,))
    def test_take(self, monkeypatch, k):
        calls = self.spy(monkeypatch, diagcf.enumeration)
        assert digits_of(Fraction(1, 7)).take(k) == ([1, 4, 2, 8, 5, 7] * k)[:k]
        assert [(n, den.divmods, den.mods) for n, den in calls] == [(k, -(-k // 256), 0)]

    @pytest.mark.parametrize("x", [
        Fraction(1, 7), Fraction(22, 7), Fraction(1, 2**300 * 7), Fraction(1, 10007), Fraction(5),
    ])
    def test_expand(self, monkeypatch, x):
        lam, mu, _ = period_length_by_order(x)
        calls = self.spy(monkeypatch, diagcf.decimal_expansion)
        e = expand(x)
        k = len(e.preperiod + e.period)
        assert k == mu + lam
        assert [(n, den.divmods, den.mods) for n, den in calls] == [(k, -(-k // 256), 0)]

    @pytest.mark.parametrize("n", BLOCK_EDGES + (2000,))
    def test_divide_to(self, n):
        den = CountingDen(10**40 + 7)
        assert _divide_to(1, den, n) == _divide_to(1, 10**40 + 7, n)
        assert (den.mods, den.divmods) == ((n - 1) // 256, 1)


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

    def test_numpy_parts_take_the_checked_route(self):
        # a Fraction keeps numpy parts: they are read through the rational check, as plain ints
        numpy = pytest.importorskip("numpy")
        assert digit_at(Fraction(numpy.int64(6), 7), 7) == 8
        assert type(digit_at(Fraction(numpy.int64(6), numpy.int64(7)), 7)) is int
        with pytest.raises(DomainError, match="^negative input$"):
            digit_at(Fraction(numpy.int64(-6), 7), 7)
        with pytest.raises(DomainError, match="^negative input$"):
            digit_at(Fraction(-6, 7), 7)


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

    def test_bound_over_the_digit_limit_is_refused_before_the_scan(self, monkeypatch):
        monkeypatch.setattr(diagcf.decimal_expansion, "multiplicative_order", None)
        limit = diagcf.decimal_expansion.MAX_DIGITS
        with pytest.raises(RangeError, match=f"^period length bound {limit + 1} exceeds {limit} digits$"):
            find_period_at_least(limit + 1)


# the expansion literal's grammar as one regex, the form parse_expansion
# had before it split the text itself; kept as the reference
EXPANSION_RE = re.compile(r"^([0-9]+)\.([0-9]*)\(([0-9]+)\)$")


def parse_by_regex(text):
    m = EXPANSION_RE.match(text.strip())
    if not m:
        raise DomainError(f"invalid expansion literal: {text!r}")
    return DecimalExpansion(int(m.group(1)), m.group(2), m.group(3))


def parsed_or_refused(parse, text):
    try:
        return parse(text)
    except DomainError:
        return None


# texts over the literal's own characters and a few it must refuse, and
# texts shaped "w.u(v)" from such pieces, so that many parse
LITERAL_CHARS = "0129.() \n+-_\N{ARABIC-INDIC DIGIT ONE}"
literal_pieces = st.text(LITERAL_CHARS, max_size=4) | st.text("0129", max_size=4)
expansion_texts = st.one_of(
    st.text(LITERAL_CHARS, max_size=12),
    st.builds(
        lambda w, u, v, tail: f"{w}.{u}({v}){tail}",
        literal_pieces, literal_pieces, literal_pieces, st.sampled_from(["", ")", " ", "\n", "x"]),
    ),
)


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

    @pytest.mark.parametrize(
        "bad",
        ["0.23", "0.23()", "abc", "0.2(3", "-1.(3)", "0.2(3)4", "\N{ARABIC-INDIC DIGIT ONE}.(3)"],
    )
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_expansion(bad)

    @settings(max_examples=1000)
    @given(expansion_texts)
    @example("0.(9)")
    @example(" 12.(0) ")
    @example("1.2(3))")
    @example("1..(3)")
    def test_accepts_what_the_regex_grammar_accepts(self, text):
        assert parsed_or_refused(parse_expansion, text) == parsed_or_refused(parse_by_regex, text)
