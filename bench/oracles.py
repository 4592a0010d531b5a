"""Independent reference arithmetic for checking diagcf's answers.

Nothing here calls diagcf: each answer is reached by a different route
than the library takes (Stern's diatomic sequence for Calkin-Wilf,
Euclid read off by this module, the multiplicative order from a
Pollard-rho factorisation), so agreement means something.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n (Pollard rho, Floyd cycles)."""
    while True:
        x = y = rng.randrange(2, n)
        c = rng.randrange(1, n)
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    rng = random.Random(n)
    out: set[int] = set()
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out.add(m)
            continue
        f = 2 if m % 2 == 0 else _rho(m, rng)
        stack += [f, m // f]
    return out


def order_of_10(d: int) -> int:
    """Multiplicative order of 10 mod d, gcd(d, 10) = 1: start from the
    Carmichael exponent of d and strip every prime that keeps 10^l = 1."""
    if d == 1:
        return 1
    lam = 1
    for p in prime_factors(d):
        e = 0
        rest = d
        while rest % p == 0:
            rest //= p
            e += 1
        lam = math.lcm(lam, (p - 1) * p ** (e - 1))
    for p in prime_factors(lam):
        while lam % p == 0 and pow(10, lam // p, d) == 1:
            lam //= p
    return lam


def is_order_of_10(lam: int, d: int) -> bool:
    """True when lam is exactly the multiplicative order of 10 mod d."""
    if lam < 1 or pow(10, lam, d) != 1 % d:
        return False
    return all(pow(10, lam // p, d) != 1 for p in prime_factors(lam))


def decimal_shape(q: int) -> tuple[int, int]:
    """(preperiod, period) lengths of any p/q in lowest terms; period 0
    when the expansion terminates."""
    a = b = 0
    while q % 2 == 0:
        q //= 2
        a += 1
    while q % 5 == 0:
        q //= 5
        b += 1
    return max(a, b), (0 if q == 1 else order_of_10(q))


def digit(x: Fraction, j: int) -> int:
    """j-th fractional digit of x >= 0: ten times the remainder left after
    j - 1 steps of long division, divided by the denominator."""
    den = x.denominator
    return 10 * (x.numerator * pow(10, j - 1, den) % den) // den


def digits(x: Fraction, start: int, n: int) -> str:
    """Fractional digits start .. start + n - 1 of x >= 0, by long division
    a thousand digits at a time from the remainder left before `start`."""
    den = x.denominator
    rem = x.numerator * pow(10, start - 1, den) % den
    chunks = []
    while n > 0:
        k = min(n, 1000)
        block, rem = divmod(rem * 10**k, den)
        chunks.append(str(block).zfill(k))
        n -= k
    return "".join(chunks)


def euclid_terms(x: Fraction) -> list[int]:
    num, den = x.numerator, x.denominator
    terms = []
    while den:
        a, r = divmod(num, den)
        terms.append(a)
        num, den = den, r
    return terms


def fold(terms: list[int]) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def convergent_values(terms) -> list[Fraction]:
    out = []
    h1, h0, k1, k0 = 1, 0, 0, 1
    for a in terms:
        h1, h0, k1, k0 = a * h1 + h0, h1, a * k1 + k0, k1
        out.append(Fraction(h1, k1))
    return out


def first_convergent_within(x: Fraction, eps: Fraction) -> Fraction:
    for value in convergent_values(euclid_terms(x)):
        if abs(x - value) <= eps:
            return value
    raise AssertionError("the last convergent equals x")


def stern(n: int) -> int:
    """Stern's diatomic sequence s(n), by the binary digits of n."""
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def calkin_wilf_at(n: int) -> Fraction:
    """n-th Calkin-Wilf rational (1-based): s(n)/s(n+1)."""
    return Fraction(stern(n), stern(n + 1))


def text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cf_text(terms: list[int]) -> str:
    if len(terms) == 1:
        return f"[{terms[0]}]"
    return f"[{terms[0]}; " + ", ".join(map(str, terms[1:])) + "]"


def first_witness(digits, preperiod: int, period: int) -> int | None:
    """First 1-based j past the preperiod with digit j != digit j+period."""
    for j in range(preperiod + 1, len(digits) - period + 1):
        if digits[j - 1] != digits[j + period - 1]:
            return j
    return None
