"""Primality and factoring for `decimal_expansion.multiplicative_order`.

Trial division by the primes below 53 comes first. Larger cofactors are
tested with Miller-Rabin to the first 13 prime bases, which is exact
below 3.3 * 10^24, and past that bound with a strong Lucas test as well
(Baillie-PSW, no counterexample known). Composites are split with
Pollard's rho in Brent's variant, within a fixed budget of steps.

`multiplicative_order` imports this module on its first call, so
`import diagcf` does not compile it.
"""

from __future__ import annotations

import itertools
import math

from .errors import RangeError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_NEXT_PRIME_SQUARED = 53 * 53  # a cofactor free of _SMALL_PRIMES is prime below this
# Miller-Rabin to the first 13 prime bases is exact below 3.3 * 10^24
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_RHO_BATCH = 128  # rho steps per gcd
# rho steps per split, about a second of Python: rho finds a prime p in
# about sqrt(p) steps, so this splits off primes up to about 10^10
MAX_RHO_STEPS = 2**20


def is_prime(n: int) -> bool:
    # n odd and free of the small primes. Miller-Rabin to the first 13
    # prime bases is exact below _MR_EXACT_BELOW; past it n must also
    # pass a strong Lucas test, and the pair is Baillie-PSW
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or is_strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def is_strong_lucas_probable_prime(n: int) -> bool:
    # Lucas sequences U, V with P = 1 and Q = (1 - D)/4, D the first of
    # 5, -7, 9, -11, ... with (D/n) = -1 (Selfridge); n odd, past 3
    if math.isqrt(n) ** 2 == n:  # no such D exists for a square
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    U, V, Qk = 0, 2, 1  # U_k, V_k and Q^k at k = 0, then over the bits of d
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1; an odd value is made even by adding n
            U, V = U + V, D * U + V
            U, V, Qk = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n, by Pollard's rho in Brent's variant.

    y -> y^2 + c, with the differences multiplied up and one gcd per
    batch. A batch that overshoots to gcd n is replayed one step at a
    time; a cycle that still gives n moves on to the next c. Past
    MAX_RHO_STEPS steps in all this is a RangeError.
    """
    steps = 0
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r to move y on, at most r more in the batches
            if steps > MAX_RHO_STEPS:
                raise RangeError(
                    f"found no factor of a {n.bit_length()}-bit number in {MAX_RHO_STEPS} rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending.

    Trial division by the primes below 53 comes first; what is left has
    no prime below 53, so below 53^2 it is 1 or prime. A larger cofactor
    is tested by `is_prime` and, if composite, split by its square root
    or by `rho_divisor` until every part is prime.
    """
    primes = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            primes.append(p)
            n //= p
            while n % p == 0:
                n //= p
    if n < _NEXT_PRIME_SQUARED:
        return primes + [n] if n > 1 else primes
    large, parts = set(), [n]
    while parts:
        m = parts.pop()
        if is_prime(m):
            large.add(m)
        elif (r := math.isqrt(m)) * r == m:
            parts.append(r)
        else:
            d = rho_divisor(m)
            parts += (d, m // d)
    return primes + sorted(large)
