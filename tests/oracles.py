"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written the slow, obvious way (string digit
scans, trial division, defining sums) so it shares no code path with the
library being tested.
"""

import math


def digits_avoid(n: int, b: int, a0: int) -> bool:
    """Membership by literal base-b digit scan of the canonical expansion."""
    if n == 0:
        return a0 != 0
    while n:
        if n % b == a0:
            return False
        n //= b
    return True


def brute_members(b: int, a0: int, k: int, r=None) -> list[int]:
    out = []
    for n in range(b**k):
        if digits_avoid(n, b, a0) and (r is None or n % b == r):
            out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def mangoldt(n: int) -> float:
    if n < 2:
        return 0.0
    for p in range(2, n + 1):
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    return 0.0


def mobius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return mu


def brute_hat(b: int, a0: int, k: int, theta: float, r=None) -> complex:
    """The defining O(b^k) Fourier sum."""
    total = 0.0 + 0.0j
    for n in range(b**k):
        if digits_avoid(n, b, a0) and (r is None or n % b == r):
            ang = 2.0 * math.pi * ((n * theta) % 1.0)
            total += complex(math.cos(ang), math.sin(ang))
    return total


def brute_primitive_two_squares(n: int) -> bool:
    for n1 in range(math.isqrt(n) + 1):
        rest = n - n1 * n1
        n2 = math.isqrt(rest)
        if n2 * n2 == rest and math.gcd(n1, n2) == 1:
            return True
    return False


def brute_tau(n: int, h: int) -> int:
    """Ordered h-tuples with product n, by recursion over divisors."""
    if h == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += brute_tau(n // d, h - 1)
    return total


def brute_psi(y: int, d: int, c: int, q: int = 1, m: int = 0) -> float:
    total = 0.0
    for n in range(1, y + 1):
        if n % d == c % d and n % q == m % q:
            total += mangoldt(n)
    return total


def least_prime_factor(n: int) -> int:
    """Smallest prime factor of n >= 2 by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n
