"""Missing-digit number systems and their exact combinatorics.

A digit system is a base b >= 3 with one excluded digit a0.  The set of
nonnegative integers whose canonical base-b expansion avoids a0 has exactly
(b-1)^k members in [0, b^k) when a0 != 0; fixing the last digit to a residue
r != a0 cuts this to (b-1)^(k-1).  The density exponent zeta = log(b-1)/log b
and the prime-density constant kappa = b*(phi(b) - [gcd(a0,b)=1])/((b-1)*phi(b))
are carried on the system.

Membership convention: "no digit of the canonical expansion equals a0", so
leading zeros are immaterial and the expansion of 0 is the single digit 0.
Hence 0 is a member iff a0 != 0, which makes the [0, b^k) product counts exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from ._budget import check_budget
from .errors import PreconditionError


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing, by trial division;
    fine for desk-scale bases and moduli."""
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return primes


def _phi_small(n: int) -> int:
    """Euler phi from the prime divisors of n."""
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


@dataclass(frozen=True)
class DigitSystem:
    """Base b, excluded digit a0, optional last-digit residue r."""

    base: int
    excluded: int
    residue: Optional[int] = None

    def __post_init__(self):
        if self.base < 3:
            raise PreconditionError(f"base must be >= 3, got {self.base}")
        if not 0 <= self.excluded < self.base:
            raise PreconditionError(f"excluded digit {self.excluded} not in [0, {self.base})")
        if self.residue is not None:
            if not 0 <= self.residue < self.base:
                raise PreconditionError(f"residue {self.residue} not in [0, {self.base})")
            if self.residue == self.excluded:
                raise PreconditionError("residue equals the excluded digit; the set is empty")

    @cached_property
    def zeta(self) -> float:
        return math.log(self.base - 1) / math.log(self.base)

    @cached_property
    def kappa(self) -> Fraction:
        b, a0 = self.base, self.excluded
        phi_b = _phi_small(b)
        indicator = 1 if math.gcd(a0, b) == 1 else 0
        return Fraction(b * (phi_b - indicator), (b - 1) * phi_b)

    @cached_property
    def allowed(self) -> tuple[int, ...]:
        """Allowed digits in increasing order."""
        return tuple(d for d in range(self.base) if d != self.excluded)

    def drop_residue(self) -> "DigitSystem":
        return DigitSystem(self.base, self.excluded)


def contains(ds: DigitSystem, n: int) -> bool:
    """Membership test: every digit of n avoids ds.excluded (and n ends in r)."""
    if n < 0:
        raise PreconditionError("membership is defined for nonnegative integers")
    b, a0 = ds.base, ds.excluded
    if ds.residue is not None and n % b != ds.residue:
        return False
    if n == 0:
        return a0 != 0
    while n:
        n, digit = divmod(n, b)
        if digit == a0:
            return False
    return True


def contains_array(ds: DigitSystem, values: np.ndarray) -> np.ndarray:
    """Vectorized membership for a nonnegative integer array."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise PreconditionError("membership is defined for nonnegative integers")
    b, a0 = ds.base, ds.excluded
    ok = np.ones(arr.shape, dtype=bool)
    if ds.residue is not None:
        ok &= arr % b == ds.residue
    if a0 == 0:
        ok &= arr != 0
    rest = arr.copy()
    while True:
        rest, digit = np.divmod(rest, b)
        if a0:
            ok &= digit != a0
        else:  # a 0 with nothing left above it is past the leading digit
            ok &= (digit != 0) | (rest == 0)
        if not rest.any():
            break
    return ok


def _lengths_blocks(ds: DigitSystem, k: int) -> list[tuple[int, int]]:
    """(length j, block size) pairs for the a0 = 0 layout, ascending j."""
    b = ds.base
    blocks = []
    for j in range(1, k + 1):
        if ds.residue is None:
            size = (b - 1) ** j
        elif j == 1:
            size = 1  # just n = r (r != 0 since r != a0 = 0)
        else:
            size = (b - 1) ** (j - 1)
        blocks.append((j, size))
    return blocks


def count(ds: DigitSystem, k: int) -> int:
    """Exact number of members in [0, b^k).

    With a0 != 0 this is the digit-product count (b-1)^k, or (b-1)^(k-1) when
    the last digit is pinned to r.  With a0 = 0 the product formula fails
    (short expansions re-enter the set) and the count is taken from the
    per-length enumeration layout instead.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    b = ds.base
    if ds.excluded != 0:
        return (b - 1) ** (k - 1) if ds.residue is not None else (b - 1) ** k
    return sum(size for _, size in _lengths_blocks(ds, k))


def count_positive(ds: DigitSystem, k: int) -> int:
    """Members in [1, b^k); differs from count() only by membership of 0."""
    return count(ds, k) - (1 if contains(ds, 0) else 0)


def _place_sums(b: int, digits, tail: int, first: int, last: int) -> np.ndarray:
    """tail + sum of d_i b^i over first <= i < last with every d_i in the
    increasing digits, in increasing order: one outer sum per place, from the
    low digit up, with the new (higher) digit as the outer index."""
    out = np.array([tail], dtype=np.int64)
    column = np.array(digits, dtype=np.int64)[:, None]
    for i in range(first, last):
        out = (column * b**i + out).ravel()
    return out


def members(ds: DigitSystem, k: int) -> list[int]:
    """All members of the set in [0, b^k), strictly increasing.

    Same layout as unrank: one block of k free places (k - 1 above a pinned
    last digit r) when a0 != 0; with a0 = 0 one block per length j = 1..k
    whose digits are all nonzero.
    """
    total = count(ds, k)
    check_budget(total, f"enumerating {total} members")
    b = ds.base
    if ds.excluded != 0:
        lengths, digits = [k], ds.allowed
    else:
        lengths, digits = range(1, k + 1), range(1, b)
    tail, first = (0, 0) if ds.residue is None else (ds.residue, 1)
    return np.concatenate(
        [_place_sums(b, digits, tail, first, j) for j in lengths]
    ).tolist()


def unrank(ds: DigitSystem, k: int, i: int) -> int:
    """The i-th member (0-based) of the increasing enumeration of [0, b^k)."""
    total = count(ds, k)
    if not 0 <= i < total:
        raise PreconditionError(f"rank {i} out of range [0, {total})")
    b = ds.base
    if ds.excluded != 0:
        allowed = ds.allowed
        if ds.residue is None:
            positions, tail, w = k, 0, 1
        else:
            positions, tail, w = k - 1, ds.residue, b
        n = tail
        for _ in range(positions):
            i, idx = divmod(i, b - 1)
            n += allowed[idx] * w
            w *= b
        return n
    # a0 = 0: locate the length block, then mixed radix over nonzero digits
    for j, size in _lengths_blocks(ds, k):
        if i >= size:
            i -= size
            continue
        if ds.residue is None:
            positions, tail, w0 = j, 0, 1
        elif j == 1:
            return ds.residue
        else:
            positions, tail, w0 = j - 1, ds.residue, b
        n, w = tail, w0
        for _ in range(positions):
            i, idx = divmod(i, b - 1)
            n += (idx + 1) * w
            w *= b
        return n
    raise AssertionError("unreachable")


def rank(ds: DigitSystem, k: int, n: int) -> int:
    """Inverse of unrank; errors when n is not a member below b^k."""
    b = ds.base
    if not 0 <= n < b**k or not contains(ds, n):
        raise PreconditionError(f"{n} is not a member below {b}^{k}")
    if ds.excluded != 0:
        allowed_index = {d: i for i, d in enumerate(ds.allowed)}
        if ds.residue is not None:
            n //= b
            positions = k - 1
        else:
            positions = k
        r = 0
        for pos in range(positions):
            n, digit = divmod(n, b)
            r += allowed_index[digit] * (b - 1) ** pos
        return r
    # a0 = 0
    j = 0 if n == 0 else len(_digits(n, b))
    r = 0
    for length, size in _lengths_blocks(ds, k):
        if length < j:
            r += size
    if ds.residue is not None:
        if j == 1:
            return r
        n //= b
        positions = j - 1
    else:
        positions = j
    for pos in range(positions):
        n, digit = divmod(n, b)
        r += (digit - 1) * (b - 1) ** pos
    return r


def _digits(n: int, b: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, b)
        out.append(d)
    return out or [0]


def density_constants(ds: DigitSystem) -> tuple[float, Fraction]:
    """(zeta, kappa) for the system; kappa is exact."""
    return ds.zeta, ds.kappa
