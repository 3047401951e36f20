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

Over [0, b^k) the members form a product set, so their indicator is built
level by level into one array (member_mask, read-only and not cached): each
level is b - 1 row copies of the one below, one per leading digit, with the
excluded digit's row cleared.  Callers build it once per report and gather
membership from it with one index, and members, the ordered enumeration,
lists its set entries.  contains_array keeps a digit-by-digit route for int64
values of any size, one base-b digit off every value per pass
(primetables.mod), and the internal rechecks read membership through it,
independently of the mask.
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
from .primetables import in_class, mod, totient


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
        phi_b = totient(b)
        indicator = 1 if math.gcd(a0, b) == 1 else 0
        return Fraction(b * (phi_b - indicator), (b - 1) * phi_b)

    @cached_property
    def allowed(self) -> tuple[int, ...]:
        """Allowed digits in increasing order."""
        return tuple(d for d in range(self.base) if d != self.excluded)


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
    """Vectorized membership for a nonnegative integer array, read as int64.
    The last-digit test and the digit loop, which peels one base-b digit off
    every value per pass, divide by b through primetables.mod."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise PreconditionError("membership is defined for nonnegative integers")
    b, a0 = ds.base, ds.excluded
    ok = np.ones(arr.shape, dtype=bool)
    if ds.residue is not None:
        ok &= in_class(arr, b, ds.residue)
    if a0 == 0:
        ok &= arr != 0
    rest = arr
    while True:
        rest, digit = mod(rest, b, with_quotient=True)
        if a0:
            ok &= digit != a0
        else:  # a 0 with nothing left above it is past the leading digit
            ok &= (digit != 0) | (rest == 0)
        if not rest.any():
            break
    return ok


def member_mask(ds: DigitSystem, k: int) -> np.ndarray:
    """Read-only bool array of length b^k with mask[n] = contains(ds, n).

    Built from the last digit (pinned to r when there is a residue) upwards,
    every level written into one array of b^k: the numbers of j + 1 digits,
    [b^j, b^(j+1)), are b - 1 row copies of the numbers below b^j, one per
    leading digit 1..b-1.  For a0 != 0 the excluded digit's row is cleared.
    With a0 = 0 a leading 0 is no digit, so the copied j digits, leading zeros
    counted, must avoid 0: the numbers below b^(j-1) are cleared in every row.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    b, a0 = ds.base, ds.excluded
    check_budget(b**k, f"membership mask of {b}^{k} values")
    digits = np.arange(b)
    mask = np.empty(b**k, dtype=bool)
    mask[:b] = digits != a0 if ds.residue is None else digits == ds.residue
    for j in range(1, k):
        hi = b**j
        level = mask[hi : b * hi].reshape(b - 1, hi)
        level[:] = mask[:hi]
        if a0:
            level[a0 - 1] = False
        else:
            level[:, : hi // b] = False
    mask.flags.writeable = False
    return mask


def _blocks(ds: DigitSystem, k: int) -> list[tuple[int, int]]:
    """(places j, size) of the enumeration blocks of [0, b^k), ascending.

    One block of k places over ds.allowed when a0 != 0; with a0 = 0 a leading
    0 is no digit, so one block per length j = 1..k over the nonzero digits
    (ds.allowed again).  A residue pins the lowest place to r, so a block of
    j places holds (b-1)^(j - pinned) members.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    pinned = ds.residue is not None
    lengths = range(1, k + 1) if ds.excluded == 0 else [k]
    return [(j, (ds.base - 1) ** (j - pinned)) for j in lengths]


def count(ds: DigitSystem, k: int) -> int:
    """Exact number of members in [0, b^k).

    With a0 != 0 this is the digit-product count (b-1)^k, or (b-1)^(k-1) when
    the last digit is pinned to r.  With a0 = 0 the product formula fails
    (short expansions re-enter the set) and the count sums one product per
    length instead.
    """
    return sum(size for _, size in _blocks(ds, k))


def count_positive(ds: DigitSystem, k: int) -> int:
    """Members in [1, b^k); differs from count() only by membership of 0."""
    return count(ds, k) - (1 if contains(ds, 0) else 0)


def members(ds: DigitSystem, k: int) -> list[int]:
    """All members of the set in [0, b^k), strictly increasing: the set
    entries of member_mask, whose claim of b^k steps covers them."""
    return np.flatnonzero(member_mask(ds, k)).tolist()


def unrank(ds: DigitSystem, k: int, i: int) -> int:
    """The i-th member (0-based) of the increasing enumeration of [0, b^k):
    locate its block, then read i in mixed radix b - 1 over the free places,
    the lowest first."""
    blocks = _blocks(ds, k)
    total = sum(size for _, size in blocks)
    if not 0 <= i < total:
        raise PreconditionError(f"rank {i} out of range [0, {total})")
    b, allowed, pinned = ds.base, ds.allowed, ds.residue is not None
    for j, size in blocks:
        if i < size:
            break
        i -= size
    n, w = (ds.residue, b) if pinned else (0, 1)
    for _ in range(j - pinned):
        i, idx = divmod(i, b - 1)
        n += allowed[idx] * w
        w *= b
    return n


def rank(ds: DigitSystem, k: int, n: int) -> int:
    """Inverse of unrank; errors when n is not a member below b^k."""
    b, a0, pinned = ds.base, ds.excluded, ds.residue is not None
    if not 0 <= n < b**k or not contains(ds, n):
        raise PreconditionError(f"{n} is not a member below {b}^{k}")
    r = 0
    for j, size in _blocks(ds, k):  # n lies in the first block with n < b^j
        if n < b**j:
            break
        r += size
    if pinned:
        n //= b
    w = 1
    for _ in range(j - pinned):
        n, digit = divmod(n, b)
        r += (digit - (digit > a0)) * w  # the index of digit in ds.allowed
        w *= b - 1
    return r
