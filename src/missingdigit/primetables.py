"""Sieve infrastructure: one shared prime sieve, one trial-division
factorization, and derived arithmetic.

The process holds one record of the primes up to the largest limit asked
for so far, with their prime powers and logs, all read-only.  The
constructor claims its limit from the budget and keeps that record, read
only up to its own limit; a limit past the record's rebuilds it there (an
Eratosthenes sieve over the odd numbers, with the few higher powers p^m,
m >= 2, sorted alone and merged into the sorted primes), and tables made
earlier keep the record they hold.  The primes and prime powers serve the
range functions (Lambda and mu over 0..size-1, Bcal over a range) and the
callers' progression sums without any factorization; the prime powers are
read through prime_powers_upto(y, d, c) alone.

Factoring one value (mu, phi and the h-fold divisor function tau_h of n, its
quadratic class) goes through factor(n), trial division by 2 and then the odd
numbers up to the square root of what is left: the values factored are
moduli, bases and sieve chains of desk size, and each call claims sqrt(n)
steps from the budget; it reads no table, so neither do the PrimeTables
methods that factor.  The
reduced residues come from units(d) for one modulus and from
reduced_fractions(qs) for the fractions a/q over many (Major1 arcs, hybrid
sums), which factors nothing and reads its primes from the held record.
The two quadratic classes are

    B    = {n : n = n1^2 + n2^2 with gcd(n1, n2) = 1}
         = {2^e * m : e in {0, 1}, p | m => p = 1 mod 4},
    Bcal = {n >= 1 : p | n => p = 1 mod 4}.

Over a range they need no factoring: one sift by the primes = 3 (mod 4) up
to the square root of its end gives Bcal (in_bcal_array), and B over [1, N]
is counted from it, with no copy, as Bcal there plus Bcal over [1, N/2].  The
limit bounds reads alone: one of the primes or prime powers up to y refuses y
past it.

The arrays are read-only.  Growth replaces the shared record whole, so the
tables are safe to share and a caller holding an older array still reads
correct values.

Every remainder of an int64 array by a scalar in the package, the residue
classes of in_class among them, goes through mod: numpy's floor division by
a scalar, which multiplies and shifts, then a multiply and a subtraction.
(sieveweights.sifting_prime, which also takes an int, reads p mod 4 off the
low bits.)
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .errors import PreconditionError

INT64_MAX = np.iinfo(np.int64).max


def mod(ns: np.ndarray, d: int,
        with_quotient: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """ns mod d in [0, d) over the int64 array ns, for an int 1 <= d <= INT64_MAX,
    as ns - (ns // d) d; with with_quotient, the pair (ns // d, ns mod d).

    numpy floor-divides an integer array by a scalar with a multiply and a
    shift (libdivide), but takes % and np.divmod with one hardware division
    per entry, at several times the cost.  The remainder is built in place in
    the quotient's array (one array; two with the quotient), and is exact:
    for an n near INT64_MIN the product (n // d) d may wrap past int64, but
    the subtraction wraps back, as int64 arithmetic is modulo 2^64.
    """
    out = ns // d
    rem = np.multiply(out, d) if with_quotient else np.multiply(out, d, out=out)
    np.subtract(ns, rem, out=rem)
    return (out, rem) if with_quotient else rem


def in_class(ns: np.ndarray, d: int, c: int) -> np.ndarray:
    """Bool mask of n = c (mod d) over the int64 array ns, d >= 1, from the
    residues of mod.  A modulus past int64 exceeds every n >= 0, so among
    those its class holds c mod d alone (every caller's ns are >= 0)."""
    return mod(ns, d) == c % d if d <= INT64_MAX else ns == c % d


class QuadClass(NamedTuple):
    in_B: bool
    in_Bcal: bool


def _odd_sieve_primes(limit: int) -> np.ndarray:
    """The primes up to limit >= 2, from an Eratosthenes sieve over the odd
    numbers (entry i stands for 2i + 1), as a read-only int64 array."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.concatenate(([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64, copy=False)
    primes.flags.writeable = False
    return primes


class _Sieve(NamedTuple):
    """The primes up to limit and the prime powers n = p^m <= limit in
    increasing order with their log p, all read-only."""

    limit: int
    primes: np.ndarray
    pp_n: np.ndarray
    pp_log: np.ndarray


def _build_sieve(limit: int) -> _Sieve:
    primes = _odd_sieve_primes(limit)
    powers, logs = [], []
    for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
        q = p * p
        while q <= limit:
            powers.append(q)
            logs.append(math.log(p))
            q *= p
    # The higher powers are few (1404 below 10^8): sort them alone and merge
    # them into the sorted primes.
    powers = np.array(powers, dtype=np.int64)
    order = np.argsort(powers)
    powers, logs = powers[order], np.array(logs, dtype=np.float64)[order]
    at = np.searchsorted(primes, powers)
    pp_n = np.insert(primes, at, powers)
    pp_log = np.insert(np.log(primes.astype(np.float64)), at, logs)
    pp_n.flags.writeable = pp_log.flags.writeable = False
    return _Sieve(limit, primes, pp_n, pp_log)


_held = _build_sieve(2)


def _shared_sieve(limit: int) -> _Sieve:
    """The held record, or a new one at limit that replaces it when it stops
    short.  The caller gets the record it checked or built, so two threads
    growing it at once can only cost a later rebuild."""
    global _held
    sieve = _held
    if sieve.limit < limit:
        sieve = _held = _build_sieve(limit)
    return sieve


def _sift_1mod4(ok: np.ndarray, primes: np.ndarray) -> None:
    """Clear ok at the multiples = 1 (mod 4) of each prime p = 3 (mod 4) given:
    3p, 7p, 11p, ..."""
    for p in primes.tolist():
        ok[3 * p :: 4 * p] = False


def _at_least_one(n: int) -> int:
    n = int(n)
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    return n


def factor(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 in increasing prime order, by trial
    division: 2, then the odd numbers up to the square root of what is left.
    Claims sqrt(n) steps from the budget."""
    n = _at_least_one(n)
    check_budget(math.isqrt(n), f"trial division of {n}")
    out = []
    p, step = 2, 1
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p, step = p + step, 2
    if n > 1:
        out.append((n, 1))
    return out


def totient(n: int) -> int:
    """Euler phi of n >= 1 from its factorization."""
    phi = int(n)
    for p, _ in factor(n):
        phi -= phi // p
    return phi


def tau(n: int, h: int = 2) -> int:
    """Ordered factorizations of n >= 1 into h >= 1 parts: prod C(e + h - 1, h - 1)."""
    if h < 1:
        raise PreconditionError("h must be >= 1")
    return math.prod(math.comb(e + h - 1, h - 1) for _, e in factor(n))


def units(d: int) -> np.ndarray:
    """Bool array over the residues 0 <= c < d of d >= 1, True where
    gcd(c, d) = 1: the multiples of each prime of d cleared."""
    out = np.ones(d, dtype=bool)
    for p, _ in factor(d):
        out[::p] = False
    return out


def reduced_fractions(qs: np.ndarray,
                      half: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The reduced fractions a/q, 1 <= a < q, over the increasing int64 array
    qs >= 1, as (q, a) int64 arrays in blocks; with half, only those with
    2a <= q (the others are the (q - a)/q).

    The rows q of qs are taken max(1, SCAN_BLOCK // (qs[-1] - 1)) at a time,
    each row over the numerators below the block's last q (up to half of it
    with half); a block yields its reduced cells in row order (q, then a),
    possibly none.  No gcd is taken: along each row the multiples of each
    prime of its q, read from the held record, are cleared.
    """
    if not qs.size or qs[-1] <= 1:
        return
    q_block = max(1, SCAN_BLOCK // int(qs[-1] - 1))
    primes = _shared_sieve(int(qs[-1])).primes
    for lo in range(0, qs.size, q_block):
        block = qs[lo : lo + q_block]
        top = int(block[-1])
        if half:
            numerators = np.arange(1, top // 2 + 1, dtype=np.int64)
            reduced = 2 * numerators <= block[:, None]
        else:
            numerators = np.arange(1, top, dtype=np.int64)
            reduced = numerators < block[:, None]
        below = primes[: np.searchsorted(primes, top, side="right")]
        rows, at = np.nonzero(block[:, None] % below == 0)
        for row, p in zip(rows.tolist(), below[at].tolist()):
            reduced[row, p - 1 :: p] = False  # a = p, 2p, ...
        yield (np.repeat(block, np.count_nonzero(reduced, axis=1)),
               np.broadcast_to(numerators, reduced.shape)[reduced])


def _classify(n: int) -> QuadClass:
    """(n in B, n in Bcal) for n >= 1 from the primes of its odd part."""
    twos = n & -n  # the power of 2 dividing n exactly
    good_odd = all(p % 4 == 1 for p, _ in factor(n // twos))
    return QuadClass(good_odd and twos <= 2, good_odd and twos == 1)


def quadratic_class_of(n: int) -> QuadClass:
    """quadratic_class of one n >= 1 without a table, by trial division of
    its odd part."""
    return _classify(_at_least_one(n))


class PrimeTables:
    """The primes up to limit and their powers (read from the shared sieve),
    and the arithmetic of one n >= 1."""

    def __init__(self, limit: int):
        if limit < 2:
            raise PreconditionError("limit must be >= 2")
        self.limit = int(limit)
        check_budget(self.limit, f"prime tables up to {self.limit}")
        try:
            self._sieve = _shared_sieve(self.limit)
        except MemoryError as exc:
            raise MemoryError(f"prime sieve for limit {limit} does not fit in memory") from exc

    # -- factorization ------------------------------------------------------

    def _check_upto(self, y: int) -> int:
        if int(y) > self.limit:
            raise PreconditionError(f"y={int(y)} exceeds table limit {self.limit}")
        return int(y)

    def factor(self, n: int) -> list[tuple[int, int]]:
        """(prime, exponent) pairs of n in increasing prime order."""
        return factor(n)

    @property
    def primes(self) -> np.ndarray:
        return self.primes_upto(self.limit)

    def primes_upto(self, y: int) -> np.ndarray:
        """The primes p <= y; y past the limit is refused."""
        primes = self._sieve.primes
        return primes[: np.searchsorted(primes, self._check_upto(y), side="right")]

    @property
    def prime_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """(n-array, log p-array) over all prime powers n = p^m <= limit."""
        return self.prime_powers_upto(self.limit)

    def prime_powers_upto(self, y: int, d: int = 1, c: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(n-array, log p-array) over the prime powers n <= y with n = c (mod d),
        in increasing order: slices of the record when d = 1.  The package
        reads the record only through here; y past the limit is refused."""
        y = self._check_upto(y)
        if d < 1:
            raise PreconditionError("d must be >= 1")
        cut = np.searchsorted(self._sieve.pp_n, y, side="right")
        ns, logs = self._sieve.pp_n[:cut], self._sieve.pp_log[:cut]
        if d == 1:
            return ns, logs
        keep = np.flatnonzero(in_class(ns, d, c))
        return ns[keep], logs[keep]

    # -- arithmetic functions ------------------------------------------------

    def mobius(self, n: int) -> int:
        return math.prod(0 if e > 1 else -1 for _, e in factor(n))

    def tau(self, n: int, h: int = 2) -> int:
        return tau(n, h)

    def mobius_range(self, size: int) -> np.ndarray:
        """mu(n) for 0 <= n < size as int8 (mu(0) set to 0)."""
        mu = np.ones(size, dtype=np.int8)
        mu[0] = 0
        last = size - 1
        root = math.isqrt(last)
        primes = self.primes_upto(last)
        split = np.searchsorted(primes, root, side="right")
        for p in primes[:split].tolist():
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        # A prime p > sqrt(last) divides each n < size at most once, as n = p j
        # with j < sqrt(last): one sign flip per cofactor j covers all of them.
        big = primes[split:]
        for j in range(1, last // (root + 1) + 1):
            idx = big[: np.searchsorted(big, last // j, side="right")] * j
            mu[idx] = -mu[idx]
        return mu

    def mangoldt_range(self, size: int) -> np.ndarray:
        """Lambda(n) for 0 <= n < size as float64."""
        ns, logs = self.prime_powers_upto(size - 1)
        lam = np.zeros(size, dtype=np.float64)
        lam[ns] = logs
        return lam

    # -- quadratic classes ----------------------------------------------------

    def quadratic_class(self, n: int) -> QuadClass:
        """(n in B, n in Bcal) via the primitive two-squares criterion."""
        return quadratic_class_of(n)

    def in_bcal_array(self, size: int) -> np.ndarray:
        """Boolean array: n in Bcal for 0 <= n < size.

        One sift by the primes p = 3 (mod 4) up to sqrt(size - 1), so the table
        needs to reach only that far; claims size - 1 steps.  An n < size
        that none of them divides has at most one prime factor = 3 (mod 4),
        as two would exceed size - 1; if n is odd, it is = 3 (mod 4) with that
        factor and = 1 (mod 4) without.  So n lies in Bcal exactly when it
        survives the sift and n = 1 (mod 4).
        """
        small = self.primes_upto(math.isqrt(max(size - 1, 0)))
        check_budget(size - 1, f"Bcal sift of [0, {size})")
        ok = np.zeros(size, dtype=bool)
        ok[1::4] = True
        _sift_1mod4(ok, small[in_class(small, 4, 3)])
        return ok
