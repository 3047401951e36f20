"""Sieve infrastructure: smallest-prime-factor table and derived arithmetic.

One uint32 word per integer buys full factorization up to the table limit,
which in turn serves the von Mangoldt function, Moebius mu, Euler phi, the
h-fold divisor function tau_h, Chebyshev-type sums over double progressions,
and the two quadratic classes

    B    = {n : n = n1^2 + n2^2 with gcd(n1, n2) = 1}
         = {2^e * m : e in {0, 1}, p | m => p = 1 mod 4},
    Bcal = {n >= 1 : p | n => p = 1 mod 4}.

The table is read-only after construction and safe to share.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .errors import PreconditionError


class QuadClass(NamedTuple):
    in_B: bool
    in_Bcal: bool


class PrimeTables:
    """Smallest-prime-factor table for 2..limit plus cached prime-power arrays."""

    def __init__(self, limit: int):
        if limit < 2:
            raise PreconditionError("limit must be >= 2")
        self.limit = int(limit)
        check_budget(self.limit, f"prime tables up to {self.limit}")
        try:
            spf = np.arange(self.limit + 1, dtype=np.uint32)
        except MemoryError as exc:
            raise MemoryError(f"spf table for limit {limit} does not fit in memory") from exc
        # Every composite n has a prime factor p with p*p <= n; writing the
        # primes up to sqrt(limit) in descending order leaves the least one.
        root = math.isqrt(self.limit)
        sieve = np.ones(root + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(root) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        for p in np.nonzero(sieve)[0][::-1].tolist():
            spf[p * p :: p] = p
        spf[0] = spf[1] = 1
        self.spf = spf
        self._primes = None
        self._pp = None

    # -- factorization ------------------------------------------------------

    def _check(self, n: int) -> int:
        n = int(n)
        if not 1 <= n <= self.limit:
            raise PreconditionError(f"{n} outside table range [1, {self.limit}]")
        return n

    def _check_array(self, ns) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and (ns.min() < 1 or ns.max() > self.limit):
            raise PreconditionError(f"values outside table range [1, {self.limit}]")
        return ns

    def factor(self, n: int) -> list[tuple[int, int]]:
        """(prime, exponent) pairs of n in increasing prime order."""
        n = self._check(n)
        out = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def is_prime(self, n: int) -> bool:
        n = self._check(n)
        return n >= 2 and int(self.spf[n]) == n

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            # 2 is the one even prime; an odd n >= 3 is prime iff spf[n] = n.
            odd = np.arange(3, self.limit + 1, 2, dtype=np.uint32)
            odd_primes = 2 * np.flatnonzero(self.spf[3::2] == odd) + 3
            self._primes = np.concatenate(([2], odd_primes)).astype(np.int64)
        return self._primes

    def primes_upto(self, y: int) -> np.ndarray:
        y = min(int(y), self.limit)
        pr = self.primes
        return pr[: np.searchsorted(pr, y, side="right")]

    @property
    def prime_powers(self) -> tuple[np.ndarray, np.ndarray]:
        """(n-array, log p-array) over all prime powers n = p^m <= limit."""
        if self._pp is None:
            pr = self.primes
            ns = [pr]
            logs = [np.log(pr.astype(np.float64))]
            small = pr[pr <= math.isqrt(self.limit)]
            for p in small:
                p = int(p)
                q = p * p
                while q <= self.limit:
                    ns.append(np.array([q], dtype=np.int64))
                    logs.append(np.array([math.log(p)]))
                    q *= p
            n_all = np.concatenate(ns)
            log_all = np.concatenate(logs)
            order = np.argsort(n_all, kind="stable")
            self._pp = (n_all[order], log_all[order])
        return self._pp

    # -- arithmetic functions ------------------------------------------------

    def mangoldt(self, n: int) -> float:
        """log p when n = p^m, else 0."""
        n = self._check(n)
        if n == 1:
            return 0.0
        p = int(self.spf[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def mobius(self, n: int) -> int:
        n = self._check(n)
        mu = 1
        while n > 1:
            p = int(self.spf[n])
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        return mu

    def totient(self, n: int) -> int:
        n = self._check(n)
        phi = 1
        for p, e in self.factor(n):
            phi *= (p - 1) * p ** (e - 1)
        return phi

    def tau(self, n: int, h: int = 2) -> int:
        """Ordered factorizations of n into h parts: prod C(e + h - 1, h - 1)."""
        if h < 1:
            raise PreconditionError("h must be >= 1")
        n = self._check(n)
        t = 1
        for _, e in self.factor(n):
            t *= math.comb(e + h - 1, h - 1)
        return t

    def arith(self, n: int, h: int = 2) -> tuple[int, int, int]:
        """(mu(n), phi(n), tau_h(n)) from one factorization."""
        return self.mobius(n), self.totient(n), self.tau(n, h)

    def mobius_range(self, size: int) -> np.ndarray:
        """mu(n) for 0 <= n < size as int8 (mu(0) set to 0)."""
        if size - 1 > self.limit:
            raise PreconditionError("range exceeds table limit")
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
        if size - 1 > self.limit:
            raise PreconditionError("range exceeds table limit")
        lam = np.zeros(size, dtype=np.float64)
        pp_n, pp_log = self.prime_powers
        cut = np.searchsorted(pp_n, size, side="left")
        lam[pp_n[:cut]] = pp_log[:cut]
        return lam

    # -- progression psi sums -------------------------------------------------

    def psi_progression(
        self,
        y: int,
        d: int,
        c: int,
        q: int = 1,
        m: int = 0,
        three_mod_eight: bool = False,
    ) -> float:
        """Sum of Lambda(n) over n <= y with n = c (mod d) and n = m (mod q).

        The optional flag further restricts to n = 3 (mod 8).  Empty
        progressions are allowed and give 0.
        """
        y = int(y)
        if y > self.limit:
            raise PreconditionError(f"y={y} exceeds table limit {self.limit}")
        if d < 1 or q < 1:
            raise PreconditionError("moduli must be >= 1")
        if y < 2:
            return 0.0
        pp_n, pp_log = self.prime_powers
        cut = np.searchsorted(pp_n, y, side="right")
        ns = pp_n[:cut]
        mask = (ns % d == c % d) & (ns % q == m % q)
        if three_mod_eight:
            mask &= ns % 8 == 3
        return float(pp_log[:cut][mask].sum())

    # -- quadratic classes ----------------------------------------------------

    def quadratic_class(self, n: int) -> QuadClass:
        """(n in B, n in Bcal) via the primitive two-squares criterion."""
        n = self._check(n)
        if n == 1:
            return QuadClass(True, True)
        e2 = 0
        m = n
        while m % 2 == 0:
            m //= 2
            e2 += 1
        good_odd = True
        mm = m
        while mm > 1:
            p = int(self.spf[mm])
            if p % 4 != 1:
                good_odd = False
                break
            while mm % p == 0:
                mm //= p
        in_b = good_odd and e2 <= 1
        in_bcal = good_odd and e2 == 0
        return QuadClass(in_b, in_bcal)

    def least_factor_array(
        self,
        ns: np.ndarray,
        wanted: Callable[[np.ndarray], np.ndarray],
        upto: int | None = None,
    ) -> np.ndarray:
        """For each n of a 1-D array, its least prime factor p with wanted(p)
        true (and p <= upto; the walk stops at the first prime above upto),
        else 0.

        One smallest-prime-factor walk over the whole array: each step
        divides one prime out of every n still open, so the primes of n come
        in increasing order and the walk ends after at most log2(max n) steps.
        """
        ns = self._check_array(ns)
        least = np.zeros(ns.shape, dtype=np.int64)
        idx = np.nonzero(ns > 1)[0]
        rest = ns[idx]
        while idx.size:
            p = self.spf[rest].astype(np.int64)
            if upto is not None:
                inside = p <= upto
                idx, rest, p = idx[inside], rest[inside], p[inside]
            hit = wanted(p)
            least[idx[hit]] = p[hit]
            rest //= p
            keep = ~hit & (rest > 1)
            idx, rest = idx[keep], rest[keep]
        return least

    def quadratic_class_array(self, ns: np.ndarray) -> QuadClass:
        """quadratic_class over a 1-D array: (in_B, in_Bcal) as bool arrays.

        The walk runs on blocks of SCAN_BLOCK values (about 60 bytes of
        scratch each), so its scratch memory stays bounded however long ns is.
        """
        ns = self._check_array(ns)
        in_b = np.empty(ns.shape, dtype=bool)
        in_bcal = np.empty(ns.shape, dtype=bool)
        for lo in range(0, ns.size, SCAN_BLOCK):
            block = ns[lo : lo + SCAN_BLOCK]
            twos = block & -block  # the power of 2 dividing n exactly
            good_odd = self.least_factor_array(block // twos, lambda p: p % 4 != 1) == 0
            in_b[lo : lo + block.size] = good_odd & (twos <= 2)
            in_bcal[lo : lo + block.size] = good_odd & (twos == 1)
        return QuadClass(in_b, in_bcal)

    def in_bcal_array(self, size: int) -> np.ndarray:
        """Boolean array: n in Bcal for 0 <= n < size (sieve-accumulated)."""
        if size - 1 > self.limit:
            raise PreconditionError("range exceeds table limit")
        ok = np.ones(size, dtype=bool)
        ok[0] = False
        for p in self.primes_upto(size - 1):
            p = int(p)
            if p % 4 != 1:
                ok[p::p] = False
        return ok


def build(limit: int) -> PrimeTables:
    """Construct the table; kept as a free function mirroring the module API."""
    return PrimeTables(limit)
