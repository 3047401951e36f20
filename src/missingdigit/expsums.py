"""Exponential-sum kernels: rational approximations, min-function sums,
bilinear and Type I aggregates, the five-term Vaughan split of the von
Mangoldt transform, and the Weyl-differenced double sum.

Every bound evaluator sets the implicit constant to 1; callers compare the
exact left side against the bound as a ratio and never assert <= 1.
Ranges written "n ~ N" mean (N, 2N]; "mn < X" is strict.

Zero-denominator convention: when ||m theta|| = 0 (theta rational with q | m)
the min(. , 1/||m theta||) picks its first argument, matching the degenerate
geometric series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .errors import InternalCheckError, PreconditionError
from .primetables import PrimeTables, units

TWO_PI = 2.0 * math.pi
_INT64_MAX = np.iinfo(np.int64).max
# The array sums convert their integer inputs to float64, which equals the
# exact int/int division of a loop while every integer stays below 2^53.
_EXACT_FLOAT_INT = 2**53


@dataclass(frozen=True)
class ThetaApprox:
    """theta = a/q + beta with gcd(a, q) = 1, |beta| <= 1/q^2; H = 1 + |beta| X."""

    theta: float
    a: int
    q: int
    beta: float
    X: int

    def __post_init__(self):
        if self.q < 1:
            raise PreconditionError("q must be >= 1")
        if math.gcd(self.a, self.q) != 1:
            raise PreconditionError(f"a/q = {self.a}/{self.q} not reduced")
        if abs(self.beta) > 1.0 / self.q**2:
            raise PreconditionError("|beta| exceeds 1/q^2")
        if abs(self.theta - (self.a / self.q + self.beta)) > 1e-12:
            raise PreconditionError("theta, a/q and beta are inconsistent")

    @property
    def H(self) -> float:
        return 1.0 + abs(self.beta) * self.X

    @property
    def qH(self) -> float:
        return self.q * self.H

    def residues(self, ms: np.ndarray) -> np.ndarray:
        """(m mod q)(a mod q) mod q, exactly, for an int64 array of m.

        The product of residues stays below 2^63 while (q - 1)^2 does, and
        Python ints (an object array) take over past that.
        """
        if (self.q - 1) ** 2 > _INT64_MAX:
            ms = ms.astype(object)
        return (ms % self.q) * (self.a % self.q) % self.q

    def unit_norms(self, ms: np.ndarray) -> np.ndarray:
        """||m theta|| = distance of m*theta to the nearest integer, for an
        int64 array of m.

        Exact modular arithmetic (`residues`) when beta = 0, i.e. theta truly
        rational; the floating path otherwise.
        """
        if self.beta == 0.0:
            s = self.residues(ms)
            return (np.minimum(s, self.q - s) / self.q).astype(np.float64)
        x = ms * self.theta
        return np.abs(x - np.rint(x))


def _phases(x: np.ndarray) -> np.ndarray:
    """e(x) = exp(2 pi i x) for a float64 array, each x first reduced mod 1.

    x - floor(x) equals numpy's float remainder of x by 1 to the last bit
    (both are exact, or both round r + 1 once for a negative x) at a fraction
    of its cost, and the cos and sin of the angle fill the parts that the
    complex exponential of 2 pi i times that remainder would give.
    """
    ang = x - np.floor(x)
    ang *= TWO_PI
    out = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    return out


def _min_terms(first: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """min(first, 1/norm), or first where norm = 0."""
    with np.errstate(divide="ignore", over="ignore"):  # inf, like the loop's 1.0 / norm
        inverse = 1.0 / norm
    return np.where(norm == 0.0, first, np.minimum(first, inverse))


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added left to right like a loop.

    cumsum adds sequentially (a plain sum would add pairwise), so the result
    is the loop's to the last bit.
    """
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _convergents(theta: float, max_q: int):
    """Continued-fraction convergents (p, q) of theta with q <= max_q."""
    out = []
    p_m2, q_m2 = 0, 1
    p_m1, q_m1 = 1, 0
    x = theta
    for _ in range(64):
        a = math.floor(x)
        p, q = a * p_m1 + p_m2, a * q_m1 + q_m2
        if q > max_q:
            break
        out.append((p, q))
        p_m2, q_m2 = p_m1, q_m1
        p_m1, q_m1 = p, q
        frac = x - a
        if frac < 1e-15:
            break
        x = 1.0 / frac
    return out


def dirichlet_approx(theta: float, Q: int, X: int) -> ThetaApprox:
    """Reduced a/q with q <= Q and |theta - a/q| <= 1/(qQ).

    Deterministic: walks the continued-fraction convergents in increasing q
    and returns the first that qualifies (one always does).
    """
    if Q < 1:
        raise PreconditionError("Q must be >= 1")
    if not math.isfinite(theta):
        raise PreconditionError(f"theta must be finite, got {theta}")
    convs = _convergents(theta, Q)
    chosen = None
    for p, q in convs:
        if abs(theta - p / q) <= 1.0 / (q * Q):
            chosen = (p, q)
            break
    if chosen is None:
        chosen = convs[-1]
    a, q = chosen
    beta = theta - a / q
    if abs(beta) > 1.0 / (q * Q) + 1e-15:
        raise InternalCheckError("Dirichlet approximation failed its own guarantee")
    return ThetaApprox(theta=theta, a=a, q=q, beta=beta, X=X)


def lambda_hat(tables: PrimeTables, X: int, d: int, c: int, theta: float) -> complex:
    """sum_{n < X, n = c (mod d)} Lambda(n) e(n theta), exact over prime powers."""
    if X > tables.limit + 1:
        raise PreconditionError(f"X={X} exceeds table limit {tables.limit}")
    if d < 1:
        raise PreconditionError("d must be >= 1")
    pp_n, pp_log = tables.prime_powers
    cut = np.searchsorted(pp_n, X, side="left")
    ns = pp_n[:cut]
    mask = ns % d == c % d
    ns = ns[mask]
    logs = pp_log[:cut][mask]
    return complex((logs * _phases(ns * theta)).sum())


class MinSum(NamedTuple):
    value: float
    bound: float


def min_sum(mode: str, M: int, cap: float, ta: ThetaApprox) -> MinSum:
    """sum_{m <= M} min(first(m), 1/||m theta||) with the matching bound shape.

    mode "linear":    first(m) = N       (cap = N), bound
                      (M + M N q|beta| + 1/(q|beta|)) log(2qM)
                      (+inf when beta = 0: the bound degenerates);
    mode "hyperbola": first(m) = X/m + 1 (cap = X), bound
                      X (M/X + qH/X + 1/(qH)) log(2qM)^2.
    """
    if M < 1:
        raise PreconditionError("M must be >= 1")
    if mode not in ("linear", "hyperbola"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if M >= _EXACT_FLOAT_INT or abs(cap) >= _EXACT_FLOAT_INT:
        raise PreconditionError("M and |cap| must be below 2^53")
    check_budget(M, f"min_sum over M={M}")
    total = 0.0
    for lo in range(1, M + 1, SCAN_BLOCK):
        ms = np.arange(lo, min(lo + SCAN_BLOCK, M + 1), dtype=np.int64)
        first = np.full(ms.size, float(cap)) if mode == "linear" else float(cap) / ms + 1.0
        total = _add_in_order(total, _min_terms(first, ta.unit_norms(ms)))
    log_factor = math.log(2 * ta.q * M)
    if mode == "linear":
        if ta.beta == 0.0:
            bound = math.inf
        else:
            qb = ta.q * abs(ta.beta)
            bound = (M + M * cap * qb + 1.0 / qb) * log_factor
    else:
        X = cap
        bound = X * (M / X + ta.qH / X + 1.0 / ta.qH) * log_factor**2
    return MinSum(total, bound)


class BilinearResult(NamedTuple):
    value: complex
    norm1: float
    norm2: float
    bound: float


def _pair_phases(mn: np.ndarray, ta: ThetaApprox) -> np.ndarray:
    """e(mn theta) for an int64 array of mn, with the rational part exact.

    The fraction is ((mn mod q)(a mod q) mod q)/q + (mn beta mod 1).
    """
    rational = np.asarray(ta.residues(mn) / ta.q, dtype=np.float64)
    drift = np.asarray(mn * ta.beta, dtype=np.float64)
    return _phases(rational + (drift - np.floor(drift)))


def _support(alpha: Mapping[int, complex], below: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and weights of the nonzero entries with key < below, in mapping order."""
    items = [(m, w) for m, w in alpha.items() if w != 0 and m < below]
    keys = np.array([m for m, _ in items], dtype=np.int64)
    return keys, np.array([w for _, w in items], dtype=np.complex128)


def bilinear_sum(
    alpha1: Mapping[int, complex],
    alpha2: Mapping[int, complex],
    X: int,
    ta: ThetaApprox,
    d: int = 1,
    c: int = 0,
) -> BilinearResult:
    """sum_{mn < X, mn = c (mod d)} alpha1(m) alpha2(n) e(mn theta).

    Returns the exact double sum, both l2 norms, and the bilinear bound
    sqrt(X) ||a1|| ||a2|| (M/X + N/X + qH/X + 1/(qH))^(1/2) log(2qX), where
    M, N are the largest supported indices (keys must be >= 1).

    The pairs are formed in blocks of at most SCAN_BLOCK: row m takes the
    sorted n <= (X - 1) // m, so every product m n is below X and fits int64.
    """
    if X < 1:
        raise PreconditionError("X must be >= 1")
    if X - 1 > _INT64_MAX:
        raise PreconditionError("X - 1 must fit in int64")
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if min(alpha1, default=1) < 1 or min(alpha2, default=1) < 1:
        raise PreconditionError("alpha1 and alpha2 keys must be >= 1")
    check_budget(len(alpha1) * len(alpha2), "bilinear double sum")
    ms, w1 = _support(alpha1, X)
    ns, w2 = _support(alpha2, X)
    order = np.argsort(ns, kind="stable")
    ns, w2 = ns[order], w2[order]
    # row i holds the pairs (ms[i], ns[:cuts[i]]), at flat indices from starts[i]
    cuts = np.searchsorted(ns, (X - 1) // ms, side="right")
    starts = np.concatenate(([0], np.cumsum(cuts)))
    pairs = int(starts[-1])
    total = 0.0 + 0.0j
    for lo in range(0, pairs, SCAN_BLOCK):
        pair = np.arange(lo, min(lo + SCAN_BLOCK, pairs), dtype=np.int64)
        row = np.searchsorted(starts, pair, side="right") - 1
        col = pair - starts[row]
        mn = ms[row] * ns[col]
        keep = mn % d == c % d
        row, col, mn = row[keep], col[keep], mn[keep]
        total += complex((w1[row] * w2[col] * _pair_phases(mn, ta)).sum())
    norm1 = math.sqrt(sum(abs(w) ** 2 for w in alpha1.values()))
    norm2 = math.sqrt(sum(abs(w) ** 2 for w in alpha2.values()))
    M = max(alpha1, default=1)
    N = max(alpha2, default=1)
    inner = M / X + N / X + ta.qH / X + 1.0 / ta.qH
    bound = math.sqrt(X) * norm1 * norm2 * math.sqrt(inner) * math.log(2 * ta.q * X)
    return BilinearResult(complex(total), norm1, norm2, bound)


# -- Vaughan five-term split --------------------------------------------------


class VaughanSums(NamedTuple):
    s1: complex
    s2: complex
    s3: complex
    s4: complex
    s5: complex

    @property
    def total(self) -> complex:
        return self.s1 + self.s2 - self.s3 - self.s4 + self.s5


def _add_by_cofactor(out: np.ndarray, ms: np.ndarray, values: np.ndarray, cofactors,
                     factor: np.ndarray | None = None) -> None:
    """out[m j] += values[i] (times factor[j] if given) for every m = ms[i] of
    the sorted ms with m j < len(out), taking the cofactors j in the order given.

    For a fixed n = m j, descending cofactors mean ascending m, so each entry
    receives its terms in the order of a loop over m; one fancy-indexed add
    per cofactor touches each entry at most once.
    """
    last = len(out) - 1
    for j in cofactors:
        cut = np.searchsorted(ms, last // j, side="right")
        out[ms[:cut] * j] += values[:cut] if factor is None else values[:cut] * factor[j]


@lru_cache(maxsize=4)
def _vaughan_arrays(X: int, U: int):
    """Pointwise component arrays of the split, cached per (X, U).

    a1 = Lambda_{<=U};      a2 = mu_{<=U} * log;
    a3 = (f 1_{<=U}) * 1;   a4 = (f 1_{>U}) * 1   with f = mu_{<=U} * Lambda_{<=U};
    a5 = mu_{>U} * Lambda_{>U} * 1.
    Identity: a1 + a2 - a3 - a4 + a5 = Lambda pointwise on [1, X).
    The arrays are read-only: callers share the cached copies.  mu and Lambda
    come from a prime table made here, so the cache holds no caller's table.
    """
    check_budget(X * (math.log(X) + 2) * 4, f"Vaughan arrays at X={X}")
    tables = PrimeTables(X)
    mu = tables.mobius_range(X).astype(np.float64)
    lam = tables.mangoldt_range(X)
    a1 = lam.copy()
    a1[U + 1 :] = 0.0

    a2 = np.zeros(X)
    logs = np.log(np.arange(1, X))  # logs[j - 1] = log j
    for m in range(1, min(U, X - 1) + 1):
        if mu[m] == 0:
            continue
        top = (X - 1) // m
        a2[m : m * top + 1 : m] += mu[m] * logs[:top]

    f = np.zeros(X)
    pp_n, pp_log = tables.prime_powers
    cut = np.searchsorted(pp_n, U, side="right")
    small_pp = pp_n[:cut]
    small_lg = pp_log[:cut]
    for m in range(1, U + 1):
        if mu[m] == 0:
            continue
        prods = m * small_pp
        keep = prods < X
        np.add.at(f, prods[keep], mu[m] * small_lg[keep])

    a3 = np.zeros(X)
    for m in range(1, min(U, X - 1) + 1):
        if f[m] != 0:
            a3[m::m] += f[m]
    a4 = np.zeros(X)
    for m in range(U + 1, min(U * U, X - 1) + 1):
        if f[m] != 0:
            a4[m::m] += f[m]

    # a5[m j] sums mu(m) g(j) over squarefree m > U, where g = Lambda_{>U} * 1
    # vanishes for j <= U; so j runs over (U, J] with J the largest cofactor.
    J = (X - 1) // (U + 1)
    g = np.zeros(J + 1)
    big = pp_n[cut : np.searchsorted(pp_n, J, side="right")]
    _add_by_cofactor(g, big, pp_log[cut:], range(J // (U + 1), 0, -1))
    a5 = np.zeros(X)
    sqfree = np.flatnonzero(mu[U + 1 :]) + (U + 1)
    _add_by_cofactor(a5, sqfree, mu[sqfree], (j for j in range(J, U, -1) if g[j] != 0.0), g)

    arrays = (a1, a2, a3, a4, a5)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def vaughan_decompose(
    tables: PrimeTables, X: int, U: int, d: int, c: int, theta: float
) -> VaughanSums:
    """Five component sums whose signed total equals lambda_hat(X, d, c, theta).

    The split is exact as an algebraic identity; only floating rounding
    separates total from the direct transform.
    """
    if U < 2:
        raise PreconditionError("U must be >= 2")
    if U >= X:
        raise PreconditionError("U must be below X")
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if X - 1 > tables.limit:
        raise PreconditionError("X exceeds table limit")
    arrays = [arr[c % d :: d] for arr in _vaughan_arrays(X, U)]
    ns = np.arange(c % d, X, d, dtype=np.int64)
    phases = _phases(ns * theta)
    sums = [complex((arr * phases).sum()) for arr in arrays]
    return VaughanSums(*sums)


# -- Weyl-differenced double sum ----------------------------------------------


class WeylSum(NamedTuple):
    value: float
    bound: float


def mikawa_w(tables: PrimeTables, M: int, N: int, X: int, ta: ThetaApprox) -> WeylSum:
    """M * sum_{m ~ M} sum_{n ~ N} tau_3(n) min(X/(m^2 n) + 1, 1/||m^2 n theta||).

    The exact double loop, next to the bound shape
    M^2 N (log X)^3 + X (1/M + qH/X + 1/(qH))^(1/4) (log X)^8.
    """
    if M < 1 or N < 1:
        raise PreconditionError("M and N must be >= 1")
    if X < 1:
        raise PreconditionError("X must be >= 1")
    if 2 * N > tables.limit:
        raise PreconditionError("tau_3 range exceeds table limit")
    if X >= _EXACT_FLOAT_INT or 8 * M * M * N >= _EXACT_FLOAT_INT:
        raise PreconditionError("X and 8 M^2 N must be below 2^53")
    check_budget(M * N * 4, f"weyl double sum M={M} N={N}")
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    tau3 = np.array([tables.tau(n, 3) for n in ns.tolist()], dtype=np.float64)
    total = 0.0
    for lo in range(0, M * N, SCAN_BLOCK):  # the pairs (m, n) in loop order
        m, i = np.divmod(np.arange(lo, min(lo + SCAN_BLOCK, M * N), dtype=np.int64), N)
        m += M + 1
        m2n = m * m * ns[i]
        terms = tau3[i] * _min_terms(float(X) / m2n + 1.0, ta.unit_norms(m2n))
        total = _add_in_order(total, terms)
    value = M * total
    lx = math.log(X)
    bound = M * M * N * lx**3 + X * (1.0 / M + ta.qH / X + 1.0 / ta.qH) ** 0.25 * lx**8
    return WeylSum(value, bound)


# -- Type I aggregates ---------------------------------------------------------


def _check_type_one(j: int, X: int, moduli) -> None:
    if j not in (0, 1):
        raise PreconditionError("j must be 0 or 1")
    if X < 1:
        raise PreconditionError("X must be >= 1")
    if any(d < 1 for d in moduli):
        raise PreconditionError("d must be >= 1")


def type_one_inner(
    d: int, c: int, M: int, alpha: Mapping[int, complex], j: int, X: int, theta: float
) -> complex:
    """sum_{mn < X, m <= M, mn = c (mod d)} alpha(m) (log n)^j e(mn theta)."""
    _check_type_one(j, X, (d,))
    total = 0.0 + 0.0j
    for m, w in alpha.items():
        if w == 0 or m > M or m < 1:
            continue
        g = math.gcd(m, d)
        if c % g != 0:
            continue
        dd = d // g
        start = (c // g) * pow(m // g % dd, -1, dd) % dd if dd > 1 else 1
        if start == 0:
            start = dd
        n_max = (X - 1) // m
        if start > n_max:
            continue
        ns = np.arange(start, n_max + 1, dd, dtype=np.int64)
        weights = np.log(ns.astype(np.float64)) if j == 1 else np.ones(len(ns))
        total += w * complex((weights * _phases((ns * m) * theta)).sum())
    return complex(total)


def type_one_sum(
    weights: Mapping[int, tuple[complex, int]],
    M: int,
    alpha: Mapping[int, complex],
    j: int,
    X: int,
    theta: float,
) -> complex:
    """Weighted aggregate sum_d sigma_d * inner(d, c_d); weights maps d -> (sigma_d, c_d)."""
    _check_type_one(j, X, weights)
    check_budget(sum(X // d for d in weights) * max(len(alpha), 1), "type I aggregate")
    total = 0.0 + 0.0j
    for d, (sigma, c_d) in weights.items():
        if sigma == 0:
            continue
        total += sigma * type_one_inner(d, c_d, M, alpha, j, X, theta)
    return complex(total)


def type_one_max(
    tables: PrimeTables,
    D: int,
    h3: int,
    M: int,
    alpha: Mapping[int, complex],
    j: int,
    X: int,
    theta: float,
) -> float:
    """sum_{d <= D} tau_{h3}(d) max over reduced c of |inner(d, c)|.

    The max enumerates every reduced residue; no shortcuts.  The n-terms of
    each m are computed once and split into every residue class mod d by one
    bincount per d <= D: about X H_M D steps, H_M the harmonic number.
    """
    _check_type_one(j, X, ())
    support = [(m, w) for m, w in alpha.items() if w != 0 and 1 <= m <= M]
    check_budget(D * (sum((X - 1) // m for m, _ in support) + D), "type I max aggregate")
    inner = [np.zeros(d, dtype=np.complex128) for d in range(1, D + 1)]  # inner[d - 1][c]
    for m, w in support:
        ns = np.arange(1, (X - 1) // m + 1, dtype=np.int64)
        mn = ns * m
        terms = _phases(mn * theta)
        if j == 1:
            terms *= np.log(ns.astype(np.float64))
        for d, sums in enumerate(inner, start=1):
            c = mn % d
            sums += w * (np.bincount(c, terms.real, d) + 1j * np.bincount(c, terms.imag, d))
    total = 0.0
    for d, sums in enumerate(inner, start=1):
        total += tables.tau(d, h3) * float(np.abs(sums[units(d)]).max())
    return total
