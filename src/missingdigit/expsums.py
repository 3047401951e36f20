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
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .errors import InternalCheckError, PreconditionError
from .primetables import INT64_MAX, PrimeTables, in_class, mod, tau, units

TWO_PI = 2.0 * math.pi
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
        q, a = self.q, self.a % self.q
        if (q - 1) ** 2 > INT64_MAX:
            return (ms.astype(object) % q) * a % q
        return mod(mod(ms, q) * a, q)

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


def _phases(x: np.ndarray, out: np.ndarray | None = None,
            ang: np.ndarray | None = None) -> np.ndarray:
    """e(x) = exp(2 pi i x) for a float64 array, each x first reduced mod 1.

    x - floor(x) equals numpy's float remainder of x by 1 to the last bit
    (both are exact, or both round r + 1 once for a negative x) at a fraction
    of its cost, and the cos and sin of the angle fill the parts that the
    complex exponential of 2 pi i times that remainder would give.  The angle
    is reduced in place, in ang (float64, x's shape, not x itself); a caller
    that repeats the call passes ang and out (complex128) to reuse them.
    """
    ang = np.floor(x, out=ang)
    np.subtract(x, ang, out=ang)
    ang *= TWO_PI
    if out is None:
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


def _inverse(q: int, Q: int) -> float:
    """1.0 / (q * Q), refusing a product past the float range."""
    try:
        return 1.0 / (q * Q)
    except OverflowError:
        raise PreconditionError(f"Q={Q} takes q Q past the float range at q={q}") from None


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
        if abs(theta - p / q) <= _inverse(q, Q):
            chosen = (p, q)
            break
    if chosen is None:
        chosen = convs[-1]
    a, q = chosen
    beta = theta - a / q
    if abs(beta) > _inverse(q, Q) + 1e-15:
        raise InternalCheckError("Dirichlet approximation failed its own guarantee")
    return ThetaApprox(theta=theta, a=a, q=q, beta=beta, X=X)


def lambda_hat(tables: PrimeTables, X: int, d: int, c: int, theta: float) -> complex:
    """sum_{n < X, n = c (mod d)} Lambda(n) e(n theta), exact over prime powers."""
    ns, logs = tables.prime_powers_upto(X - 1, d, c)
    return complex((logs * _phases(ns * theta)).sum())


class MinSum(NamedTuple):
    """An exact sum of minima next to its bound shape (min_sum, mikawa_w)."""

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


def _ragged_pairs(cuts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(row, col) int64 arrays over the pairs 0 <= col < cuts[row], in
    row-major order, in blocks of at most SCAN_BLOCK pairs (rows with no
    pairs are skipped)."""
    ends = np.cumsum(cuts)
    starts = ends - cuts
    pairs = int(cuts.sum())
    for lo in range(0, pairs, SCAN_BLOCK):
        hi = min(lo + SCAN_BLOCK, pairs)
        first = np.searchsorted(ends, lo, side="right")  # rows first..stop-1 meet [lo, hi)
        stop = np.searchsorted(ends, hi, side="left") + 1
        spans = np.minimum(ends[first:stop], hi) - np.maximum(starts[first:stop], lo)
        row = np.repeat(np.arange(first, stop, dtype=np.int64), spans)
        yield row, np.arange(lo, hi, dtype=np.int64) - starts[row]


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
    if X - 1 > INT64_MAX:
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
    cuts = np.searchsorted(ns, (X - 1) // ms, side="right")  # row i pairs ms[i] with ns[:cuts[i]]
    total = 0.0 + 0.0j
    for row, col in _ragged_pairs(cuts):
        mn = ms[row] * ns[col]
        keep = in_class(mn, d, c)
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


def _divisor_sums(out: np.ndarray, coeffs: np.ndarray, ms: np.ndarray, seq: np.ndarray) -> None:
    """out[m j] += coeffs[m] * seq[j] for every m of the ascending ms and every
    1 <= j < len(seq) with m j < len(out).

    Each entry receives its terms in increasing m, as a loop over ms would add
    them, whichever branch runs.  When the ms are no more than the cofactors j:
    one strided add per m.  Else the (m, j) pairs with nonzero seq[j] are laid
    out from the largest j down, each j with its ascending ms, and added in
    blocks of at most SCAN_BLOCK pairs by np.add.at, which applies repeated
    indices one after another in the order given: for a fixed n = m j,
    descending j means ascending m.  Each term is the same product as the
    loop's, so the sums are the loop's to the last bit.
    """
    last, top = len(out) - 1, len(seq) - 1
    if len(ms) <= top:
        for m in ms.tolist():
            t = min(top, last // m)
            out[m : m * t + 1 : m] += coeffs[m] * seq[1 : t + 1]
        return
    js = (np.flatnonzero(seq[1:]) + 1)[::-1]
    cuts = np.searchsorted(ms, last // js, side="right")  # row i pairs js[i] with ms[:cuts[i]]
    values, factors = coeffs[ms], seq[js]
    for row, col in _ragged_pairs(cuts):
        np.add.at(out, ms[col] * js[row], values[col] * factors[row])


def _vaughan_arrays(X: int, U: int):
    """Pointwise component arrays of the split at (X, U).

    a1 = Lambda_{<=U};      a2 = mu_{<=U} * log;
    a3 = (f 1_{<=U}) * 1;   a4 = (f 1_{>U}) * 1   with f = mu_{<=U} * Lambda_{<=U};
    a5 = mu_{>U} * Lambda_{>U} * 1.
    Identity: a1 + a2 - a3 - a4 + a5 = Lambda pointwise on [1, X).
    Each convolution is one _divisor_sums call over the m of nonzero
    coefficient.  The arrays are read-only, and mu and Lambda come from a
    prime table made here, so they hold no caller's table.
    """
    check_budget(X * (math.log(X) + 2) * 4, f"Vaughan arrays at X={X}")
    tables = PrimeTables(X)
    mu = tables.mobius_range(X).astype(np.float64)
    lam = tables.mangoldt_range(X)
    a1 = lam.copy()
    a1[U + 1 :] = 0.0
    ones = np.broadcast_to(1.0, (X,))  # a view: no X floats held
    small = np.flatnonzero(mu[1 : U + 1]) + 1  # the squarefree m <= U

    a2 = np.zeros(X)
    _divisor_sums(a2, mu, small, np.log(np.arange(X).clip(1)))  # log 1 stands in at j = 0
    f = np.zeros(X)
    _divisor_sums(f, mu, small, a1[: U + 1])
    a3 = np.zeros(X)
    _divisor_sums(a3, f, np.flatnonzero(f[1 : U + 1]) + 1, ones)
    a4 = np.zeros(X)
    _divisor_sums(a4, f, np.flatnonzero(f[U + 1 :]) + (U + 1), ones)

    # a5[m j] sums mu(m) g(j) over squarefree m > U, where g = Lambda_{>U} * 1
    # vanishes for j <= U; so j runs over (U, J] with J the largest cofactor.
    J = (X - 1) // (U + 1)
    g = np.zeros(J + 1)
    _divisor_sums(g, lam, np.flatnonzero(lam[U + 1 : J + 1]) + (U + 1), ones[: J // (U + 1) + 1])
    a5 = np.zeros(X)
    _divisor_sums(a5, mu, np.flatnonzero(mu[U + 1 :]) + (U + 1), g)

    arrays = (a1, a2, a3, a4, a5)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class VaughanSplit:
    """The five sums of the split at (X, U), one call per draw (d, c, theta):
    split(d, c, theta) is vaughan_decompose(tables, X, U, d, c, theta).

    The split holds the arrays, built once here, and the buffers its calls
    share (n, n theta, its angle, its phases and one product), made for
    d = 1 and sliced to the n = c (mod d) below X of each draw.  Each sum is
    formed as a fresh evaluation would form it, the same products summed
    over a contiguous array of the same length, so a call's sums do not
    depend on the calls before it.
    """

    def __init__(self, X: int, U: int):
        if U < 2:
            raise PreconditionError("U must be >= 2")
        if U >= X:
            raise PreconditionError("U must be below X")
        self._arrays = _vaughan_arrays(X, U)  # claims the budget before the buffers are made
        self._buffers = (np.arange(X, dtype=np.int64), *np.empty((2, X)),
                         *np.empty((2, X), dtype=np.complex128))

    def __call__(self, d: int, c: int, theta: float) -> VaughanSums:
        if d < 1:
            raise PreconditionError("d must be >= 1")
        ns, x, ang, phases, prod = self._buffers
        r = c % d
        ns = ns[r::d]
        size = ns.size
        e = _phases(np.multiply(ns, theta, out=x[:size]), phases[:size], ang[:size])
        return VaughanSums(*(complex(np.multiply(arr[r::d], e, out=prod[:size]).sum())
                             for arr in self._arrays))


def vaughan_decompose(
    tables: PrimeTables, X: int, U: int, d: int, c: int, theta: float
) -> VaughanSums:
    """Five component sums whose signed total equals lambda_hat(X, d, c, theta).

    The split is exact as an algebraic identity; only floating rounding
    separates total from the direct transform.  tables is not read: the
    arrays read a table of their own, so any limit gives the same sums.
    Each sum adds arr[n] e(n theta) over n = c (mod d) below X, one product
    per n and numpy's sum of those products, so equal arrays give equal
    sums to the bit; the arrays take their divisor-sum terms in increasing
    m (see _divisor_sums).  This is one call of VaughanSplit(X, U).
    """
    return VaughanSplit(X, U)(d, c, theta)


# -- Weyl-differenced double sum ----------------------------------------------


def mikawa_w(M: int, N: int, X: int, ta: ThetaApprox) -> MinSum:
    """M * sum_{m ~ M} sum_{n ~ N} tau_3(n) min(X/(m^2 n) + 1, 1/||m^2 n theta||).

    The exact double loop (tau_3 by trial division: no table), next to the
    bound shape M^2 N (log X)^3 + X (1/M + qH/X + 1/(qH))^(1/4) (log X)^8.
    Claims 4 steps per pair (m, n) and isqrt(2N) per tau_3(n), up front.
    """
    if M < 1 or N < 1:
        raise PreconditionError("M and N must be >= 1")
    if X < 1:
        raise PreconditionError("X must be >= 1")
    if X >= _EXACT_FLOAT_INT or 8 * M * M * N >= _EXACT_FLOAT_INT:
        raise PreconditionError("X and 8 M^2 N must be below 2^53")
    check_budget(M * N * 4 + N * math.isqrt(2 * N), f"weyl double sum M={M} N={N}")
    ns = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    tau3 = np.array([tau(n, 3) for n in ns.tolist()], dtype=np.float64)
    total = 0.0
    for lo in range(0, M * N, SCAN_BLOCK):  # the pairs (m, n) in loop order
        pairs = np.arange(lo, min(lo + SCAN_BLOCK, M * N), dtype=np.int64)
        m, i = mod(pairs, N, with_quotient=True)
        m += M + 1
        m2n = m * m * ns[i]
        terms = tau3[i] * _min_terms(float(X) / m2n + 1.0, ta.unit_norms(m2n))
        total = _add_in_order(total, terms)
    value = M * total
    lx = math.log(X)
    bound = M * M * N * lx**3 + X * (1.0 / M + ta.qH / X + 1.0 / ta.qH) ** 0.25 * lx**8
    return MinSum(value, bound)


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
    tables is not read: tau_{h3}(d) is trial division.
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
            c = mod(mn, d)
            sums += w * (np.bincount(c, terms.real, d) + 1j * np.bincount(c, terms.imag, d))
    total = 0.0
    for d, sums in enumerate(inner, start=1):
        total += tau(d, h3) * float(np.abs(sums[units(d)]).max())
    return total
