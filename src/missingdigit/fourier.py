"""Digit-set Fourier transform via the digit-product factorization.

For X = b^k the transform of the restricted set is

    hat1(theta) = sum_{n < X} 1_set(n) e(n theta),

and it factors over digit positions: each position j contributes
sum_{d allowed} e(d b^j theta), with an e(r theta) prefactor when the last
digit is pinned to r.  Evaluation is O(k b) per point; the O(b^k) defining
sum is only ever used as a test oracle.  Off the grid (eval_hat) the phase of
b^j theta is advanced in floats and e(x) comes from expsums._phases.

On the grid theta = t/X the phases are tracked as exact integers mod X, so
whole-spectrum scans (L^1 mass, hybrid sums over rational points, inversion)
are clean of phase drift.

The factorization requires a nonzero excluded digit: with a0 = 0 the
canonical-expansion set is not a product over digit positions (short
expansions re-enter the set), so these transforms refuse a0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .digitset import DigitSystem, contains_array, count
from .errors import PreconditionError
from .expsums import _phases


@dataclass
class FourierStats:
    """Measured spectrum statistics for one digit system and digit length k."""

    k: int
    l1_total: float
    c_b_estimate: float
    alpha_b_estimate: float


def _require_product_form(ds: DigitSystem, k: int) -> None:
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if ds.excluded == 0:
        raise PreconditionError("digit-product transform needs a nonzero excluded digit")


def eval_hat(ds: DigitSystem, k: int, theta: float) -> complex:
    """hat1_set(theta) by the digit product; O(k*b)."""
    _require_product_form(ds, k)
    b = ds.base
    check_budget(k * b, f"digit product at k={k}, b={b}")
    phase = theta % 1.0
    pinned = ds.residue is not None
    # phase of b^j * theta mod 1, advanced one digit position at a time
    pj = (phase * b) % 1.0 if pinned else phase
    positions = []
    for _ in range(pinned, k):
        positions.append(pj)
        pj = (pj * b) % 1.0
    # one row of digit phases per position, and e(r theta) last when the last
    # digit is pinned to r, in one pass; the value is e(r theta) times the
    # product of the row sums
    digits = np.array(ds.allowed, dtype=np.float64) * np.array(positions)[:, None]
    e = _phases(np.append(digits, ds.residue * phase) if pinned else digits.ravel())
    value = complex(e[-1]) if pinned else 1.0 + 0.0j
    for s in e[: digits.size].reshape(digits.shape).sum(axis=1).tolist():
        value *= s
    return value


@lru_cache(maxsize=8)
def spectrum(ds: DigitSystem, k: int) -> np.ndarray:
    """hat1_set(t/X) for all 0 <= t < X = b^k, exact rational phases; cached.

    The factor for digit position j, sum_d e(d b^j t / X), depends only on
    t mod b^(k-j): it is built once on that period and multiplied in through
    a reshape.  Every phase is the root e(m/X) for an exact integer m, looked
    up in one table of the X roots.  The returned array is read-only.
    """
    _require_product_form(ds, k)
    b = ds.base
    X = b**k
    check_budget(X * k * b, f"spectrum scan at X={X}")
    t = np.arange(X, dtype=np.int64)
    roots = np.exp(2j * np.pi * t / X)
    if ds.residue is not None:
        out = roots[(ds.residue * t) % X]
        start = 1
    else:
        out = np.ones(X, dtype=np.complex128)
        start = 0
    for j in range(start, k):
        period = b ** (k - j)
        s = np.arange(period, dtype=np.int64)
        factor = np.zeros(period, dtype=np.complex128)
        for d in ds.allowed:
            # d b^j t mod X = ((d s) mod period) b^j, with s = t mod period
            factor += roots[(d * s) % period * b**j]
        rows = out.reshape(-1, period)
        rows *= factor
    out.setflags(write=False)
    return out


@lru_cache(maxsize=4)
def _inverted(ds: DigitSystem, k: int) -> np.ndarray:
    """(1/X) sum_t hat1(t/X) e(-nt/X) for all 0 <= n < X; cached, read-only.

    The inversion sum for every n at once is one FFT of the spectrum, so it
    costs O(X log X) and goes through the scan budget.
    """
    _require_product_form(ds, k)
    X = ds.base**k
    check_budget(X * max(1.0, math.log2(X)), f"inversion FFT at X={X}")
    out = np.fft.fft(spectrum(ds, k)).real / X
    out.setflags(write=False)
    return out


def inversion_indicator(ds: DigitSystem, k: int, n: int) -> float:
    """(1/X) sum_t hat1(t/X) e(-nt/X); equals the membership indicator of n."""
    X = ds.base**k
    if not 0 <= n < X:
        raise PreconditionError(f"n={n} not in [0, {X})")
    return float(_inverted(ds, k)[n])


def inversion_max_error(ds: DigitSystem, k: int) -> float:
    """max over n < X of |(1/X) sum_t hat1(t/X) e(-nt/X) - 1_set(n)|."""
    recovered = _inverted(ds, k)
    member = contains_array(ds, np.arange(recovered.size, dtype=np.int64))
    return float(np.abs(recovered - member).max())


def l1_and_cb(ds: DigitSystem, k: int) -> FourierStats:
    """Full L^1 scan of the spectrum and the growth constants derived from it.

    l1_total = sum_t |hat1(t/X)|; the geometric-mean growth constant is
    c_b = l1_total^(1/k) / (b log b), and the hybrid-bound exponent is
    alpha_b = log(c_b * b * log b / (b-1)) / log b.
    """
    b = ds.base
    hat = spectrum(ds, k)
    l1_total = float(np.abs(hat).sum())
    c_b = l1_total ** (1.0 / k) / (b * math.log(b))
    alpha_b = math.log(c_b * b * math.log(b) / (b - 1)) / math.log(b)
    return FourierStats(k=k, l1_total=l1_total, c_b_estimate=c_b, alpha_b_estimate=alpha_b)


def hybrid_sum(ds: DigitSystem, k: int, Q: int, B: int) -> dict:
    """Hybrid rational-point mass of the spectrum near fractions a/q, q ~ Q.

    Sums |hat1(a/q + eta/X)| over q in (Q, 2Q], reduced 1 <= a < q, and the
    integers t = X a/q + eta with |eta| < B (only such theta are grid points).
    Also reports the bound shape (b-1)^k (Q^2 B)^alpha_b + Q^2 B (c_b log b)^k
    evaluated with the measured constants, and the LHS/RHS ratio.

    The t near each a/q that pass the exact integer test |t q - X a| < B q
    form one run of consecutive integers, summed as a difference of the
    cumulative sum of |hat1|; the (q, a) pairs are taken in blocks of at most
    SCAN_BLOCK.
    """
    if Q < 1 or B < 1:
        raise PreconditionError("Q and B must be >= 1")
    b = ds.base
    X = b**k
    check_budget(4 * Q * Q * B + X * k * b, f"hybrid scan Q={Q} B={B}")
    # cs[i] = sum of |hat1(t/X)| over t < i
    cs = np.concatenate(([0.0], np.cumsum(np.abs(spectrum(ds, k)))))
    numerators = np.arange(1, 2 * Q, dtype=np.int64)
    q_block = max(1, SCAN_BLOCK // numerators.size)
    total = 0.0
    points = 0
    for q0 in range(Q + 1, 2 * Q + 1, q_block):
        qs = np.arange(q0, min(q0 + q_block, 2 * Q + 1), dtype=np.int64)[:, None]
        reduced = (numerators < qs) & (np.gcd(numerators, qs) == 1)
        q = np.broadcast_to(qs, reduced.shape)[reduced]
        a = np.broadcast_to(numerators, reduced.shape)[reduced]
        # t = floor(X a / q) + e passes |t q - X a| < B q exactly for e in
        # [1 - B, B], less e = B when q divides X a
        base = (X // q) * a + (X % q) * a // q  # floor(X a / q) without overflow
        length = 2 * B - ((X % q) * a % q == 0)
        start = (base + 1 - B) % X
        end = start + length
        # the sum of |hat| over t in [start, end), continued periodically
        total += float((cs[end % X] + end // X * cs[X] - cs[start]).sum())
        points += int(length.sum())
    stats = l1_and_cb(ds, k)
    rhs = (b - 1) ** k * (Q * Q * B) ** stats.alpha_b_estimate + Q * Q * B * (
        stats.c_b_estimate * math.log(b)
    ) ** k
    return {
        "value": total,
        "points": points,
        "bound": rhs,
        "ratio": total / rhs if rhs > 0 else math.inf,
    }


def linf_probe(ds: DigitSystem, k: int, q: int, a: int, eps: float) -> tuple[float, float]:
    """|hat1(a/q + eps)| at a reduced fraction plus an empirical decay rate.

    Requires q < b^(k/3), gcd(a, q) = 1, |eps| < 1/(2 b^(2k/3)), and that q
    keeps a nontrivial divisor after stripping the primes of b.  The decay
    rate reported is -log(value / hat1(0)) * log(q) / k.
    """
    b = ds.base
    if q < 1 or math.gcd(a, q) != 1:
        raise PreconditionError("need gcd(a, q) = 1 with q >= 1")
    if q >= b ** (k / 3):
        raise PreconditionError(f"q={q} not below b^(k/3)")
    if abs(eps) >= 0.5 * b ** (-2 * k / 3):
        raise PreconditionError("eps too large for the probe regime")
    q1 = q
    while (g := math.gcd(q1, b)) > 1:
        q1 //= g
    if q1 == 1:
        raise PreconditionError("q has no divisor > 1 coprime to b")
    value = abs(eval_hat(ds, k, (a / q + eps) % 1.0))
    norm = count(ds, k)
    if value <= 0:
        return 0.0, math.inf
    decay = -math.log(value / norm) * math.log(q) / k if q > 1 else 0.0
    return value, decay
