"""Sieve functions f/F, the two sieve integrals, and the Euler-product
constants that drive the two-squares application.

Closed forms:

    sqrt(u) F_sem(u) = 2 sqrt(e^gamma / pi)            on 0 < u <= 2,
    f_sem(u) = 0 on (0, 1];  on [1, 3]
    f_sem(u) = sqrt(e^gamma / (pi u)) * log(1 + 2(u-1) + 2 sqrt(u(u-1))),
    u F_lin(u) = 2 e^gamma                             on 1 <= u <= 3,
    f_lin(u) = 0 on (0, 2].

Integrals:

    I_sem(rho, alpha) = rho^(-1/2) * int_1^(alpha rho) dy / sqrt(y(y-1)),
    I_lin(rho, alpha) = rho^(-1)   * int_2^alpha log(y-1) / (y sqrt(1-y/alpha)) dy.

I_sem has the same log closed form as f_sem; I_lin is integrated after the
substitution y = alpha (1 - t^2), which removes the endpoint singularity and
leaves a smooth integrand for adaptive Simpson.

Euler products over a residue class are truncated at a prime cutoff and carry
rigorous tail intervals: the tail of sum log(1 - x_p) is below
sum_{p > P} 2/p^2 <= 2/P in absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ._budget import check_budget
from .digitset import _prime_divisors
from .errors import PreconditionError
from .primetables import PrimeTables

# Euler-Mascheroni constant, 20 digits; e^gamma is derived from it.
EULER_GAMMA = 0.57721566490153286061
E_GAMMA = math.exp(EULER_GAMMA)

_DOMAIN = {
    "sem_F": (0.0, 2.0),
    "sem_f": (0.0, 3.0),
    "lin_F": (1.0, 3.0),
    "lin_f": (0.0, 2.0),
}


def _chain_log(u: float) -> float:
    """log(1 + 2(u-1) + 2 sqrt(u(u-1))) = int_1^u dy / sqrt(y(y-1))."""
    return math.log(1.0 + 2.0 * (u - 1.0) + 2.0 * math.sqrt(u * (u - 1.0)))


def sieve_fn(kind: str, u: float) -> float:
    """Evaluate one of the four sieve functions on its stated domain."""
    if kind not in _DOMAIN:
        raise PreconditionError(f"unknown sieve function {kind!r}")
    lo, hi = _DOMAIN[kind]
    if not lo < u <= hi + 1e-12:
        raise PreconditionError(f"{kind} undefined at u = {u}")
    if kind == "sem_F":
        return 2.0 * math.sqrt(E_GAMMA / math.pi) / math.sqrt(u)
    if kind == "sem_f":
        if u <= 1.0:
            return 0.0
        return math.sqrt(E_GAMMA / (math.pi * u)) * _chain_log(u)
    if kind == "lin_F":
        return 2.0 * E_GAMMA / u
    return 0.0  # lin_f vanishes on its whole stated domain


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 40) -> float:
    """Plain recursive adaptive Simpson with Richardson acceptance."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1) + recurse(
            xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def I_sem(rho: float, alpha: float) -> float:
    """rho^(-1/2) int_1^(alpha rho) dy / sqrt(y (y-1)), closed form."""
    if rho <= 0:
        raise PreconditionError("rho must be positive")
    u = alpha * rho
    if not 1.0 <= u <= 3.0 + 1e-12:
        raise PreconditionError(f"alpha*rho = {u} outside [1, 3]")
    return _chain_log(u) / math.sqrt(rho)


def I_lin(rho: float, alpha: float, tol: float = 1e-10) -> float:
    """rho^(-1) int_2^alpha log(y-1) / (y sqrt(1 - y/alpha)) dy.

    Substituting y = alpha (1 - t^2) gives
    2 int_0^t0 log(alpha(1-t^2) - 1) / (1 - t^2) dt with t0 = sqrt(1 - 2/alpha);
    the integrand is smooth on [0, t0].
    """
    if rho <= 0:
        raise PreconditionError("rho must be positive")
    if alpha <= 2.0:
        raise PreconditionError("alpha must exceed 2")
    t0 = math.sqrt(1.0 - 2.0 / alpha)

    def integrand(t: float) -> float:
        one_mt2 = 1.0 - t * t
        return math.log(max(alpha * one_mt2 - 1.0, 1e-300)) / one_mt2

    return 2.0 * adaptive_simpson(integrand, 0.0, t0, tol) / rho


@dataclass
class SieveConstants:
    """Truncated Euler-product constants with their tail intervals."""

    C1: float
    C2: float
    C3: float
    frakS: float
    p_limit: int
    intervals: dict[str, tuple[float, float]]

    def width(self, name: str) -> float:
        lo, hi = self.intervals[name]
        return hi - lo


def euler_constants(tables: PrimeTables, p_limit: int) -> SieveConstants:
    """C1, C2, C3 and frakS = C2 C3 / 2 from products over p <= p_limit.

    C1 = prod_{p=1(4)} (1 - (p-1)^-2),  C3 = prod_{p=3(4)} (1 - (p-1)^-2),
    C2 = (1/(2 sqrt 2)) prod_{p=3(4)} (1 - p^-2)^(1/2).
    Each value is the truncated product (an upper bound: factors < 1); the
    attached interval [value * exp(-tail), value] uses tail <= 2/p_limit.
    """
    if p_limit < 1000:
        raise PreconditionError("p_limit must be >= 1000")
    if p_limit > tables.limit:
        raise PreconditionError("p_limit exceeds table limit")
    log_c1 = 0.0
    log_c3 = 0.0
    log_c2p = 0.0
    for p in tables.primes_upto(p_limit):
        p = int(p)
        if p % 4 == 1:
            log_c1 += math.log1p(-1.0 / (p - 1) ** 2)
        elif p % 4 == 3:
            log_c3 += math.log1p(-1.0 / (p - 1) ** 2)
            log_c2p += 0.5 * math.log1p(-1.0 / p**2)
    c1 = math.exp(log_c1)
    c3 = math.exp(log_c3)
    c2 = math.exp(log_c2p) / (2.0 * math.sqrt(2.0))
    tail = 2.0 / p_limit
    intervals = {
        "C1": (c1 * math.exp(-tail), c1),
        "C2": (c2 * math.exp(-0.5 * tail), c2),
        "C3": (c3 * math.exp(-tail), c3),
    }
    s = c2 * c3 / 2.0
    intervals["frakS"] = (
        intervals["C2"][0] * intervals["C3"][0] / 2.0,
        intervals["C2"][1] * intervals["C3"][1] / 2.0,
    )
    return SieveConstants(C1=c1, C2=c2, C3=c3, frakS=s, p_limit=p_limit, intervals=intervals)


def mertens_3mod4(tables: PrimeTables, y: int,
                  constants: SieveConstants | None = None) -> tuple[float, float]:
    """(exact product over p <= y, p = 3 mod 4, of 1 - 1/(p-1); its predicted
    asymptote 2 C2 C3 sqrt(pi e^-gamma / log y))."""
    if y > tables.limit:
        raise PreconditionError("y exceeds table limit")
    product = 1.0
    for p in tables.primes_upto(y):
        p = int(p)
        if p % 4 == 3:
            product *= 1.0 - 1.0 / (p - 1)
    if constants is None:
        constants = euler_constants(tables, min(tables.limit, max(1000, y)))
    predicted = 2.0 * constants.C2 * constants.C3 * math.sqrt(
        math.pi * math.exp(-EULER_GAMMA) / math.log(y)
    )
    return product, predicted


def t_multiplier(tables: PrimeTables, n: int) -> float:
    """t(n) = prod over odd primes p | n of (p-1)/(p-2)."""
    value = 1.0
    for p, _ in tables.factor(n):
        if p > 2:
            value *= (p - 1.0) / (p - 2.0)
    return value


def t_weight_sum(tables: PrimeTables, X: int, alpha: float, b: int,
                 constants: SieveConstants | None = None) -> tuple[float, float]:
    """Exact sum of t(l) / (l log(X/l)) over the two-factor set

        l = n1 p1,  n1 <= X^(1-2/alpha) with every prime of n1 = 1 mod 4,
        p1 prime, X^(1/alpha) <= p1 < sqrt(X/n1), p1 = 3 mod 4, p1 not | b,

    restricted to gcd(l, 2b) = 1, next to its predicted value

        (C2 / (2 C1)) prod_{p | b, p = 1 (4)} (1 + 1/(p-2))^-1
        * int_2^alpha log(y-1)/(y sqrt(1-y/alpha)) dy / sqrt(log X).
    """
    if not 2.0 <= alpha < 4.0:
        raise PreconditionError("alpha must lie in [2, 4)")
    if X > tables.limit:
        raise PreconditionError("X exceeds table limit")
    n1_cap = int(X ** (1.0 - 2.0 / alpha))
    check_budget(n1_cap * 40, "two-factor set enumeration")
    p1_lo = X ** (1.0 / alpha)
    total = 0.0
    bcal = tables.in_bcal_array(n1_cap + 1)
    for n1 in range(1, n1_cap + 1):
        if not bcal[n1] or math.gcd(n1, 2 * b) != 1:
            continue
        tn1 = t_multiplier(tables, n1)
        p1_hi = math.sqrt(X / n1)
        for p in tables.primes_upto(int(p1_hi)):
            p = int(p)
            if p < p1_lo or p >= p1_hi:
                continue
            if p % 4 != 3 or b % p == 0:
                continue
            ell = n1 * p
            total += tn1 * ((p - 1.0) / (p - 2.0)) / (ell * math.log(X / ell))
    if constants is None:
        constants = euler_constants(tables, min(tables.limit, 10**5))
    integral = I_lin(1.0, alpha)  # rho = 1 leaves the bare integral
    bfactor = 1.0
    for p in _prime_divisors(b):
        if p % 4 == 1:
            bfactor *= 1.0 / (1.0 + 1.0 / (p - 2.0))
    predicted = (
        constants.C2 / (2.0 * constants.C1) * bfactor * integral / math.sqrt(math.log(X))
    )
    return total, predicted


def b_over_phi(b: int) -> Fraction:
    """sum over squarefree q | b of 1/phi(q), equal to b/phi(b) exactly.

    Both sides are computed independently in rational arithmetic and compared
    before returning.
    """
    if b < 2:
        raise PreconditionError("b must be >= 2")
    primes = _prime_divisors(b)
    lhs = Fraction(1)
    for p in primes:
        lhs *= 1 + Fraction(1, p - 1)  # sum over q | b squarefree of 1/phi(q)
    phi = b
    for p in primes:
        phi = phi // p * (p - 1)
    rhs = Fraction(b, phi)
    if lhs != rhs:
        raise AssertionError(f"identity failed at b={b}: {lhs} != {rhs}")
    return rhs


def lower_bound_margin(delta: float = 1e-3, eps: float = 1e-6) -> dict:
    """The decisive positivity check of the two-squares lower bound.

    At rho_sem = 3(1-4 delta)/7 - eps, rho_lin = 1/2 - 2 delta - eps and
    alpha = (1/3 - 2 delta)^-1 + eps the difference
    I_sem - (10/9) I_lin must stay positive with a solid margin.
    """
    rho_sem = 3.0 * (1.0 - 4.0 * delta) / 7.0 - eps
    rho_lin = 0.5 - 2.0 * delta - eps
    alpha = 1.0 / (1.0 / 3.0 - 2.0 * delta) + eps
    i_sem = I_sem(rho_sem, alpha)
    i_lin = I_lin(rho_lin, alpha)
    return {
        "delta": delta,
        "eps": eps,
        "rho_sem": rho_sem,
        "rho_lin": rho_lin,
        "alpha": alpha,
        "I_sem": i_sem,
        "I_lin": i_lin,
        "ten_ninth_I_lin": 10.0 * i_lin / 9.0,
        "difference": i_sem - 10.0 * i_lin / 9.0,
    }
