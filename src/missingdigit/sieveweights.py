"""Combinatorial beta-sieve weights with prefix-constrained supports.

The weights are lambda_d = mu(d) restricted to chains d = p1...pr with
z >= p1 > ... > pr, all factors drawn from the sieve's prime set, d <= D,
and for every index l of the side's parity (odd for upper bounds, even for
lower bounds)

    p1 ... p_{l-1} * p_l^(beta+1) <= D,

with beta = 1 for the semi-linear sieve and beta = 2 for the linear sieve.
These supports make the sandwich (lambda^- * 1)(n) <= 1_{(n, P(z)) = 1}
<= (lambda^+ * 1)(n) hold pointwise, and in the ranges used here every
support element in [X^(1/10), X^rho] splits as d = d1 d2 with d1 in
[X^(1/10), D0] and d1 d2^2 <= X^(1 - 4 delta - 2 eps^2)/D0.

P(z) multiplies over p <= z (both conventions appear in the literature; this
module standardizes on <=).  Prefix comparisons run in log space with 1e-12
slack so boundary chains do not flap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._budget import check_budget
from .errors import InternalCheckError, PreconditionError
from .primetables import PrimeTables

_SLACK = 1e-12


def _all_primes(_p: int) -> bool:
    return True


@dataclass(frozen=True)
class SieveSpec:
    """Parameters of one combinatorial sieve: degree (1 = semi-linear, 2 =
    linear), bounding side, level D, sifting limit z, and the prime set."""

    degree: int
    side: str
    D: float
    z: float
    prime_set: Callable[[int], bool] = _all_primes
    rho: float | None = None
    delta: float = 1e-3
    eps: float = 1e-6

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise PreconditionError("degree must be 1 (semi-linear) or 2 (linear)")
        if self.side not in ("upper", "lower"):
            raise PreconditionError("side must be 'upper' or 'lower'")
        if not (2 <= self.D < math.inf and 2 <= self.z < math.inf):
            raise PreconditionError("D and z must be finite and >= 2")

    def _parity_checked(self, index: int) -> bool:
        return index % 2 == (1 if self.side == "upper" else 0)


def _check_level(X: float) -> None:
    if not X > 0:  # X^rho of a negative X is complex
        raise PreconditionError(f"X must be > 0, got {X}")


def semi_linear_lower(X: float, delta: float = 1e-3, eps: float = 1e-6,
                      prime_set: Callable[[int], bool] = _all_primes) -> SieveSpec:
    """Lower-bound semi-linear spec at level X^rho, rho = 3(1-4 delta)/7 - eps."""
    _check_level(X)
    rho = 3.0 * (1.0 - 4.0 * delta) / 7.0 - eps
    z = X ** (1.0 / 3.0 - 2.0 * delta - 2.0 * eps * eps)
    return SieveSpec(1, "lower", X**rho, z, prime_set, rho=rho, delta=delta, eps=eps)


def linear_upper(X: float, delta: float = 1e-3, eps: float = 1e-6,
                 prime_set: Callable[[int], bool] = _all_primes) -> SieveSpec:
    """Upper-bound linear spec at level X^rho, rho = 1/2 - 2 delta - eps."""
    _check_level(X)
    rho = 0.5 - 2.0 * delta - eps
    return SieveSpec(2, "upper", X**rho, X**0.2, prime_set, rho=rho, delta=delta, eps=eps)


@dataclass
class SieveWeight:
    """Signed weights on squarefree d; zero off the combinatorial support."""

    spec: SieveSpec
    values: dict[int, int] = field(default_factory=dict)

    def __call__(self, d: int) -> int:
        return self.values.get(d, 0)

    @property
    def support(self) -> list[int]:
        return sorted(self.values)


def _chain_of(tables: PrimeTables, d: int, z: float) -> list[int]:
    """Decreasing prime chain of squarefree d; errors mirror the support pre."""
    if d < 1:
        raise PreconditionError("d must be >= 1")
    primes = []
    for p, e in tables.factor(d):
        if e > 1:
            raise PreconditionError(f"{d} is not squarefree")
        primes.append(p)
    primes.sort(reverse=True)
    if primes and primes[0] > z + _SLACK:
        raise PreconditionError(f"{d} has a prime factor above z = {z}")
    return primes


def support_member(spec: SieveSpec, d: int, tables: PrimeTables) -> bool:
    """Whether d belongs to the spec's combinatorial support."""
    if d == 1:
        return True
    chain = _chain_of(tables, d, spec.z)
    if any(not spec.prime_set(p) for p in chain):
        return False
    log_d = math.log(spec.D) + _SLACK
    if sum(math.log(p) for p in chain) > log_d:
        return False
    prefix = 0.0
    for index, p in enumerate(chain, start=1):
        if spec._parity_checked(index):
            if prefix + (spec.degree + 1) * math.log(p) > log_d:
                return False
        prefix += math.log(p)
    return True


def build_weights(spec: SieveSpec, tables: PrimeTables) -> SieveWeight:
    """lambda_d = mu(d) over the support, by descending-chain DFS."""
    zcap = min(int(spec.z + _SLACK), int(spec.D + _SLACK), tables.limit)
    primes = [int(p) for p in tables.primes_upto(zcap) if spec.prime_set(int(p))]
    primes.sort(reverse=True)
    log_d = math.log(spec.D) + _SLACK
    logs = {p: math.log(p) for p in primes}
    weight = SieveWeight(spec=spec, values={1: 1})
    check_budget(spec.D * math.log(spec.D + 1), "sieve support enumeration")

    def extend(start_idx: int, product: int, log_prefix: float, index: int, sign: int):
        for i in range(start_idx, len(primes)):
            p = primes[i]
            lp = logs[p]
            if log_prefix + lp > log_d:
                continue
            if spec._parity_checked(index) and log_prefix + (spec.degree + 1) * lp > log_d:
                continue
            d = product * p
            weight.values[d] = -sign
            extend(i + 1, d, log_prefix + lp, index + 1, -sign)

    extend(0, 1, 0.0, 1, 1)
    return weight


def sandwich_check(
    w_minus: SieveWeight,
    w_plus: SieveWeight,
    tables: PrimeTables,
    z: float,
    prime_set: Callable[[int], bool],
    n_max: int,
) -> list[tuple[int, int, int, int]]:
    """Pointwise check of lower <= indicator <= upper on 1 <= n <= n_max.

    Returns violating rows (n, lower, indicator, upper); exact integer
    arithmetic throughout.  Expected empty.
    """
    if n_max > tables.limit:
        raise PreconditionError("n_max exceeds table limit")
    conv_minus = np.zeros(n_max + 1, dtype=np.int64)
    conv_plus = np.zeros(n_max + 1, dtype=np.int64)
    for weight, conv in ((w_minus, conv_minus), (w_plus, conv_plus)):
        for d, v in weight.values.items():
            if d <= n_max:
                conv[d::d] += v
    coprime = np.ones(n_max + 1, dtype=np.int64)
    for p in tables.primes_upto(int(z + _SLACK)):
        p = int(p)
        if prime_set(p):
            coprime[p::p] = 0
    violated = (conv_minus > coprime) | (coprime > conv_plus)
    violated[0] = False
    return [
        (n, int(conv_minus[n]), int(coprime[n]), int(conv_plus[n]))
        for n in np.flatnonzero(violated).tolist()
    ]


def sift_direct(
    weights: Mapping[int, float],
    prime_set: Callable[[int], bool],
    z: float,
    tables: PrimeTables,
) -> float:
    """S(C, P, z) = sum of c(n) over n coprime to every sieve prime p <= z."""
    total = 0.0
    for n, c in weights.items():
        if c == 0:
            continue
        ok = True
        for p, _ in tables.factor(n):
            if p <= z + _SLACK and prime_set(p):
                ok = False
                break
        if ok:
            total += c
    return float(total)


def well_factor(
    d: int, spec: SieveSpec, D0: float, X: float, tables: PrimeTables
) -> tuple[int, int]:
    """Split d = d1 d2 with d1 in [X^(1/10), D0] and d1 d2^2 <= X^(1-4d-2e^2)/D0.

    d1 is the shortest prefix of the decreasing prime chain that qualifies.
    In-contract d (support members in [X^(1/10), X^rho], admissible D0) always
    split; failure raises InternalCheckError as a counterexample report.
    """
    rho = spec.rho if spec.rho is not None else math.log(spec.D) / math.log(X)
    delta, eps = spec.delta, spec.eps
    lo_exp = X**0.1
    if not support_member(spec, d, tables):
        raise PreconditionError(f"{d} is not in the sieve support")
    if not lo_exp - _SLACK <= d <= X**rho * (1 + _SLACK):
        raise PreconditionError(f"{d} outside [X^0.1, X^rho]")
    if spec.degree == 1:
        d0_lo = X ** (1.0 / 3.0 - 2.0 * delta - 2.0 * eps * eps)
    else:
        d0_lo = X**0.2
    if not d0_lo * (1 - 1e-9) <= D0 <= X**rho * (1 + 1e-9):
        raise PreconditionError(f"D0={D0} outside the admissible interval")
    chain = _chain_of(tables, d, spec.z)
    cap = (1.0 - 4.0 * delta - 2.0 * eps * eps) * math.log(X) - math.log(D0)
    d1 = 1
    for p in chain:
        d1 *= p
        if d1 > D0 * (1 + _SLACK):
            break
        if d1 < lo_exp - _SLACK:
            continue
        d2 = d // d1
        if math.log(d1) + 2.0 * math.log(max(d2, 1)) <= cap + _SLACK:
            return d1, d2
    raise InternalCheckError(
        f"no qualifying split for d={d} at D0={D0}: counterexample at this scale"
    )
