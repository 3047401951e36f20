"""Combinatorial beta-sieve weights with prefix-constrained supports.

The weights are lambda_d = mu(d) restricted to chains d = p1...pr with
z >= p1 > ... > pr, all factors drawn from the sieve's prime set, d <= D,
and for every index l of the side's parity (odd for upper bounds, even for
lower bounds)

    p1 ... p_{l-1} * p_l^(beta+1) <= D,

with beta = 1 for the semi-linear sieve and beta = 2 for the linear sieve.
These supports make the sandwich (lambda^- * 1)(n) <= 1_{(n, P(z)) = 1}
<= (lambda^+ * 1)(n) hold pointwise.

The paper's two sieves run at level D = X^rho and sifting limit z = X^s,
both exponents fixed by (delta, eps) in sieve_exponents alone: the
semi-linear lower sieve (Iwaniec, Acta Arith. 21, 1972) at
rho = 3(1 - 4 delta)/7 - eps, s = 1/3 - 2 delta - 2 eps^2, and the linear
upper beta-sieve (Friedlander and Iwaniec, Opera de Cribro, 2010) at
rho = 1/2 - 2 delta - eps, s = 1/5.  In the ranges used here every support
element in [X^(1/10), X^rho] splits as d = d1 d2 with d1 in [X^(1/10), D0]
and d1 d2^2 <= X^(1 - 4 delta - 2 eps^2)/D0, for D0 in [X^s, X^rho].

P(z) multiplies over p <= z (both conventions appear in the literature; this
module standardizes on <=).  Prefix comparisons run in log space with 1e-12
slack so boundary chains do not flap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._budget import check_budget
from .errors import InternalCheckError, PreconditionError
from .primetables import PrimeTables

_SLACK = 1e-12
DELTA, EPS = 1e-3, 1e-6  # the paper's (delta, eps)


def _all_primes(_p: int) -> bool:
    return True


def sifting_prime(p, b: int):
    """Whether p is one of the application's sifting primes, p = 3 (mod 4)
    and p not dividing b; p an int or an int64 array (then elementwise).
    p mod 4 is read off the low two bits, exact for an int and an array alike."""
    return ((p & 3) == 3) & (b % p != 0)


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
    delta: float = DELTA
    eps: float = EPS

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise PreconditionError("degree must be 1 (semi-linear) or 2 (linear)")
        if self.side not in ("upper", "lower"):
            raise PreconditionError("side must be 'upper' or 'lower'")
        if not (2 <= self.D < math.inf and 2 <= self.z < math.inf):
            raise PreconditionError("D and z must be finite and >= 2")

    def admits(self, log_prefix: float, log_p: float, index: int, log_d: float) -> bool:
        """Whether a chain whose primes before index l have log sum log_prefix
        takes p_l of log log_p: p1 ... p_l <= D, and p1 ... p_{l-1}
        p_l^(beta+1) <= D (which implies it) at an l of the side's parity.
        log_d is log D with the slack, taken once by the caller."""
        power = self.degree + 1 if index % 2 == (self.side == "upper") else 1
        return log_prefix + power * log_p <= log_d


def sieve_exponents(degree: int, delta: float, eps: float) -> tuple[float, float]:
    """(rho, s) of the paper's sieve of this degree: level D = X^rho and
    sifting limit z = X^s, for the semi-linear lower sieve (degree 1) and the
    linear upper sieve (degree 2)."""
    if degree == 1:
        return 3.0 * (1.0 - 4.0 * delta) / 7.0 - eps, 1.0 / 3.0 - 2.0 * delta - 2.0 * eps * eps
    return 0.5 - 2.0 * delta - eps, 0.2


def _paper_sieve(degree: int, side: str, X: float, delta: float, eps: float,
                 prime_set: Callable[[int], bool]) -> SieveSpec:
    """The paper's sieve of this degree: level X^rho, sifting limit X^s (sieve_exponents)."""
    if not X > 0:  # X^rho of a negative X is complex
        raise PreconditionError(f"X must be > 0, got {X}")
    rho, s = sieve_exponents(degree, delta, eps)
    return SieveSpec(degree, side, X**rho, X**s, prime_set, rho=rho, delta=delta, eps=eps)


def semi_linear_lower(X: float, delta: float = DELTA, eps: float = EPS,
                      prime_set: Callable[[int], bool] = _all_primes) -> SieveSpec:
    """Lower-bound semi-linear spec at the degree-1 exponents of sieve_exponents."""
    return _paper_sieve(1, "lower", X, delta, eps, prime_set)


def linear_upper(X: float, delta: float = DELTA, eps: float = EPS,
                 prime_set: Callable[[int], bool] = _all_primes) -> SieveSpec:
    """Upper-bound linear spec at the degree-2 exponents of sieve_exponents."""
    return _paper_sieve(2, "upper", X, delta, eps, prime_set)


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
    return _admits_chain(spec, _chain_of(tables, d, spec.z))


def _admits_chain(spec: SieveSpec, chain: list[int]) -> bool:
    """Whether the decreasing prime chain of a d lies in the spec's support."""
    if any(not spec.prime_set(p) for p in chain):
        return False
    log_d = math.log(spec.D) + _SLACK
    prefix = 0.0
    for index, p in enumerate(chain, start=1):
        if not spec.admits(prefix, math.log(p), index, log_d):
            return False
        prefix += math.log(p)
    return True


def build_weights(spec: SieveSpec, tables: PrimeTables) -> SieveWeight:
    """lambda_d = mu(d) over the support, by descending-chain DFS."""
    zcap = min(int(spec.z + _SLACK), int(spec.D + _SLACK))
    primes = [p for p in tables.primes_upto(zcap).tolist() if spec.prime_set(p)]
    primes.sort(reverse=True)
    log_d = math.log(spec.D) + _SLACK
    logs = {p: math.log(p) for p in primes}
    weight = SieveWeight(spec=spec, values={1: 1})
    check_budget(spec.D * math.log(spec.D + 1), "sieve support enumeration")

    def extend(start_idx: int, product: int, log_prefix: float, index: int, sign: int):
        for i in range(start_idx, len(primes)):
            p = primes[i]
            lp = logs[p]
            if not spec.admits(log_prefix, lp, index, log_d):
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
    arithmetic throughout.  Expected empty.  Claims n_max steps before it
    allocates its three arrays.
    """
    check_budget(n_max, f"sandwich check over n <= {n_max}")
    conv_minus = np.zeros(n_max + 1, dtype=np.int64)
    conv_plus = np.zeros(n_max + 1, dtype=np.int64)
    for weight, conv in ((w_minus, conv_minus), (w_plus, conv_plus)):
        for d, v in weight.values.items():
            if d <= n_max:
                conv[d::d] += v
    coprime = np.ones(n_max + 1, dtype=np.int64)
    # a prime above n_max divides no n checked, so the table need not reach z
    for p in tables.primes_upto(min(int(z + _SLACK), n_max)).tolist():
        if prime_set(p):
            coprime[p::p] = 0
    violated = (conv_minus > coprime) | (coprime > conv_plus)
    violated[0] = False
    return [
        (n, int(conv_minus[n]), int(coprime[n]), int(conv_plus[n]))
        for n in np.flatnonzero(violated).tolist()
    ]


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
    chain = _chain_of(tables, d, spec.z)
    if not _admits_chain(spec, chain):
        raise PreconditionError(f"{d} is not in the sieve support")
    if not lo_exp - _SLACK <= d <= X**rho * (1 + _SLACK):
        raise PreconditionError(f"{d} outside [X^0.1, X^rho]")
    d0_lo = X ** sieve_exponents(spec.degree, delta, eps)[1]
    if not d0_lo * (1 - 1e-9) <= D0 <= X**rho * (1 + 1e-9):
        raise PreconditionError(f"D0={D0} outside the admissible interval")
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
