"""Arc dissection at X = b^k, the progression discrepancy and its weighted
aggregates, exact conservation splits over major/minor arcs, and the
two-squares application counts with the Buchstab split.

The discrepancy measured everywhere below is

    E(X; d, c) = sum_{n < X, n = c (d), n = r (b)} Lambda(n) 1_set(n)
                 - (1/phi(d)) (b/phi(b)) * #(set members < X ending in r),

with the member count exact.  Frequencies t/X are labeled Major3 (exact
fraction with q | X), Major2 (integer offset eta from such a fraction),
Major1 (close to a reduced fraction with q not dividing X) or Minor; a single
t can witness several major conditions, so classification checks Major3,
then Major2, then Major1, scanning q and a in increasing order and taking
the first witness.  That priority is what makes the labels a partition.
The whole-grid codes are painted window by window around each fraction a/q
instead of classifying every t: the kinds are painted in reverse priority,
each over the ones before it, which gives the same first-witness partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from ._budget import check_budget
from .digitset import DigitSystem, contains_array, count, member_mask
from .errors import InternalCheckError, PreconditionError
from .expsums import _phases
from .fourier import spectrum
from .primetables import PrimeTables, _sift_1mod4, totient, units

KIND_MINOR = "Minor"
KIND_M1 = "Major1"
KIND_M2 = "Major2"
KIND_M3 = "Major3"


@dataclass(frozen=True)
class ArcLabel:
    kind: str
    a: int
    q: int
    eta: Optional[float]
    C: float


def _cutoff(X: int, C: float) -> float:
    """The arc cutoff log(X)^C, or inf where the power overflows a float."""
    if math.isnan(C):
        raise PreconditionError("C must be a number")
    try:
        return math.log(X) ** C
    except OverflowError:
        return math.inf


def classify_arc(t: int, X: int, C: float) -> ArcLabel:
    """Label one frequency t/X; deterministic first-witness priority."""
    if not 0 <= t < X:
        raise PreconditionError(f"t={t} not in [0, {X})")
    cutoff = _cutoff(X, C)
    g = math.gcd(t, X)
    q0 = X // g
    if q0 <= cutoff:
        return ArcLabel(KIND_M3, t // g, q0, None, C)
    qmax = int(cutoff)
    for q in range(1, qmax + 1):
        if X % q != 0:
            continue
        step = X // q
        a_lo = max(0, math.ceil((t - cutoff) / step))
        a_hi = min(q - 1, math.floor((t + cutoff) / step))
        for a in range(a_lo, a_hi + 1):
            if math.gcd(a, q) != 1:
                continue
            eta = t - a * step
            if 0 < abs(eta) <= cutoff:
                return ArcLabel(KIND_M2, a, q, float(eta), C)
    for q in range(1, qmax + 1):
        if X % q == 0:
            continue
        a_lo = max(1, math.ceil((t * q - q * cutoff) / X))
        a_hi = min(q - 1, math.floor((t * q + q * cutoff) / X))
        for a in range(a_lo, a_hi + 1):
            if math.gcd(a, q) != 1:
                continue
            if abs(t * q - a * X) <= q * cutoff:
                return ArcLabel(KIND_M1, a, q, None, C)
    return ArcLabel(KIND_MINOR, 0, 0, None, C)


_KIND_CODE = {KIND_MINOR: 0, KIND_M1: 1, KIND_M2: 2, KIND_M3: 3}


def _add_windows(cover: np.ndarray, q: int, scale: int, mod: int,
                 radius: float, a_min: int) -> None:
    """Add the windows of t that the reduced a/q, a_min <= a < q, witness
    by classify_arc's tests to the difference array `cover` (length X + 1):

        a_lo(t) <= a <= a_hi(t),  |t*scale - a*mod| <= radius,
        a_lo(t) = max(a_min, ceil((t*scale - radius) / mod)),
        a_hi(t) = min(q - 1, floor((t*scale + radius) / mod)),

    Major1 is (scale, mod, radius, a_min) = (q, X, q*cutoff, 1); Major2 is
    (1, X/q, cutoff, 0).  The exact test alone gives each a one interval
    [t_lo, t_hi] of t.  The a-window adds nothing: where the exact test
    holds, t*scale - radius <= a*mod <= t*scale + radius, and a*mod and
    t*scale are exact floats (t*scale < X*cutoff < 2^53), so by monotone
    rounding classify_arc's float expressions give a_lo(t) <= a <= a_hi(t).
    """
    X = cover.size - 1
    a = np.flatnonzero(units(q))
    a = a[a >= a_min]
    # |n| <= radius  <=>  |n| <= floor(radius), for an integer n
    bound = math.floor(radius)
    t_lo = np.maximum(0, -((bound - a * mod) // scale))
    t_hi = np.minimum(X - 1, (a * mod + bound) // scale)
    keep = t_lo <= t_hi
    np.add.at(cover, t_lo[keep], 1)
    np.add.at(cover, t_hi[keep] + 1, -1)


@lru_cache(maxsize=4)
def arc_codes(X: int, C: float) -> np.ndarray:
    """Codes 0..3 (minor, M1, M2, M3) for every t < X; cached, read-only.

    The codes order the kinds by priority, so classify_arc's first-witness
    label of t is the highest kind among its witnesses.  The windows around
    the fractions a/q, q <= log(X)^C, are painted in reverse priority, each
    kind over the ones before it: Major1 windows (q not dividing X), then
    Major2 windows (q | X, 0 < |eta| <= cutoff), then Major3 as the strided
    slices codes[::X//q] (q | X).  Each window is one interval of t, found
    with classify_arc's own tests (see _add_windows).  Major2 needs no
    eta != 0 test: eta = 0 at a reduced a/q is a Major3 point, painted over
    last.
    """
    cutoff = _cutoff(X, C)
    check_budget(X * cutoff, f"arc classification at X={X}")
    qmax = int(min(cutoff, X))
    divisors = [q for q in range(1, qmax + 1) if X % q == 0]
    codes = np.zeros(X, dtype=np.int8)
    m1, m2, m3 = (_KIND_CODE[kind] for kind in (KIND_M1, KIND_M2, KIND_M3))
    if qmax < X:  # else q = X makes every t Major3
        cover = np.zeros(X + 1, dtype=np.int64)
        for q in range(2, qmax + 1):
            if X % q:
                _add_windows(cover, q, q, X, q * cutoff, 1)
        codes[np.cumsum(cover[:X]) > 0] = m1
        cover[:] = 0
        for q in divisors:
            _add_windows(cover, q, 1, X // q, cutoff, 0)
        codes[np.cumsum(cover[:X]) > 0] = m2
    for q in divisors:
        codes[:: X // q] = m3
    codes.setflags(write=False)
    return codes


def ramanujan_sum(q: int, a: int) -> complex:
    """sum over reduced residues m mod q of e(-m a / q); equals mu(q) for (a,q)=1."""
    if q < 1:
        raise PreconditionError("q must be >= 1")
    m = np.flatnonzero(units(q))  # m = 0 stands for m = q, reduced only at q = 1
    return complex(_phases(-(m * (a % q) % q) / q).sum())


# -- discrepancy ----------------------------------------------------------------


def _check_limit(tables: PrimeTables, X: int) -> None:
    if X - 1 > tables.limit:
        raise PreconditionError("X exceeds table limit")


def _mask_below(ds: DigitSystem, X: int) -> np.ndarray:
    """The membership mask of the least k with b^k >= X: it covers every n < X."""
    k = 1
    while ds.base**k < X:
        k += 1
    return member_mask(ds, k)


class ProgressionCounts:
    """The member prime powers n < X ending in r and = a (mod q), with their
    log p: every discrepancy E(X; d, c) = lam(d, c) - main(d) reads them.

    Construction checks once that gcd(r, b) = 1, that X = b^k and that X - 1
    is within the table limit.  ns and logs hold the members in increasing
    order; cnt = count(ds, k) counts all members below X ending in r, not only
    prime powers.  mask is the membership mask of [0, X), built once here for
    every row that reads membership; it lives as long as the counts.  A
    modulus q > 1 must be prime to every d read.
    """

    def __init__(self, tables: PrimeTables, ds: DigitSystem, X: int, q: int = 1, a: int = 0):
        b, r = ds.base, ds.residue
        if r is None or math.gcd(r, b) != 1:
            raise PreconditionError("need a residue r with gcd(r, b) = 1")
        self.k = round(math.log(X) / math.log(b))
        if b**self.k != X:
            raise PreconditionError(f"X={X} is not a power of the base {b}")
        _check_limit(tables, X)
        self.tables, self.ds, self.X, self.q, self.a = tables, ds, X, q, a
        self.cnt = count(ds, self.k)
        pp_n, pp_log = tables.prime_powers
        cut = np.searchsorted(pp_n, X, side="left")
        self.mask = member_mask(ds, self.k)
        keep = np.flatnonzero(self.mask[pp_n[:cut]])
        keep = keep[pp_n[keep] % q == a]
        self.ns, self.logs = pp_n[keep], pp_log[keep]

    def lam(self, d: int, c: int) -> float:
        """Sum of log p over the members n = c (mod d), gcd(c, d) = gcd(d, b)
        = 1: a masked (pairwise) sum in member order."""
        if math.gcd(c, d) != 1 or math.gcd(d, self.ds.base) != 1:
            raise PreconditionError("need gcd(c, d) = gcd(d, b) = 1")
        return float(self.logs[self.ns % d == c % d].sum())

    def lam_mod(self, d: int) -> np.ndarray:
        """The member log sums of every residue class mod d by one bincount,
        which sums in another order (the last bit may differ from lam)."""
        return np.bincount(self.ns % d, weights=self.logs, minlength=d)

    def main(self, d: int, s: float = 1) -> float:
        """The main term b cnt s / (phi(q) phi(d) phi(b))."""
        b = self.ds.base
        return b * self.cnt * s / (totient(self.q) * totient(d) * totient(b))

    def E(self, d: int, c: int) -> float:
        """E(X; d, c) = lam(d, c) - main(d)."""
        return self.lam(d, c) - self.main(d)


def discrepancy_E(tables: PrimeTables, ds: DigitSystem, X: int, d: int, c: int) -> float:
    """E(X; d, c) with the exact member count in the main term.

    Each call builds a whole ProgressionCounts: the gather of the member
    prime powers below X and a b^k-byte membership mask.  A loop over moduli
    should build one ProgressionCounts(tables, ds, X) and call its .E(d, c).
    """
    return ProgressionCounts(tables, ds, X).E(d, c)


class Row(NamedTuple):
    d: int
    c: int
    E: float
    weight: float


@dataclass
class DiscrepancyReport:
    weight_kind: str
    rows: list[Row]
    aggregate: float


def _rechecked(counts: ProgressionCounts, rows: list[Row], rel: float = 0.0) -> list[Row]:
    """rows, once the row of largest d is recomputed by another route: the
    prime powers below X in its progressions are taken first and tested for
    membership after, digit by digit rather than from the mask.  That sums
    the same terms in the same order, so a masked-sum row must match
    exactly; rel allows a difference relative to the Lambda side for rows
    summed in another order."""
    if rows:
        row = max(rows, key=lambda row: row.d)
        pp_n, pp_log = counts.tables.prime_powers
        ns = pp_n[: np.searchsorted(pp_n, counts.X, side="left")]
        prog = np.flatnonzero(ns % row.d == row.c)
        prog = prog[ns[prog] % counts.q == counts.a]
        lam = float(pp_log[prog][contains_array(counts.ds, ns[prog])].sum())
        E = lam - counts.main(row.d)
        if abs(E - row.E) > rel * max(1.0, abs(lam)):
            raise InternalCheckError(f"row d={row.d}, c={row.c} has E={row.E}, rechecked {E}")
    return rows


def _rows(counts: ProgressionCounts, kind: str, moduli: list[int], c: int,
          weight: Callable[[int], float] = lambda d: 1.0) -> list[Row]:
    size = counts.ns.size
    check_budget(len(moduli) * size, f"{kind}: {len(moduli)} rows over {size} members")
    return _rechecked(counts, [Row(d, c % d, counts.E(d, c), weight(d)) for d in moduli])


def _abs_max_c(counts: ProgressionCounts, *, D: int) -> list[Row]:
    check_budget(D, f"abs_max_c: listing {D} moduli")
    moduli = [d for d in range(1, D + 1) if math.gcd(d, counts.ds.base) == 1]
    size = counts.ns.size
    steps = len(moduli) * size + sum(moduli)  # and a pass over the residues of each d
    check_budget(steps, f"abs_max_c: {len(moduli)} rows over {size} members")
    rows = []
    for d in moduli:
        e = counts.lam_mod(d) - counts.main(d)
        reduced = np.flatnonzero(units(d))
        c = int(reduced[np.argmax(np.abs(e[reduced]))])  # the first of the largest
        rows.append(Row(d, c, float(e[c]), 1.0))
    return _rechecked(counts, rows, rel=1e-9)


def _fixed_c(counts: ProgressionCounts, *, D: int, c: int) -> list[Row]:
    check_budget(D, f"fixed_c: listing {D} moduli")
    moduli = [d for d in range(1, D + 1) if math.gcd(d, counts.ds.base * c) == 1]
    return _rows(counts, "fixed_c", moduli, c)


def _factorable_pair(counts: ProgressionCounts, *, D1: int, D2: int, c: int) -> list[Row]:
    check_budget(D1 * D2, f"factorable_pair: listing {D1} x {D2} moduli")
    moduli = [d1 * d2 for d1 in range(1, D1 + 1) for d2 in range(1, D2 + 1)
              if math.gcd(d1, d2) == 1 and math.gcd(d1 * d2, counts.ds.base * c) == 1]
    return _rows(counts, "factorable_pair", moduli, c)


def _well_factorable(counts: ProgressionCounts, *, xi: Mapping[int, float], c: int) -> list[Row]:
    moduli = [d for d in sorted(xi) if xi[d] != 0 and math.gcd(d, counts.ds.base * c) == 1]
    return _rows(counts, "well_factorable", moduli, c, lambda d: float(xi[d]))


def _sieve_moduli(counts: ProgressionCounts, weights) -> list[int]:
    return [d for d in weights.support if weights(d) != 0 and math.gcd(d, 2 * counts.ds.base) == 1]


def _sieve_semi(counts: ProgressionCounts, *, weights) -> list[Row]:
    moduli = _sieve_moduli(counts, weights)
    return _rows(counts, "sieve_semi", moduli, 1, lambda d: float(weights(d)))


def _sieve_lin(counts: ProgressionCounts, *, weights, L: int,
               h: Callable[[int], float] = lambda ell: 1.0) -> list[Row]:
    if L < 1:
        raise PreconditionError(f"L must be >= 1, got {L}")
    moduli = _sieve_moduli(counts, weights)
    b, X = counts.ds.base, counts.X
    steps = (len(moduli) + 1) * L  # each row and the term build walk every ell
    check_budget(steps, f"sieve_lin: {len(moduli)} rows over {L} values of ell")
    pp_n, pp_log = counts.tables.prime_powers
    # Per ell: the values 2 ell n + 1 over prime powers n with ell n = 1
    # (mod 4) that are members, with the log p of n; each d below sums a
    # subset of them in the same order.
    terms = []
    for ell in range(L + 1, 2 * L + 1):
        h_ell = h(ell) if math.gcd(ell, 2 * b) == 1 else 0
        if h_ell == 0:
            continue
        cut = _lin_cut(pp_n, X, ell)
        nn = pp_n[:cut]
        mod4 = (ell * nn) % 4 == 1
        vals = 2 * ell * nn[mod4] + 1
        member = counts.mask[vals]
        terms.append((ell, h_ell, vals[member], pp_log[:cut][mod4][member]))
    size = sum(term[2].size for term in terms)
    check_budget(len(moduli) * size + steps, f"sieve_lin: {len(moduli)} rows over {size} members")
    rows = []
    for d in moduli:
        inner = main_sum = 0.0
        for ell, h_ell, vals, val_logs in terms:
            if math.gcd(ell, d) == 1:
                main_sum += h_ell / ell
            keep = vals % d == 0
            if keep.any():
                inner += h_ell * float(val_logs[keep].sum())
        # l n = 1 (mod 4) holds a quarter of the main term (an exact division)
        rows.append(Row(d, -1 % d, inner - counts.main(d, main_sum / 4), float(weights(d))))
    return _rechecked_lin(counts, rows, [(ell, h_ell) for ell, h_ell, *_ in terms])


def _lin_cut(pp_n: np.ndarray, X: int, ell: int) -> int:
    """The prime powers n with 2 ell n + 1 <= X - 1: the value X itself would
    index past a mask of length X (it is never a member, as gcd(r, b) = 1)."""
    return int(np.searchsorted(pp_n, (X - 2) // (2 * ell), side="right"))


def _rechecked_lin(counts: ProgressionCounts, rows: list[Row],
                   ells: list[tuple[int, float]]) -> list[Row]:
    """sieve_lin's rows, once the row of largest d is recomputed per (d, ell)
    pair: the values 2 ell n + 1 divisible by d are taken first and tested for
    membership after, digit by digit rather than from the mask; the two may
    differ by 1e-9 relative to the Lambda side."""
    if rows:
        row = max(rows, key=lambda row: row.d)
        pp_n, pp_log = counts.tables.prime_powers
        X = counts.X
        cuts = [_lin_cut(pp_n, X, ell) for ell, _ in ells]
        check_budget(sum(cuts), f"sieve_lin: recheck of d={row.d} over {len(ells)} values of ell")
        inner = main_sum = 0.0
        for (ell, h_ell), cut in zip(ells, cuts):
            if math.gcd(ell, row.d) == 1:
                main_sum += h_ell / ell
            nn = pp_n[:cut]
            keep = ((2 * ell * nn + 1) % row.d == 0) & ((ell * nn) % 4 == 1)
            if keep.any():
                member = contains_array(counts.ds, 2 * ell * nn[keep] + 1)
                inner += h_ell * float(pp_log[:cut][keep][member].sum())
        E = inner - counts.main(row.d, main_sum / 4)
        if abs(E - row.E) > 1e-9 * max(1.0, abs(inner)):
            raise InternalCheckError(f"row d={row.d}, c={row.c} has E={row.E}, rechecked {E}")
    return rows


# kind -> (its rows, whether the aggregate sums |E| rather than weight * E,
# the progression n = a (mod q) that its members keep)
_KINDS = {
    "abs_max_c": (_abs_max_c, True, ()),
    "fixed_c": (_fixed_c, True, ()),
    "factorable_pair": (_factorable_pair, True, ()),
    "well_factorable": (_well_factorable, False, ()),
    "sieve_semi": (_sieve_semi, False, (8, 3)),
    "sieve_lin": (_sieve_lin, False, ()),
}


def weighted_discrepancy(
    tables: PrimeTables, ds: DigitSystem, X: int, weight_kind: str, **params
) -> DiscrepancyReport:
    """One equidistribution-style weighted aggregate of discrepancies.

    abs_max_c:        sum_{d <= D, (d,b)=1} max over reduced c of |E(X;d,c)|
    fixed_c:          sum_{d <= D, (d,bc)=1} |E(X;d,c)|
    factorable_pair:  sum_{d1 <= D1} sum_{d2 <= D2} |E(X;d1 d2,c)| over
                      (c,d1d2) = (b,d1d2) = (d1,d2) = 1
    well_factorable:  sum_d xi(d) E(X;d,c) over (d,bc)=1
    sieve_semi:       sum_d lambda^-(d) [Lambda-count over n=1 (d), n=3 (8)
                      minus (1/(4 phi(d)))(b/phi(b)) count] over (d,2b)=1
    sieve_lin:        sum_d lambda^+(d) [two-variable count over 2 l n + 1
                      minus its (1/(4 phi(d)))(b/phi(b)) main term]

    The names above are keywords; the sieve kinds take `weights`, sieve_lin
    also L >= 1 and h (default 1).  Each kind claims rows x members from the
    budget and rechecks its row of largest d by another route.
    """
    if weight_kind not in _KINDS:
        raise PreconditionError(f"unknown weight kind {weight_kind!r}")
    rows_of, absolute, progression = _KINDS[weight_kind]
    rows = rows_of(ProgressionCounts(tables, ds, X, *progression), **params)
    aggregate = sum(abs(row.E) if absolute else row.weight * row.E for row in rows)
    return DiscrepancyReport(weight_kind, rows, float(aggregate))


# -- conservation split over arcs ------------------------------------------------


@dataclass
class ArcSplit:
    major1: complex
    major2: complex
    major3: complex
    minor: complex
    direct: float
    main_term: float
    residual: float

    @property
    def major(self) -> complex:
        return self.major1 + self.major2 + self.major3


def arc_split(
    tables: PrimeTables, ds: DigitSystem, X: int, d: int, c: int, C: float
) -> ArcSplit:
    """Split (1/X) sum_t hat1(t/X) LambdaHat_{d,c}(-t/X) by arc kind.

    The four partial sums must recombine to the direct progression count;
    the relative residual is checked against 1e-5 and returned.
    """
    counts = ProgressionCounts(tables, ds, X)
    direct, main_term = counts.lam(d, c), counts.main(d)
    check_budget(X * max(1.0, math.log2(X)), f"arc split FFT at X={X}")
    hat = spectrum(ds, counts.k)
    lam = tables.mangoldt_range(X)
    masked = np.where(np.arange(X) % d == c % d, lam, 0.0)
    lam_hat_neg = np.fft.fft(masked)  # index t holds LambdaHat_{d,c}(-t/X)
    terms = hat * lam_hat_neg / X
    codes = arc_codes(X, C)
    sums = [complex(terms[codes == code].sum()) for code in (1, 2, 3, 0)]
    recombined = sum(sums).real
    residual = abs(recombined - direct) / max(1.0, abs(direct))
    if residual > 1e-5:
        raise InternalCheckError(f"arc split lost mass: recombined {recombined} vs direct {direct}")
    return ArcSplit(sums[0], sums[1], sums[2], sums[3], direct, main_term, residual)


# -- application counts -----------------------------------------------------------


def count_missing_digit_primes(
    tables: PrimeTables, ds: DigitSystem, X: int
) -> tuple[int, float]:
    """(#primes p < X in the digit set, kappa X^zeta / log X)."""
    if X < 2:
        raise PreconditionError("X must be >= 2")
    _check_limit(tables, X)
    primes = tables.primes_upto(X - 1)
    cnt = int(_mask_below(ds, X)[primes].sum())
    predicted = float(ds.kappa) * X**ds.zeta / math.log(X)
    return cnt, predicted


class BuchstabResult(NamedTuple):
    S: int
    T: int
    total: int
    app_count: int
    predicted_scale: float
    z: float


def buchstab_and_app(
    tables: PrimeTables, ds: DigitSystem, X: int, alpha: float
) -> BuchstabResult:
    """Partition the sifted count of shifted primes by least excluded factor.

    Over primes p < X with p = 3 (mod 8) ending in r and avoiding the digit:
    S counts p - 1 free of sieve primes (= 3 mod 4, not dividing b) up to
    z = X^(1/alpha), total the same up to sqrt(X), and T = S - total those
    whose least sieve factor lies in (z, sqrt X].  Both come from one sift of
    m = (p - 1) / 2 < X / 2 by the sieve primes, read after the primes up to z
    and again after those up to sqrt(X).  app_count drops the mod-8
    restriction and counts p - 1 in B, read off in_bcal_array at (p - 1) / 2,
    a sift by all primes = 3 (mod 4); every p in total is checked to be
    counted there too.  predicted_scale is X^zeta / (log X)^(3/2).
    """
    b, r = ds.base, ds.residue
    if b % 2 == 0:
        raise PreconditionError("base must be odd here")
    if r is None or math.gcd(r * (r - 1), b) != 1:
        raise PreconditionError("need a residue r with gcd(r(r-1), b) = 1")
    _check_limit(tables, X)
    if not alpha > 2:
        raise PreconditionError("alpha must exceed 2")
    z = X ** (1.0 / alpha)
    primes = tables.primes_upto(X - 1)
    members = primes[_mask_below(ds, X)[primes]]
    half = members[members > 2] // 2  # m = (p - 1) / 2; p - 1 is in B iff m is in Bcal
    in_bcal = tables.in_bcal_array(X // 2)
    app_count = int(in_bcal[half].sum()) + members.size - half.size  # p = 2: 1 is in B
    m = half[half % 4 == 1]  # p = 3 (mod 8)
    sieve = tables.primes_upto(math.isqrt(X))
    sieve = sieve[(sieve % 4 == 3) & (b % sieve != 0)]
    free = np.ones(X // 2, dtype=bool)  # read only at the m = 1 (mod 4)
    _sift_1mod4(free, sieve[sieve <= z])
    S = int(free[m].sum())
    _sift_1mod4(free, sieve[sieve > z])
    total = int(free[m].sum())
    outside = m[free[m] & ~in_bcal[m]]
    if outside.size:
        raise InternalCheckError(
            f"sifted prime p={2 * int(outside[0]) + 1} has p-1 outside the primitive class"
        )
    predicted = X**ds.zeta / math.log(X) ** 1.5
    return BuchstabResult(S, S - total, total, app_count, predicted, z)
