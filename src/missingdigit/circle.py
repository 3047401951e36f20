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
The whole-grid codes are painted, not classified t by t: Major1 window by
window around each fraction a/q, then Major2 and Major3 on the rows of the
grid that start at the points a X/q, each kind over the ones before it, which
gives the same first-witness partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from ._budget import SCAN_BLOCK, check_budget
from .digitset import DigitSystem, contains_array, count, member_mask
from .errors import InternalCheckError, PreconditionError
from .expsums import _add_in_order, _phases
from .fourier import _fft_steps, spectrum
from .primetables import PrimeTables, _sift_1mod4, in_class, mod, reduced_fractions, totient, units
from .sieveweights import sifting_prime

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


def _major1_cover(X: int, cutoff: float, qs: np.ndarray) -> np.ndarray:
    """Bool over t < X: True where |t q - a X| <= q cutoff for a reduced a/q,
    1 <= a <= q/2, q in qs (for an integer, |n| <= radius iff |n| <= floor(radius)).
    Each block of fractions adds its window starts and ends to one difference
    array by bincount.  The window of a/q holds floor(a X / q), which lies in
    [0, X), so clipped to [0, X) it still starts no later than it ends."""
    bound = np.floor(np.arange(qs.max(initial=0) + 1) * cutoff).astype(np.int64)
    cover = np.zeros(X, dtype=np.int64)
    for q, a in reduced_fractions(qs, half=True):
        aX, r = a * X, bound[q]
        cover += np.bincount(np.maximum(-((r - aX) // q), 0), minlength=X)
        cover -= np.bincount((aX + r) // q + 1, minlength=X)[:X]  # ends past X - 1 close nothing
    return np.cumsum(cover) > 0


def arc_split_claims(X: int, C: float) -> tuple[tuple[float, str], tuple[float, str]]:
    """The budget claims (steps, what) of arc_split at X: arc_codes' classification,
    then the FFT.  A caller that builds a table for the split makes both first."""
    return ((X * _cutoff(X, C), f"arc classification at X={X}"),
            (_fft_steps(X), f"arc split FFT at X={X}"))


def arc_codes(X: int, C: float) -> np.ndarray:
    """Codes 0..3 (minor, M1, M2, M3) for every t < X.

    The codes order the kinds by priority, so classify_arc's first-witness
    label of t is the highest kind among its witnesses; the kinds are painted
    in reverse priority, each over the ones before it, for q <= log(X)^C.
    Major1 (q not dividing X) is one pass over the reduced fractions with
    a <= q/2 (primetables.reduced_fractions): t lies in the window of a/q
    exactly when X - t lies in that of (q - a)/q, so the rest is the mirror
    image (t = 0, whose mirror X is off the grid, is Major3 from q = 1).  Each
    window is the one interval of t where classify_arc's exact test holds; its
    a-window adds nothing, since a X and t q are exact floats (t q < X cutoff
    < 2^53), so by monotone rounding classify_arc's float expressions put a in
    its window.  Major2 and Major3 (q | X) read no fractions: per divisor q the
    grid is q rows of X/q, row a starting at a X/q.  Major2 covers the first
    floor(cutoff) + 1 and the last floor(cutoff) columns of the rows, but not
    the last row's end (a = q is no fraction); Major3 then covers the row
    starts codes[::X//q], so Major2 needs no eta != 0 test.  Painting every a,
    reduced or not, adds nothing: a/q is a'/q' for a divisor q' of q.
    """
    cutoff = _cutoff(X, C)
    check_budget(*arc_split_claims(X, C)[0])
    qmax = int(min(cutoff, X))
    qs = np.arange(1, qmax + 1, dtype=np.int64)
    divides = X % qs == 0
    divisors = qs[divides].tolist()
    m1, m2, m3 = (np.int8(_KIND_CODE[kind]) for kind in (KIND_M1, KIND_M2, KIND_M3))
    codes = np.zeros(X, dtype=np.int8)
    if qmax < X:  # else q = X makes every t Major3
        half = _major1_cover(X, cutoff, qs[~divides])
        codes[half | np.roll(half[::-1], 1)] = m1  # t from a/q, X - t from (q - a)/q
        r = math.floor(cutoff)  # >= 1 once q = 1 <= cutoff
        for q in divisors:
            rows = codes.reshape(q, X // q)
            rows[:, : r + 1] = m2
            rows[:-1, -r:] = m2
    for q in divisors:
        codes[:: X // q] = m3
    return codes


def ramanujan_sum(q: int, a: int) -> complex:
    """sum over reduced residues m mod q of e(-m a / q); equals mu(q) for (a,q)=1."""
    if q < 1:
        raise PreconditionError("q must be >= 1")
    m = np.flatnonzero(units(q))  # m = 0 stands for m = q, reduced only at q = 1
    return complex(_phases(-mod(m * (a % q), q) / q).sum())


# -- discrepancy ----------------------------------------------------------------


def _digits(b: int, X: int) -> int:
    """The least k >= 1 with b^k >= X: the masks of k digits cover every n < X."""
    k = 1
    while b**k < X:
        k += 1
    return k


def _member_primes(tables: PrimeTables, ds: DigitSystem, X: int) -> np.ndarray:
    """The primes p < X in the digit set, read from the table before the mask is built."""
    primes = tables.primes_upto(X - 1)
    return primes[member_mask(ds, _digits(ds.base, X))[primes]]


class ProgressionCounts:
    """The member prime powers n < X ending in r and = a (mod q), with their
    log p: every discrepancy E(X; d, c) = lam(d, c) - main(d) reads them.

    Construction checks once that gcd(r, b) = 1, that X = b^k and that X - 1
    is within the table limit.  ns and logs hold the members in increasing
    order; cnt = count(ds, k) counts all members below X ending in r, not only
    prime powers.  mask is the membership mask of [0, X), built once here for
    every row that reads membership; it lives as long as the counts.  A
    modulus q > 1 must be prime to every d read; main refuses any other d.
    The member classes take q and d past int64; the main term still factors
    them.
    """

    def __init__(self, tables: PrimeTables, ds: DigitSystem, X: int, q: int = 1, a: int = 0):
        b, r = ds.base, ds.residue
        if r is None or math.gcd(r, b) != 1:
            raise PreconditionError("need a residue r with gcd(r, b) = 1")
        self.k = _digits(b, X)
        if b**self.k != X:
            raise PreconditionError(f"X={X} is not a power of the base {b}")
        ns, logs = tables.prime_powers_upto(X - 1)
        self.tables, self.ds, self.X, self.q, self.a = tables, ds, X, q, a
        self.cnt = count(ds, self.k)
        self.mask = member_mask(ds, self.k)
        keep = np.flatnonzero(self.mask[ns])  # the mask first: it keeps the fewer
        self.ns, self.logs = self._in_progression(ns[keep], logs[keep])

    def _in_progression(self, ns: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """ns and their logs at the n = a (mod q); at q = 1 all, with no class pass."""
        keep = in_class(ns, self.q, self.a) if self.q > 1 else slice(None)
        return ns[keep], logs[keep]

    def lam(self, d: int, c: int) -> float:
        """Sum of log p over the members n = c (mod d), gcd(c, d) = gcd(d, b)
        = 1: a masked (pairwise) sum in member order."""
        if math.gcd(c, d) != 1 or math.gcd(d, self.ds.base) != 1:
            raise PreconditionError("need gcd(c, d) = gcd(d, b) = 1")
        return float(self.logs[in_class(self.ns, d, c)].sum())

    def lam_mod(self, d: int) -> np.ndarray:
        """The member log sums of every residue class mod d by one bincount
        over the residues from mod, which sums in another order (the last bit
        may differ from lam)."""
        return np.bincount(mod(self.ns, d), weights=self.logs, minlength=d)

    def main(self, d: int, s: float = 1) -> float:
        """The main term b cnt s / (phi(q) phi(d) phi(b)), which needs gcd(d, q) = 1."""
        if math.gcd(d, self.q) != 1:
            raise PreconditionError(f"need gcd(d, q) = 1, got d={d}, q={self.q}")
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


def _recounted(counts: ProgressionCounts, row: Row) -> tuple[float, float]:
    """The Lambda side of row and its main-term share 1: the prime powers in its progressions,
    then membership digit by digit, not from the mask, per SCAN_BLOCK slice of the record
    (the scratch is a slice and the kept logs): the masked sum's terms, in its order."""
    ns, logs = counts.tables.prime_powers_upto(counts.X - 1)
    kept = []
    for lo in range(0, ns.size, SCAN_BLOCK):
        n, log = ns[lo : lo + SCAN_BLOCK], logs[lo : lo + SCAN_BLOCK]
        keep = in_class(n, row.d, row.c)
        n, log = counts._in_progression(n[keep], log[keep])
        kept.append(log[contains_array(counts.ds, n)])
    return float(np.concatenate(kept).sum()), 1


def _rechecked(counts: ProgressionCounts, rows: list[Row], rel: float = 0.0,
               recount: Callable[..., tuple[float, float]] = _recounted) -> list[Row]:
    """rows, once the row of largest d is recomputed by another route: recount
    gives its Lambda side lam and main-term share s, and lam - main(d, s) must
    be its E within rel * max(1, |lam|) (0: the same sum in the same order)."""
    if rows:
        row = max(rows, key=lambda row: row.d)
        lam, share = recount(counts, row)
        E = lam - counts.main(row.d, share)
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


def _lin_powers(counts: ProgressionCounts, ell: int, d: int = 1, c: int = 0):
    """The prime powers n = c (mod d) with 2 ell n + 1 < X, and their log p: the value X
    would index past a mask of length X (and is never a member, as gcd(r, b) = 1)."""
    return counts.tables.prime_powers_upto((counts.X - 2) // (2 * ell), d, c)


def _lin_values(ell: int, nn: np.ndarray) -> np.ndarray:
    return 2 * ell * nn + 1


def _lin_share(ells: np.ndarray, hs: np.ndarray, d: int) -> float:
    """The main-term share: ell n = 1 (mod 4) holds (1/4) sum h(ell)/ell over the ell prime to d."""
    return _add_in_order(0.0, (hs / ells)[np.gcd(ells, d) == 1]) / 4


def _sieve_lin(counts: ProgressionCounts, *, weights, L: int,
               h: Callable[[int], float] = lambda ell: 1.0) -> list[Row]:
    if L < 1:
        raise PreconditionError(f"L must be >= 1, got {L}")
    moduli = _sieve_moduli(counts, weights)
    steps = (len(moduli) + 1) * L  # each row and the term build walk every ell
    check_budget(steps, f"sieve_lin: {len(moduli)} rows over {L} values of ell")
    kept = [ell for ell in range(L + 1, 2 * L + 1) if math.gcd(ell, 2 * counts.ds.base) == 1]
    hs = np.array([h(ell) for ell in kept], dtype=np.float64)
    ells, hs = np.array(kept, dtype=np.int64)[hs != 0], hs[hs != 0]
    members = []  # per ell, its member values and log p: each d sums a subset, in order
    for ell in ells.tolist():
        nn, logs = _lin_powers(counts, ell, 4, ell)  # ell is odd: ell n = 1 (4) is n = ell (4)
        vals = _lin_values(ell, nn)
        member = counts.mask[vals]
        members.append((vals[member], logs[member]))
    size = sum(vals.size for vals, _ in members)
    check_budget(len(moduli) * size + steps, f"sieve_lin: {len(moduli)} rows over {size} members")
    rows = []
    for d in moduli:
        inner = 0.0
        for h_ell, (vals, val_logs) in zip(hs.tolist(), members):
            keep = in_class(vals, d, 0)
            if keep.any():
                inner += h_ell * float(val_logs[keep].sum())
        E = inner - counts.main(d, _lin_share(ells, hs, d))
        rows.append(Row(d, -1 % d, E, float(weights(d))))
    return _rechecked(counts, rows, 1e-9, lambda counts, row: _lin_recounted(counts, row, ells, hs))


def _lin_recounted(counts: ProgressionCounts, row: Row, ells, hs) -> tuple[float, float]:
    """sieve_lin's Lambda side of row and its main-term share, per (d, ell): the values
    divisible by d with ell n = 1 (mod 4) first, then membership digit by digit."""
    ranges = [_lin_powers(counts, ell) for ell in ells.tolist()]
    size = sum(nn.size for nn, _ in ranges)
    check_budget(size, f"sieve_lin: recheck of d={row.d} over {ells.size} values of ell")
    inner = 0.0
    for ell, h_ell, (nn, logs) in zip(ells.tolist(), hs.tolist(), ranges):
        vals = _lin_values(ell, nn)
        keep = in_class(vals, row.d, 0) & in_class(ell * nn, 4, 1)
        if keep.any():
            inner += h_ell * float(logs[keep][contains_array(counts.ds, vals[keep])].sum())
    return inner, _lin_share(ells, hs, row.d)


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
    sums: dict[str, complex]  # kind -> its partial sum: Major1, Major2, Major3, Minor
    census: dict[str, int]  # kind -> its frequencies t < X
    direct: float
    main_term: float
    residual: float

    @property
    def major(self) -> complex:
        return self.sums[KIND_M1] + self.sums[KIND_M2] + self.sums[KIND_M3]


def arc_split(
    tables: PrimeTables, ds: DigitSystem, X: int, d: int, c: int, C: float
) -> ArcSplit:
    """Split (1/X) sum_t hat1(t/X) LambdaHat_{d,c}(-t/X) by arc kind.

    The four partial sums must recombine to the direct progression count;
    the relative residual is checked against 1e-5 and returned with the census.
    """
    codes = arc_codes(X, C)
    census = {kind: int(np.count_nonzero(codes == code)) for kind, code in _KIND_CODE.items()}
    check_budget(*arc_split_claims(X, C)[1])
    counts = ProgressionCounts(tables, ds, X)
    direct, main_term = counts.lam(d, c), counts.main(d)
    hat = spectrum(ds, counts.k)
    ns, logs = tables.prime_powers_upto(X - 1, d, c)
    masked = np.zeros(X)
    masked[ns] = logs
    lam_hat_neg = np.fft.fft(masked)  # index t holds LambdaHat_{d,c}(-t/X)
    terms = hat * lam_hat_neg / X
    sums = {kind: complex(terms[codes == _KIND_CODE[kind]].sum())
            for kind in (KIND_M1, KIND_M2, KIND_M3, KIND_MINOR)}
    recombined = sum(sums.values()).real
    residual = abs(recombined - direct) / max(1.0, abs(direct))
    if residual > 1e-5:
        raise InternalCheckError(f"arc split lost mass: recombined {recombined} vs direct {direct}")
    return ArcSplit(sums, census, direct, main_term, residual)


# -- application counts -----------------------------------------------------------


def count_missing_digit_primes(
    tables: PrimeTables, ds: DigitSystem, X: int
) -> tuple[int, float]:
    """(#primes p < X in the digit set, kappa X^zeta / log X)."""
    if X < 2:
        raise PreconditionError("X must be >= 2")
    cnt = _member_primes(tables, ds, X).size
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
    z = X^(1/alpha), total the same up to sqrt(X), and T those whose least
    sieve factor lies in (z, sqrt X].  S and total come from one sift of
    m = (p - 1) / 2 < X / 2 by the sieve primes, read after the primes up to z
    and again after those up to sqrt(X); T counts the survivors of the first
    read that some sieve prime in (z, sqrt X] divides, and S = T + total is
    checked.  app_count drops the mod-8 restriction and counts p - 1 in B,
    read off in_bcal_array at (p - 1) / 2, a sift by all primes = 3 (mod 4);
    every p in total is checked to be counted there too.  predicted_scale is
    X^zeta / (log X)^(3/2).
    """
    b, r = ds.base, ds.residue
    if b % 2 == 0:
        raise PreconditionError("base must be odd here")
    if r is None or math.gcd(r * (r - 1), b) != 1:
        raise PreconditionError("need a residue r with gcd(r(r-1), b) = 1")
    if not alpha > 2:
        raise PreconditionError("alpha must exceed 2")
    z = X ** (1.0 / alpha)
    members = _member_primes(tables, ds, X)
    half = members[members > 2] // 2  # m = (p - 1) / 2; p - 1 is in B iff m is in Bcal
    in_bcal = tables.in_bcal_array(X // 2)
    app_count = int(in_bcal[half].sum()) + members.size - half.size  # p = 2: 1 is in B
    m = half[in_class(half, 4, 1)]  # p = 3 (mod 8)
    sieve = tables.primes_upto(math.isqrt(X))
    sieve = sieve[sifting_prime(sieve, b)]
    large = sieve[sieve > z]
    free = np.ones(X // 2, dtype=bool)  # read only at the m = 1 (mod 4)
    _sift_1mod4(free, sieve[sieve <= z])
    survivors = m[free[m]]
    _sift_1mod4(free, large)
    total = int(free[m].sum())
    divided = np.zeros(survivors.size, dtype=bool)  # T by its own route: p | m for a large p
    for p in large.tolist():
        divided |= in_class(survivors, p, 0)
    S, T = survivors.size, int(divided.sum())
    if S != T + total:
        raise InternalCheckError(f"Buchstab split S={S} is not T + total = {T} + {total}")
    outside = m[free[m] & ~in_bcal[m]]
    if outside.size:
        raise InternalCheckError(
            f"sifted prime p={2 * int(outside[0]) + 1} has p-1 outside the primitive class"
        )
    predicted = X**ds.zeta / math.log(X) ** 1.5
    return BuchstabResult(S, T, total, app_count, predicted, z)
