"""Property tests: the array kernels against per-element references.

Frequency grid: painted arc codes against classify_arc, the tiled spectrum
against the defining Fourier sum, the FFT inversion against membership and
the batched hybrid sum against the per-point loop.  Progression layer: the
membership mask against scalar contains, tables sliced from the shared sieve
(made before or after a larger one) against a fresh build, the sieve's
primes, the factorization helper and every PrimeTables method that reads it
(prime_powers_upto among them, for y from -1 past the limit and moduli up to
60) against trial division in oracles.py, the int64 remainder helper and
in_class against Python's floor division from INT64_MIN to INT64_MAX (and
in_class past int64), the quadratic classes against the scalar
classifiers, the weighted discrepancy rows against discrepancy_E
(the bincount rows of abs_max_c to 1e-9 relative), and the linear-sieve
rows and the Buchstab split against the per-(d, ell) and per-prime loops
they replace.  Kernels: the unit phases against the
complex exponential of the float remainder, bit for bit, the Vaughan arrays
and strided sums, the min-function and Weyl sums, the sandwich rows, the member enumeration
and the two-squares brute force against the per-element loops in oracles.py,
compared exactly; the bilinear sum, the Type I max over residues and the
digit-product eval_hat against their loops in oracles.py to 1e-12 relative
(numpy's cos/sin need not equal math's, and the sums run in another order),
including products m n past 2^63 and q past 3.04e9; rank/unrank round trips.
The digit and progression systems also draw the large bases of the paper's
regime (101, 317, 1001), at k = 1 or 2 within each test's X."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from missingdigit import (
    DigitSystem, PreconditionError, PrimeTables, SieveSpec, SieveWeight, ThetaApprox,
    bilinear_sum, buchstab_and_app, build_weights, classify_arc, cli, contains,
    dirichlet_approx, discrepancy_E, eval_hat, expsums, fourier, hybrid_sum, linear_upper,
    members, mikawa_w, min_sum, primetables, rank, sandwich_check, unrank, vaughan_decompose,
    weighted_discrepancy,
)
from missingdigit.circle import _KIND_CODE, arc_codes
from missingdigit.cli import _brute_primitive_marks
from missingdigit.digitset import contains_array, member_mask
from missingdigit.expsums import type_one_max
from missingdigit.fourier import inversion_max_error, spectrum


# bases near 100 and 1000, the paper's regime: k = 1 or 2 at X <= 10^5
LARGE_BASES = (101, 317, 1001)


@st.composite
def grid_sizes(draw, bases, max_X):
    b = draw(st.sampled_from([b for b in bases if b <= max_X]))
    k = draw(st.integers(1, int(math.log(max_X) / math.log(b) + 1e-9)))
    return b, k


@st.composite
def digit_systems(draw, max_X):
    b, k = draw(grid_sizes((3, 4, 5, 7, 10) + LARGE_BASES, max_X))
    a0 = draw(st.integers(1, b - 1))
    r = draw(st.one_of(st.none(), st.sampled_from([d for d in range(b) if d != a0])))
    return DigitSystem(b, a0, r), k


@given(grid_sizes((2, 3, 5, 7, 10), 2 * 10**4), st.floats(0.5, 3.0), st.randoms())
@example((10, 3), 0.0, random.Random(0))  # cutoff exactly 1: |eta| <= cutoff at equality
def test_painted_arc_codes_match_classify_arc(size, C, rng):
    b, k = size
    X = b**k
    codes = arc_codes(X, C)
    ts = range(X) if X <= 1000 else [*range(5), *range(X - 5, X), *rng.sample(range(X), 300)]
    for t in ts:
        assert codes[t] == _KIND_CODE[classify_arc(t, X, C).kind], (X, C, t)


@given(digit_systems(1000), st.randoms())
def test_tiled_spectrum_matches_defining_sum(system, rng):
    ds, k = system
    X = ds.base**k
    spec = spectrum(ds, k)
    for t in {0, *rng.sample(range(X), min(X, 40))}:
        want = oracles.brute_hat(ds.base, ds.excluded, k, t / X, ds.residue)
        assert spec[t] == pytest.approx(want, rel=1e-9, abs=1e-9), (ds, k, t)


@given(digit_systems(5 * 10**4))
def test_fft_inversion_matches_membership(system):
    ds, k = system
    assert inversion_max_error(ds, k) <= 1e-9


def test_fft_inversion_against_scalar_membership():
    ds, k = DigitSystem(3, 1, 2), 5

    def member(ds, ns):
        return np.array([contains(ds, int(n)) for n in ns])

    with mock.patch.object(fourier, "contains_array", member):
        assert inversion_max_error(ds, k) <= 1e-9
    # a wrong indicator (shifted by one) must show up as an error of 1
    with mock.patch.object(fourier, "contains_array", lambda ds, ns: member(ds, (ns + 1) % 3**k)):
        assert inversion_max_error(ds, k) == pytest.approx(1.0)


def per_point_hybrid(ds, k, Q, B):
    """The scalar (q, a, t) loop that hybrid_sum batches."""
    X = ds.base**k
    hat_abs = np.abs(spectrum(ds, k))
    total, points = 0.0, 0
    for q in range(Q + 1, 2 * Q + 1):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            center = X * a / q
            for t in range(math.floor(center - B) + 1, math.ceil(center + B)):
                if abs(t - center) < B:
                    total += float(hat_abs[t % X])
                    points += 1
    return total, points


@given(digit_systems(10**4).filter(lambda s: s[0].residue is not None),
       st.integers(1, 12), st.integers(1, 40), st.sampled_from([1, 5, 64, 1 << 17]))
def test_batched_hybrid_matches_per_point_loop(system, Q, B, chunk):
    ds, k = system
    with mock.patch.object(primetables, "SCAN_BLOCK", chunk):
        got = hybrid_sum(ds, k, Q, B)
    value, points = per_point_hybrid(ds, k, Q, B)
    assert got["points"] == points
    assert got["value"] == pytest.approx(value, rel=1e-12, abs=1e-12)


# -- progression layer -------------------------------------------------------------

@given(st.sampled_from((3, 4, 5, 7, 10)), st.data())
def test_contains_array_matches_contains(b, data):
    a0 = data.draw(st.integers(0, b - 1))  # a0 = 0: a leading zero is not a digit
    r = data.draw(st.one_of(st.none(), st.sampled_from([d for d in range(b) if d != a0])))
    ds = DigitSystem(b, a0, r)
    ns = data.draw(st.lists(st.integers(0, 10**7), max_size=200)) + list(range(2 * b * b))
    got = contains_array(ds, np.array(ns, dtype=np.int64))
    assert got.tolist() == [contains(ds, n) for n in ns]


@given(st.sampled_from((3, 4, 5, 7, 10)), st.integers(1, 5), st.data())
def test_member_mask_matches_contains(b, k, data):
    a0 = data.draw(st.integers(0, b - 1))  # a0 = 0: a leading zero is not a digit
    r = data.draw(st.one_of(st.none(), st.sampled_from([d for d in range(b) if d != a0])))
    ds = DigitSystem(b, a0, r)
    mask = member_mask(ds, k)
    assert mask.tolist() == [contains(ds, n) for n in range(b**k)]
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


@given(st.integers(2, 3000), st.integers(0, 10**5))
@example(2, 0)
def test_tables_sliced_from_the_shared_sieve_equal_a_fresh_build(small, extra):
    fresh = primetables._build_sieve(small)
    with mock.patch.object(primetables, "_held", primetables._build_sieve(2)):
        before = PrimeTables(small)
        PrimeTables(small + extra)
        after = PrimeTables(small)
        held = primetables._held
    assert held.limit == small + extra
    for arr in held[1:]:
        assert not arr.flags.writeable
    for tables in (before, after):
        pp_n, pp_log = tables.prime_powers
        assert np.array_equal(tables.primes, primetables._odd_sieve_primes(small))
        assert np.array_equal(pp_n, fresh.pp_n) and np.array_equal(pp_log, fresh.pp_log)
        assert pp_n.tolist() == [n for n in range(2, small + 1) if len(primetables.factor(n)) == 1]
        for arr in (tables.primes, pp_n, pp_log):
            assert not arr.flags.writeable


SQUARES_OF_PRIMES = [p * p + e for p in (2, 3, 5, 7, 11, 13, 31, 53, 67) for e in (-1, 0, 1)]


@given(st.one_of(st.integers(2, 5000), st.sampled_from(SQUARES_OF_PRIMES)))
@example(2)
@example(3)
@example(4)
@example(5000)
def test_spf_table_matches_trial_division(limit):
    tables = PrimeTables(limit)
    assert tables.primes.tolist() == oracles.primes_upto(limit)
    spf = [tables.factor(n)[0][0] for n in range(2, limit + 1)]
    assert spf == [oracles.least_prime_factor(n) for n in range(2, limit + 1)]


# n = 1, the squares of primes +- 1, and n past the 3000-table below: larger
# prime squares +- 1, primes near 10^6 and a product of two primes near 1000
FACTOR_EDGES = [1, 2, 3] + SQUARES_OF_PRIMES + [
    p * p + e for p in (1009, 3001, 9973) for e in (-1, 0, 1)
] + [999983, 1000003, 1009 * 1013]


@given(st.one_of(st.integers(1, 20000), st.sampled_from(FACTOR_EDGES)))
@example(1)
@example(4)
@example(3001 * 3001)
@example(1000003)
def test_factor_matches_the_oracles(n):
    pairs = primetables.factor(n)
    primes = [p for p, _ in pairs]
    assert math.prod(p**e for p, e in pairs) == n
    assert primes == sorted(set(primes)) and all(oracles.is_prime(p) for p in primes)
    assert all(e >= 1 for _, e in pairs)
    assert primes[:1] == ([oracles.least_prime_factor(n)] if n > 1 else [])
    assert (pairs == [(n, 1)]) == oracles.is_prime(n)
    squarefree = all(e == 1 for _, e in pairs)
    assert ((-1) ** len(pairs) if squarefree else 0) == oracles.mobius(n)
    assert (math.log(primes[0]) if len(pairs) == 1 else 0.0) == oracles.mangoldt(n)
    if n <= 2000:
        coprime = sum(math.gcd(m, n) == 1 for m in range(1, n + 1))
        assert primetables.totient(n) == coprime
        for h in (1, 2, 3):
            tau = math.prod(math.comb(e + h - 1, h - 1) for _, e in pairs)
            assert tau == oracles.brute_tau(n, h)


@given(st.integers(1, 4500))
@example(1)
@example(3000)
@example(3001)
@example(10**6 + 3)  # a prime far past the limit
def test_prime_tables_read_the_factor_helper(n):
    # factoring reads no table, so every method takes n past the limit and
    # refuses n < 1
    tables = PrimeTables(3000)
    for method in (tables.factor, tables.mobius, tables.tau, tables.quadratic_class):
        with pytest.raises(PreconditionError, match=f"n must be >= 1, got {1 - n}"):
            method(1 - n)
    pairs = primetables.factor(n)
    assert tables.factor(n) == pairs
    assert tables.mobius(n) == oracles.mobius(n)
    assert tables.tau(n, 3) == primetables.tau(n, 3) == math.prod(
        math.comb(e + 2, 2) for _, e in pairs)
    assert tables.quadratic_class(n) == primetables.quadratic_class_of(n)


@given(st.integers(-1, 4500), st.integers(1, 60), st.integers(-100, 100))
@example(-1, 1, 0)
@example(3000, 1, 0)
@example(3000, 60, 7)
@example(3001, 1, 0)
@example(100, 101, -4)  # d > y: the class holds c mod d = 97 alone
@example(3000, 10**30, 7)  # d past int64
@example(3000, 2**63, -1)  # the first d past int64: c mod d is INT64_MAX
@example(3000, 2**63 - 1, 2**62)  # the last d within it
def test_prime_powers_upto_matches_trial_division(y, d, c):
    tables = PrimeTables(3000)
    if y > tables.limit:
        with pytest.raises(PreconditionError):
            tables.prime_powers_upto(y, d, c)
        return
    ns, logs = tables.prime_powers_upto(y, d, c)
    lam = tables.mangoldt_range(y + 1).tolist()
    want = [n for n in range(2, y + 1) if n % d == c % d and lam[n] > 0]
    assert ns.tolist() == want
    assert logs.tolist() == [lam[n] for n in want]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
INT64_EDGES = [INT64_MIN, INT64_MIN + 1, -INT64_MAX, -1, 0, 1, INT64_MAX - 1, INT64_MAX]
int64s = st.one_of(st.integers(INT64_MIN, INT64_MAX), st.sampled_from(INT64_EDGES))


@given(st.lists(int64s, max_size=40), st.sampled_from([1, 2, 3, 4, 5, 7, 11, 13, 29, INT64_MAX]))
@example([], 3)
@example(INT64_EDGES, 1)
@example(INT64_EDGES, 3)
@example(INT64_EDGES, INT64_MAX)
def test_mod_equals_python_floor_division(ns, d):
    # (n // d) d wraps past int64 for n near INT64_MIN; the remainder must not
    arr = np.array(ns, dtype=np.int64)
    quotient, rem = primetables.mod(arr, d, with_quotient=True)
    assert quotient.dtype == rem.dtype == np.int64
    assert quotient.tolist() == [n // d for n in ns]
    assert rem.tolist() == primetables.mod(arr, d).tolist() == [n % d for n in ns]
    assert arr.tolist() == ns  # the input is read, not written
    for c in (0, 1, -1, INT64_MIN):
        assert primetables.in_class(arr, d, c).tolist() == [n % d == c % d for n in ns]
    # a modulus past int64 exceeds every n >= 0: its class holds c mod d alone
    ns = [n for n in ns if n >= 0]
    for big, c in ((2**63, -1), (2**63 + 1, 1), (10**30, 7)):  # c mod 2^63 is INT64_MAX
        got = primetables.in_class(np.array(ns, dtype=np.int64), big, c)
        assert got.tolist() == [n % big == c % big for n in ns]


# sizes where the sqrt cutoff of the sift bites: p^2 and 2 p^2, each +- 1, for p = 3 (mod 4)
SIFT_EDGES = [m * p * p + e for p in (3, 7, 11, 19, 23, 31, 43, 47, 103) for m in (1, 2)
              for e in (-1, 0, 1)]


@given(st.one_of(st.integers(1, 5), st.sampled_from(SIFT_EDGES)))
@example(1)
@example(2 * 103 * 103 + 1)
def test_in_bcal_array_matches_scalar(tables, N):
    # the sift reads the primes up to isqrt(N) alone; B is Bcal on the odd n
    # and Bcal at m on n = 2m, as two-squares --limit counts it
    in_bcal = PrimeTables(max(2, math.isqrt(N))).in_bcal_array(N + 1)
    assert not in_bcal[0]
    want = [tables.quadratic_class(n) for n in range(1, N + 1)]
    assert in_bcal[1:].tolist() == [qc.in_Bcal for qc in want]
    assert in_bcal[1::2].tolist() == [qc.in_B for qc in want[::2]]
    assert in_bcal[1 : N // 2 + 1].tolist() == [qc.in_B for qc in want[1::2]]


@given(st.lists(st.integers(1, 3000), min_size=1, max_size=12),
       st.sampled_from(["drawn", "rising", "falling"]))
@example([1], "drawn")
@example([2, 3, 5, 3000], "rising")
@example([3000, 3, 2], "falling")
def test_lazy_spf_matches_trial_division(reads, order):
    if order != "drawn":
        reads = sorted(reads, reverse=order == "falling")
    tables = PrimeTables(3000)
    for n in reads:
        pairs = tables.factor(n)
        assert math.prod(p**e for p, e in pairs) == n
        assert [p for p, _ in pairs[:1]] == ([oracles.least_prime_factor(n)] if n > 1 else [])


def test_buchstab_and_two_squares_build_no_factor_table(capsys):
    made = []

    def new_tables(limit):
        made.append(PrimeTables(limit))
        return made[-1]

    with mock.patch.object(cli, "PrimeTables", new_tables):
        assert cli.main(["two-squares", "--limit", "100000", "--check-brute"]) == 0
        assert cli.main(["buchstab-app", "--b", "7", "--a0", "4", "--r", "3", "--k", "6"]) == 0
    capsys.readouterr()
    assert [t.limit for t in made] == [316, 7**6]


@given(st.integers(1, 10**4))
@example(1)
@example(2)
@example(4)
@example(65)
@example(3 * 3 * 5)
def test_quadratic_class_of_matches_table(tables, n):
    assert primetables.quadratic_class_of(n) == tables.quadratic_class(n)


@st.composite
def progression_systems(draw, max_X):
    """(ds, k): residue coprime to the base, b^k <= max_X."""
    b, k = draw(grid_sizes((3, 5, 7, 10) + LARGE_BASES, max_X))
    r = draw(st.sampled_from([r for r in range(1, b) if math.gcd(r, b) == 1]))
    a0 = draw(st.sampled_from([a for a in range(b) if a != r]))
    return DigitSystem(b, a0, r), k


@given(progression_systems(10**5), st.integers(1, 40), st.integers(1, 60), st.integers(1, 6),
       st.integers(1, 6), st.dictionaries(st.integers(1, 60), st.floats(-2, 2), max_size=12))
def test_weighted_rows_equal_discrepancy_E(tables, system, D, c, D1, D2, xi):
    ds, k = system
    X = ds.base**k
    reports = [
        weighted_discrepancy(tables, ds, X, "fixed_c", D=D, c=c),
        weighted_discrepancy(tables, ds, X, "factorable_pair", D1=D1, D2=D2, c=c),
        weighted_discrepancy(tables, ds, X, "well_factorable", xi=xi, c=c),
    ]
    for rep in reports:
        for row in rep.rows:
            assert row.c == c % row.d
            assert row.E == discrepancy_E(tables, ds, X, row.d, c), (rep.weight_kind, row)


@given(progression_systems(10**5), st.integers(1, 25))
@example((DigitSystem(10, 7, 3), 5), 25)
def test_abs_max_c_rows_attain_the_max_over_residues(tables, system, D):
    ds, k = system
    X = ds.base**k
    for row in weighted_discrepancy(tables, ds, X, "abs_max_c", D=D).rows:
        E = {c % row.d: discrepancy_E(tables, ds, X, row.d, c)
             for c in range(1, row.d + 1) if math.gcd(c, row.d) == 1}
        best = max(abs(e) for e in E.values())
        assert abs(row.E) == pytest.approx(best, rel=1e-9), row
        assert abs(E[row.c]) == pytest.approx(best, rel=1e-9), row


def per_pair_sieve_lin_rows(tables, ds, k, weights, L, h):
    """(d, E) rows of sieve_lin by one membership test per (d, ell)."""
    b, X = ds.base, ds.base**k
    pp_n, pp_log = tables.prime_powers
    cnt = len(oracles.brute_members(b, ds.excluded, k, ds.residue))
    phi_b = sum(1 for x in range(1, b + 1) if math.gcd(x, b) == 1)
    rows = []
    for d in weights.support:
        if weights(d) == 0 or math.gcd(d, 2 * b) != 1:
            continue
        inner = main_sum = 0.0
        for ell in range(L + 1, 2 * L + 1):
            if math.gcd(ell, 2 * b) != 1 or h(ell) == 0:
                continue
            if math.gcd(ell, d) == 1:
                main_sum += h(ell) / ell
            cut = np.searchsorted(pp_n, (X - 1) // (2 * ell), side="right")
            nn = pp_n[:cut]
            keep = ((2 * ell * nn + 1) % d == 0) & ((ell * nn) % 4 == 1)
            if keep.any():
                member = contains_array(ds, 2 * ell * nn[keep] + 1)
                inner += h(ell) * float(pp_log[:cut][keep][member].sum())
        phi_d = primetables.totient(d)
        rows.append((d, inner - b * cnt * main_sum / (4.0 * phi_d * phi_b)))
    return rows


@given(progression_systems(5 * 10**4).filter(lambda s: s[0].base**s[1] >= 50),
       st.integers(2, 25), st.sampled_from(["one", "log", "gaps"]))
# larger X: subsets long enough that another summation order changes the last bits
@example((DigitSystem(10, 7, 3), 5), 10, "log")
@example((DigitSystem(7, 4, 3), 6), 40, "one")
def test_sieve_lin_rows_match_per_pair_loop(tables, system, L, h_kind):
    ds, k = system
    X = ds.base**k
    h = {"one": lambda ell: 1.0, "log": lambda ell: 1.0 / math.log(X / ell),
         "gaps": lambda ell: float(ell % 3)}[h_kind]
    w = build_weights(linear_upper(X, prime_set=lambda p: (2 * ds.base) % p != 0), tables)
    rep = weighted_discrepancy(tables, ds, X, "sieve_lin", weights=w, L=L, h=h)
    assert [(row.d, row.E) for row in rep.rows] == per_pair_sieve_lin_rows(tables, ds, k, w, L, h)


def per_prime_buchstab(tables, ds, X, alpha):
    """(S, T, total, app_count) by one scalar classification per prime."""
    z = X ** (1.0 / alpha)
    S = T = total = app_count = 0
    for p in tables.primes_upto(X - 1).tolist():
        if not contains(ds, p):
            continue
        app_count += tables.quadratic_class(p - 1).in_B
        if p % 8 != 3:
            continue
        least = next((f for f, _ in tables.factor(p - 1) if f % 4 == 3 and ds.base % f), None)
        S += least is None or least > z
        T += least is not None and z < least and least * least <= X
        total += least is None or least * least > X
    return S, T, total, app_count


# (b, r, k); 3 divides 15 and 3, 7 divide 21, so the sieve primes leave them out
BUCHSTAB_SIZES = [(3, 2, 11), (5, 2, 7), (7, 3, 6), (9, 5, 5), (15, 2, 4), (21, 2, 4)]


@given(st.sampled_from(BUCHSTAB_SIZES).flatmap(lambda s: st.tuples(
    st.just(s), st.sampled_from([a for a in range(s[0]) if a != s[1]]))), st.floats(2.05, 6.0))
@example(((15, 2, 4), 7), 3.0)
@example(((21, 2, 4), 5), 3.0)
@example(((5, 2, 7), 0), 3.0)  # a0 = 0: a leading zero is not a digit
def test_buchstab_matches_per_prime_loop(tables, system, alpha):
    (b, r, k), a0 = system
    ds, X = DigitSystem(b, a0, r), b**k
    res = buchstab_and_app(tables, ds, X, alpha)
    assert (res.S, res.T, res.total, res.app_count) == per_prime_buchstab(tables, ds, X, alpha)


# -- kernels -------------------------------------------------------------------------

@given(st.integers(3, 3000), st.data())
@example(10, None)  # U = 2: the cofactor loops run over most of [1, X)
@example(2197, None)  # X = 13^3
def test_vaughan_arrays_equal_per_divisor_loops(tables, X, data):
    U = data.draw(st.integers(2, min(X - 1, 60))) if data else 2
    got = expsums._vaughan_arrays(X, U)
    want = oracles.vaughan_arrays(tables, X, U)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (X, U)


finite_floats = st.one_of(st.floats(-1e6, 1e6),
                          st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(finite_floats, max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 2.0**53, -(2.0**53),
          1 - 2.0**-53, -(1 - 2.0**-53), 0.5, -0.5, 1e300, -1e300, -1e-300])
def test_phases_equal_the_exponential_of_the_float_remainder(xs):
    x = np.array(xs, dtype=np.float64)
    assert expsums._phases(x).tobytes() == np.exp(2j * np.pi * (x % 1.0)).tobytes()


@given(st.integers(3, 3000), st.integers(1, 60), st.integers(-100, 100), st.floats(0.0, 1.0))
@example(3000, 1, 0, 0.3)
@example(3000, 7, -3, 0.7)
def test_vaughan_strided_sums_equal_masked_gather(tables, X, d, c, theta):
    U = max(2, math.ceil(X ** (1 / 3)))
    got = vaughan_decompose(tables, X, U, d, c, theta)
    assert list(got) == oracles.vaughan_sums(expsums._vaughan_arrays(X, U), X, d, c, theta)


@given(st.one_of(st.integers(1, 3000), st.sampled_from(SQUARES_OF_PRIMES)))
@example(1)
@example(2)
def test_mobius_range_matches_trial_division(tables, size):
    got = tables.mobius_range(size)
    assert got.dtype == np.int8
    assert got.tolist() == [0] + [oracles.mobius(n) for n in range(1, size)]


# theta drawn as a float or as a fraction a/q; the latter has beta = 0 exactly
thetas = st.one_of(
    st.floats(-2.0, 2.0),
    st.builds(lambda a, q: a / q, st.integers(-50, 50), st.integers(1, 60)),
)
blocks = st.sampled_from([1, 7, 1 << 17])


@given(thetas, st.sampled_from(["linear", "hyperbola"]), st.integers(1, 3000),
       st.floats(1.0, 1e7), st.integers(1, 300), blocks)
@example(1 / 3, "linear", 100, 50.0, 10, 7)
@example(1 / 3, "hyperbola", 100, 1e4, 10, 1)
@example(0.0, "hyperbola", 10, 1e4, 10, 1)
def test_min_sum_equals_loop(theta, mode, M, cap, Q, block):
    ta = dirichlet_approx(theta, Q, 10**6)
    with mock.patch.object(expsums, "SCAN_BLOCK", block):
        got = min_sum(mode, M, cap, ta).value
    assert got == oracles.min_sum_value(mode, M, cap, ta), (ta, mode, M, cap)


def test_min_sum_exact_where_m_times_a_overflows_int64():
    a, q = 3 * 2**50 + 1, 3
    ta = ThetaApprox(theta=a / q, a=a, q=q, beta=0.0, X=10**6)
    M = 5000
    assert M * a > 2**63
    assert min_sum("linear", M, 50.0, ta).value == oracles.min_sum_value("linear", M, 50.0, ta)


@given(thetas, st.integers(1, 30), st.integers(1, 30), st.integers(100, 10**8), blocks)
@example(1 / 3, 12, 20, 10**6, 7)
@example(0.4142135623730951, 12, 20, 10**6, 1)
def test_mikawa_w_equals_loop(tables, theta, M, N, X, block):
    ta = dirichlet_approx(theta, 100, X)
    with mock.patch.object(expsums, "SCAN_BLOCK", block):
        got = mikawa_w(M, N, X, ta).value
    assert got == oracles.mikawa_value(tables, M, N, X, ta), (ta, M, N, X)


# Coefficients with zeros among them; the sums below skip a zero weight.
coefficients = st.one_of(st.sampled_from([0, 1.0, -1.0, 0.5 + 0.25j]),
                         st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                            allow_infinity=False))
supports = st.dictionaries(st.integers(1, 80), coefficients, max_size=12)


@st.composite
def approximations(draw):
    """A reduced a/q with beta = 0 exactly, or the Dirichlet approximation of a float."""
    if draw(st.booleans()):
        f = Fraction(draw(st.integers(-500, 500)), draw(st.integers(1, 400)))
        return ThetaApprox(theta=f.numerator / f.denominator, a=f.numerator,
                           q=f.denominator, beta=0.0, X=3000)
    return dirichlet_approx(draw(st.floats(-2.0, 2.0)), draw(st.integers(1, 300)), 3000)


def l1_mass(*alphas) -> float:
    return math.prod(sum(abs(w) for w in alpha.values()) for alpha in alphas)


@given(supports, supports, st.integers(1, 3000), approximations(), st.integers(1, 12),
       st.integers(-30, 30), blocks)
@example({2: 1.0, 3: 0.0, 5: -1.0}, {4: 0.5 + 0.25j, 7: 1.0}, 30, ThetaApprox(1 / 3, 1, 3, 0.0, 30),
         4, -3, 1)
def test_bilinear_sum_equals_pair_loop(alpha1, alpha2, X, ta, d, c, block):
    with mock.patch.object(expsums, "SCAN_BLOCK", block):
        got = bilinear_sum(alpha1, alpha2, X, ta, d, c).value
    want = oracles.bilinear_value(alpha1, alpha2, X, ta, d, c)
    assert abs(got - want) <= 1e-12 * l1_mass(alpha1, alpha2), (ta, X, d, c)


def test_bilinear_sum_where_m_times_n_passes_2_63():
    X = 2**62
    alpha1 = {2**31 + 11: 1.0, 3: 0.5 - 1j, 2**40: 1j}
    alpha2 = {2**32 + 5: 1.0, 7: -1.0, 2**33: 2.0, 2**21: 0.25}
    # in int64 these products wrap to 2^63 + ..., 11 * 2^33 and 0, all below X
    assert (2**31 + 11) * (2**32 + 5) > 2**63 and (2**31 + 11) * 2**33 > 2**64
    assert 2**40 * 2**33 % 2**64 == 0
    for ta in (dirichlet_approx(math.sqrt(2) - 1, 1000, X), ThetaApprox(2 / 7, 2, 7, 0.0, X)):
        got = bilinear_sum(alpha1, alpha2, X, ta).value
        want = oracles.bilinear_value(alpha1, alpha2, X, ta)
        assert abs(got - want) <= 1e-12 * l1_mass(alpha1, alpha2), ta


def test_bilinear_sum_exact_where_q_squared_passes_2_63():
    q = 4_000_000_007
    a = q - 2
    assert (q - 1) ** 2 > 2**63
    X = 10**12
    ta = ThetaApprox(theta=a / q, a=a, q=q, beta=0.0, X=X)
    alpha1 = {m: 1.0 for m in range(63_000, 63_040)}
    alpha2 = {n: (-1.0) ** n for n in range(63_300, 63_330)}
    # (mn mod q) a passes 2^63 for every pair
    assert min(m * n % q for m in alpha1 for n in alpha2) * a > 2**63
    got = bilinear_sum(alpha1, alpha2, X, ta, d=3, c=2).value
    want = oracles.bilinear_value(alpha1, alpha2, X, ta, d=3, c=2)
    assert abs(got - want) <= 1e-12 * l1_mass(alpha1, alpha2)


@given(st.integers(0, 8), st.integers(1, 3), st.integers(1, 10),
       st.dictionaries(st.integers(1, 14), coefficients, max_size=6),  # keys above M too
       st.sampled_from([0, 1]), st.integers(1, 400), thetas)
@example(6, 2, 5, {2: 1.0, 3: 0.0, 12: 1.0}, 0, 200, 1 / 3)
@example(6, 2, 5, {1: 0.5 - 1j, 4: -1.0}, 1, 200, 0.0)
def test_type_one_max_equals_per_residue_loop(tables, D, h3, M, alpha, j, X, theta):
    got = type_one_max(tables, D, h3, M, alpha, j, X, theta)
    want = oracles.type_one_max_value(tables, D, h3, M, alpha, j, X, theta)
    scale = sum(tables.tau(d, h3) for d in range(1, D + 1)) * l1_mass(alpha) * X * math.log(X + 1)
    assert abs(got - want) <= 1e-12 * scale, (D, h3, M, alpha, j, X, theta)


@given(st.sampled_from((3, 4, 5, 7, 10, 16)), st.data(), st.floats(-3.0, 3.0))
@example(10, None, 0.37)  # k = 1 with the last digit pinned: the prefactor alone
def test_eval_hat_equals_digit_product_loop(b, data, theta):
    if data is None:
        ds, k = DigitSystem(10, 7, 3), 1
    else:
        a0 = data.draw(st.integers(1, b - 1))
        r = data.draw(st.one_of(st.none(), st.sampled_from([d for d in range(b) if d != a0])))
        ds, k = DigitSystem(b, a0, r), data.draw(st.integers(1, 20))
    got = eval_hat(ds, k, theta)
    assert type(got) is complex
    want = oracles.digit_product_hat(b, ds.excluded, k, theta, ds.residue)
    assert abs(got - want) <= 1e-12 * (b - 1) ** k, (ds, k, theta)


@given(st.sampled_from([1, 2]), st.integers(100, 2000),
       st.dictionaries(st.integers(1, 60), st.integers(-2, 2), max_size=6),
       st.dictionaries(st.integers(1, 60), st.integers(-2, 2), max_size=6))
def test_sandwich_rows_equal_divisor_sums(tables, degree, n_max, bump_minus, bump_plus):
    z, D = 13.0, 200.0
    odd = lambda p: p != 2  # noqa: E731
    weights = []
    for side, bump in (("lower", {1: 1, **bump_minus}), ("upper", bump_plus)):
        w = build_weights(SieveSpec(degree, side, D, z, odd), tables)
        values = dict(w.values)
        for d, v in bump.items():  # deliberately bad weights
            values[d] = values.get(d, 0) + v
        weights.append(SieveWeight(w.spec, values))
    got = sandwich_check(*weights, tables, z, odd, n_max)
    assert got  # lower(1) = 2 > 1 at least
    assert got == oracles.sandwich_rows(*weights, z, odd, n_max)


@given(st.sampled_from([1, 2]), st.sampled_from(["lower", "upper"]), st.floats(2.0, 400.0),
       st.floats(2.0, 4000.0), st.integers(2, 300), st.booleans())
@example(1, "lower", 30.0, 1000.0, 29, False)  # z past nmax by one prime
def test_weights_at_z_and_at_nmax_agree_below_nmax(tables, degree, side, z, D, n_max, odd):
    """No d <= n_max has a prime factor above n_max: the sieve at min(z, n_max)
    has the same weights there and the same sandwich rows."""
    prime_set = (lambda p: p != 2) if odd else (lambda p: True)
    full, cut = (build_weights(SieveSpec(degree, side, D, zz, prime_set), tables)
                 for zz in (z, min(z, n_max)))
    assert ({d: v for d, v in full.values.items() if d <= n_max}
            == {d: v for d, v in cut.values.items() if d <= n_max})
    assert (sandwich_check(full, full, tables, z, prime_set, n_max)
            == sandwich_check(cut, cut, tables, min(z, n_max), prime_set, n_max))


@given(st.sampled_from((3, 4, 5, 7, 10)), st.data())
@example(3, None)
def test_members_equal_digit_tuples(b, data):
    if data is None:
        ds, k = DigitSystem(3, 0, 2), 6
    else:
        a0 = data.draw(st.integers(0, b - 1))  # a0 = 0: one block per length
        r = data.draw(st.one_of(st.none(), st.sampled_from([d for d in range(b) if d != a0])))
        ds = DigitSystem(b, a0, r)
        k = data.draw(st.integers(1, int(math.log(2 * 10**4) / math.log(b))))
    got = members(ds, k)
    assert all(type(n) is int for n in got)
    assert got == oracles.product_members(b, ds.excluded, k, ds.residue), (ds, k)


@given(digit_systems(10**5), st.sampled_from([0, 1, 2]), st.randoms())
def test_rank_unrank_round_trip(system, a0_zero, rng):
    ds, k = system
    if a0_zero:  # a0 = 0, with or without the residue
        ds = DigitSystem(ds.base, 0, ds.residue if a0_zero == 1 and ds.residue else None)
    listed = members(ds, k)
    for i in {0, len(listed) - 1, *rng.sample(range(len(listed)), min(len(listed), 50))}:
        n = unrank(ds, k, i)
        assert n == listed[i]
        assert rank(ds, k, n) == i


@given(st.integers(1, 3000))
@example(1)
@example(2)
def test_brute_primitive_marks_equal_pair_loop(limit):
    assert _brute_primitive_marks(limit).tolist() == oracles.primitive_marks(limit)


@given(st.integers(1, 3000))
def test_prime_divisors_by_trial_division(n):
    primes = [p for p, _ in primetables.factor(n)]
    assert primes == [p for p in range(2, n + 1) if n % p == 0 and oracles.is_prime(p)]
