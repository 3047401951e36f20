"""Property tests: the array kernels against per-element references.

Frequency grid: painted arc codes against classify_arc, the tiled spectrum
against the defining Fourier sum, the FFT inversion against membership and
the batched hybrid sum against the per-point loop.  Progression layer: the
smallest-prime-factor table against trial division, the quadratic classes
against the scalar classifier, the weighted discrepancy rows against
discrepancy_E, and the linear-sieve rows and the Buchstab split against the
per-(d, ell) and per-prime loops they replace.  Kernels: the Vaughan arrays
and strided sums, the min-function and Weyl sums, the sandwich rows, the member enumeration
and the two-squares brute force against the per-element loops in oracles.py,
compared exactly; rank/unrank round trips."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from missingdigit import (
    DigitSystem, PrimeTables, SieveSpec, SieveWeight, ThetaApprox, buchstab_and_app,
    build_weights, classify_arc, contains, dirichlet_approx, discrepancy_E, expsums, fourier,
    hybrid_sum, linear_upper, members, mikawa_w, min_sum, primetables, rank, sandwich_check,
    unrank, vaughan_decompose, weighted_discrepancy,
)
from missingdigit.circle import _KIND_CODE, arc_codes
from missingdigit.cli import _brute_primitive_marks
from missingdigit.digitset import _prime_divisors, contains_array
from missingdigit.fourier import inversion_max_error, spectrum


@st.composite
def grid_sizes(draw, bases, max_X):
    b = draw(st.sampled_from(bases))
    k = draw(st.integers(1, int(math.log(max_X) / math.log(b) + 1e-9)))
    return b, k


@st.composite
def digit_systems(draw, max_X):
    b, k = draw(grid_sizes((3, 4, 5, 7, 10), max_X))
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
       st.integers(1, 12), st.integers(1, 40), st.sampled_from([1, 5, 64, 1 << 16]))
def test_batched_hybrid_matches_per_point_loop(system, Q, B, chunk):
    ds, k = system
    with mock.patch.object(fourier, "_HYBRID_CHUNK", chunk):
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


SQUARES_OF_PRIMES = [p * p + e for p in (2, 3, 5, 7, 11, 13, 31, 53, 67) for e in (-1, 0, 1)]


@given(st.one_of(st.integers(2, 5000), st.sampled_from(SQUARES_OF_PRIMES)))
@example(2)
@example(4)
@example(5000)
def test_spf_table_matches_trial_division(limit):
    spf = PrimeTables(limit).spf
    assert spf[0] == spf[1] == 1
    assert spf[2:].tolist() == [oracles.least_prime_factor(n) for n in range(2, limit + 1)]


@given(st.lists(st.integers(1, 200_000), max_size=300), st.sampled_from([1, 7, 1 << 17]))
@example([1, 2, 4, 5, 9, 10, 25, 50, 65, 100, 2 * 3 * 5, 2 * 13 * 13, 200_000], 3)
def test_quadratic_class_array_matches_scalar(tables, ns, block):
    with mock.patch.object(primetables, "SCAN_BLOCK", block):
        got = tables.quadratic_class_array(np.array(ns, dtype=np.int64))
    for n, in_b, in_bcal in zip(ns, got.in_B, got.in_Bcal):
        assert (bool(in_b), bool(in_bcal)) == tables.quadratic_class(n), n


@given(st.lists(st.integers(1, 200_000), max_size=300), st.integers(1, 4),
       st.one_of(st.none(), st.integers(1, 500)))
@example([7 * 11, 7, 11, 2 * 7 * 7], 3, 7)  # the least wanted prime equals upto
def test_least_factor_array_matches_factor_loop(tables, ns, mod, upto):
    def wanted(p):
        return p % 4 == mod % 4

    got = tables.least_factor_array(np.array(ns, dtype=np.int64), wanted, upto=upto)
    for n, least in zip(ns, got):
        want = next((p for p, _ in tables.factor(n) if wanted(p)), 0)
        assert least == (want if upto is None or want <= upto else 0), n


@st.composite
def progression_systems(draw, max_X):
    """(ds, k): residue coprime to the base, b^k <= max_X."""
    b, k = draw(grid_sizes((3, 5, 7, 10), max_X))
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
        phi_d = tables.totient(d)
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


@given(st.sampled_from([(3, 2, 11), (5, 2, 7), (7, 3, 6), (9, 5, 5)]), st.data(),
       st.floats(2.05, 6.0))
def test_buchstab_matches_per_prime_loop(tables, size, data, alpha):
    b, r, k = size
    a0 = data.draw(st.sampled_from([a for a in range(b) if a != r]))
    ds, X = DigitSystem(b, a0, r), b**k
    res = buchstab_and_app(tables, ds, X, alpha)
    assert (res.S, res.T, res.total, res.app_count) == per_prime_buchstab(tables, ds, X, alpha)


# -- kernels -------------------------------------------------------------------------

@given(st.integers(3, 3000), st.data())
@example(10, None)  # U = 2: the cofactor loops run over most of [1, X)
@example(2197, None)  # X = 13^3
def test_vaughan_arrays_equal_per_divisor_loops(tables, X, data):
    U = data.draw(st.integers(2, min(X - 1, 60))) if data else 2
    got = expsums._vaughan_arrays(tables, X, U)
    want = oracles.vaughan_arrays(tables, X, U)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (X, U)


@given(st.integers(3, 3000), st.integers(1, 60), st.integers(-100, 100), st.floats(0.0, 1.0))
@example(3000, 1, 0, 0.3)
@example(3000, 7, -3, 0.7)
def test_vaughan_strided_sums_equal_masked_gather(tables, X, d, c, theta):
    U = max(2, math.ceil(X ** (1 / 3)))
    got = vaughan_decompose(tables, X, U, d, c, theta)
    assert list(got) == oracles.vaughan_sums(expsums._vaughan_arrays(tables, X, U), X, d, c, theta)


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
        got = mikawa_w(tables, M, N, X, ta).value
    assert got == oracles.mikawa_value(tables, M, N, X, ta), (ta, M, N, X)


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
    assert _prime_divisors(n) == [p for p in range(2, n + 1) if n % p == 0 and oracles.is_prime(p)]
