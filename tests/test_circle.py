import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import oracles
from missingdigit import (
    DigitSystem,
    PreconditionError,
    PrimeTables,
    ProgressionCounts,
    arc_split,
    buchstab_and_app,
    classify_arc,
    count_missing_digit_primes,
    discrepancy_E,
    ramanujan_sum,
    semi_linear_lower,
    build_weights,
    circle,
    linear_upper,
    primetables,
    weighted_discrepancy,
)
from missingdigit.circle import _KIND_CODE, KIND_M1, KIND_M2, KIND_M3, KIND_MINOR, Row, arc_codes
from missingdigit.digitset import contains_array
from missingdigit.errors import BudgetError, InternalCheckError
from missingdigit.expsums import dirichlet_approx
from missingdigit.primetables import units
from missingdigit.sieveweights import SieveSpec


def brute_major_witness(t, X, C):
    """Independent witness scan straight off the three arc definitions."""
    cutoff = math.log(X) ** C
    kinds = set()
    for q in range(1, int(cutoff) + 1):
        for a in range(q):
            if math.gcd(a, q) != 1:
                continue
            diff = abs(t / X - a / q)
            if X % q == 0:
                eta = t - a * (X // q)
                if eta == 0:
                    kinds.add(KIND_M3)
                elif 0 < abs(eta) <= cutoff:
                    kinds.add(KIND_M2)
            elif a >= 1 and diff <= cutoff / X:
                kinds.add(KIND_M1)
    return kinds


def test_classify_examples():
    X = 10**4
    assert classify_arc(0, X, 2.0).kind == KIND_M3
    assert classify_arc(0, X, 2.0).q == 1
    lbl = classify_arc(1000, X, 2.0)
    assert (lbl.kind, lbl.a, lbl.q) == (KIND_M3, 1, 10)
    lbl = classify_arc(1, X, 2.0)
    assert (lbl.kind, lbl.a, lbl.q, lbl.eta) == (KIND_M2, 0, 1, 1.0)
    assert arc_codes(5**4, 2.0)[1] == 2  # painted too: t = 1 is eta = 1 from 0/1


def test_classification_matches_witness_scan():
    X, C = 5**4, 2.0
    for t in range(X):
        label = classify_arc(t, X, C)
        witnesses = brute_major_witness(t, X, C)
        if label.kind == KIND_MINOR:
            assert not witnesses, t
        else:
            assert label.kind in witnesses, t
            # priority: a later-kind label implies no earlier-kind witness
            if label.kind == KIND_M2:
                assert KIND_M3 not in witnesses, t
            if label.kind == KIND_M1:
                assert KIND_M3 not in witnesses and KIND_M2 not in witnesses, t


def per_fraction_arc_codes(X, C):
    """The arc codes painted one q at a time: the reduced a/q from units(q),
    each window found by classify_arc's exact test and added to a difference
    array with np.add.at.  The reference for the blocked passes of arc_codes."""
    cutoff = math.log(X) ** C
    qmax = int(min(cutoff, X))
    divisors = [q for q in range(1, qmax + 1) if X % q == 0]
    codes = np.zeros(X, dtype=np.int8)

    def add_windows(cover, q, scale, mod, radius, a_min):
        a = np.flatnonzero(units(q))
        a = a[a >= a_min]
        bound = math.floor(radius)
        t_lo = np.maximum(0, -((bound - a * mod) // scale))
        t_hi = np.minimum(X - 1, (a * mod + bound) // scale)
        keep = t_lo <= t_hi
        np.add.at(cover, t_lo[keep], 1)
        np.add.at(cover, t_hi[keep] + 1, -1)

    if qmax < X:
        cover = np.zeros(X + 1, dtype=np.int64)
        for q in range(2, qmax + 1):
            if X % q:
                add_windows(cover, q, q, X, q * cutoff, 1)
        codes[np.cumsum(cover[:X]) > 0] = _KIND_CODE[KIND_M1]
        cover[:] = 0
        for q in divisors:
            add_windows(cover, q, 1, X // q, cutoff, 0)
        codes[np.cumsum(cover[:X]) > 0] = _KIND_CODE[KIND_M2]
    for q in divisors:
        codes[:: X // q] = _KIND_CODE[KIND_M3]
    return codes


ARC_XS = [30, 64, 486, 997, 1000, 2187, 10**4, 3**9, 5**6, 7**5]
ARC_CASES = [(X, C) for X in ARC_XS for C in (0.5, 1, 1.25, 1.5, 1.75, 2, 2.5, 3)] + [
    (X, 4) for X in ARC_XS if X <= 2000]


@pytest.mark.parametrize("X, C", ARC_CASES)
def test_arc_codes_equal_the_per_fraction_painter(X, C):
    codes = arc_codes(X, C)
    want = per_fraction_arc_codes(X, C)
    assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()


@pytest.mark.parametrize("X, C", [(2187, 2.5), (1000, 3), (997, 4)])
def test_arc_codes_do_not_depend_on_the_block_size(X, C):
    # a few cells per block: the reduced fractions span hundreds of blocks
    with mock.patch.object(primetables, "SCAN_BLOCK", 7):
        codes = arc_codes(X, C)
    assert codes.tobytes() == per_fraction_arc_codes(X, C).tobytes()


def test_classified_label_satisfies_its_definition():
    X, C = 10**4, 2.0
    cutoff = math.log(X) ** C
    rng = random.Random(23)
    for t in rng.sample(range(X), 500):
        lbl = classify_arc(t, X, C)
        if lbl.kind == KIND_M3:
            assert X % lbl.q == 0 and t * lbl.q == lbl.a * X and lbl.q <= cutoff
        elif lbl.kind == KIND_M2:
            assert X % lbl.q == 0 and lbl.q <= cutoff
            assert lbl.eta == t - lbl.a * (X // lbl.q)
            assert 0 < abs(lbl.eta) <= cutoff
        elif lbl.kind == KIND_M1:
            assert X % lbl.q != 0 and 1 <= lbl.a < lbl.q <= cutoff
            assert abs(t / X - lbl.a / lbl.q) <= cutoff / X + 1e-15


def test_ramanujan_sums(tables):
    for q in range(1, 201):
        for a in (1, q - 1 if q > 2 else 1):
            if math.gcd(a, q) != 1:
                continue
            got = ramanujan_sum(q, a)
            assert got == pytest.approx(tables.mobius(q), abs=1e-9), q


def test_ramanujan_sum_claims_its_units_before_it_allocates(monkeypatch):
    # the residues of a prime past 10^12 would take 931 GiB
    monkeypatch.delenv("MISSINGDIGIT_BUDGET", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"^unit residues mod 1000000000039 needs ~1e\+12"):
            ramanujan_sum(10**12 + 39, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_discrepancy_d1_identity(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**4
    e = discrepancy_E(tables, ds, X, 1, 1)
    raw = sum(
        oracles.mangoldt(n)
        for n in range(1, X)
        if n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
    )
    # main term at d = 1 is (b/phi(b)) * (b-1)^(k-1)
    assert e + (10 / 4) * 729 == pytest.approx(raw, rel=1e-12)
    # the members = a (mod q), q past int64 included
    for q, a in ((8, 3), (10**30, 13), (10**30, -1), (2**63, 2**63 + 113)):
        counts = ProgressionCounts(tables, ds, 1000, q, a)
        assert counts.ns.tolist() == [
            n for n in range(1, 1000)
            if n % q == a % q and n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
            and oracles.mangoldt(n) > 0
        ], (q, a)


def test_discrepancy_crude_bound_and_oracle(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**5
    e = discrepancy_E(tables, ds, X, 7, 2)
    brute = sum(
        oracles.mangoldt(n)
        for n in range(1, X)
        if n % 7 == 2 and n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
    ) - (10 / (6 * 4)) * 6561
    assert e == pytest.approx(brute, rel=1e-10)
    crude = float(tables.prime_powers_upto(X - 1)[1].sum()) + X
    assert abs(e) <= crude


def test_discrepancy_gcd_errors(tables):
    ds = DigitSystem(10, 7, 3)
    with pytest.raises(PreconditionError):
        discrepancy_E(tables, ds, 10**4, 5, 1)  # gcd(d, b) > 1
    with pytest.raises(PreconditionError):
        discrepancy_E(tables, ds, 10**4, 9, 3)  # gcd(c, d) > 1
    with pytest.raises(PreconditionError):
        discrepancy_E(tables, DigitSystem(10, 7, 5), 10**4, 3, 1)  # gcd(r, b) > 1


def test_weighted_abs_max_c(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**4
    rep = weighted_discrepancy(tables, ds, X, "abs_max_c", D=10)
    assert rep.aggregate == pytest.approx(sum(abs(row.E) for row in rep.rows), rel=1e-12)
    assert [row.d for row in rep.rows] == [1, 3, 7, 9]
    # independent oracle for the d = 3 row
    best = 0.0
    for c in (1, 2):
        raw = sum(
            oracles.mangoldt(n)
            for n in range(1, X)
            if n % 3 == c and n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
        )
        best = max(best, abs(raw - (10 / (2 * 4)) * 729))
    row3 = [row for row in rep.rows if row.d == 3][0]
    assert abs(row3.E) == pytest.approx(best, rel=1e-10)
    single = weighted_discrepancy(tables, ds, X, "abs_max_c", D=1)
    assert single.aggregate == pytest.approx(abs(single.rows[0].E), rel=1e-15)


def test_weighted_fixed_and_pairs(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**4
    rep = weighted_discrepancy(tables, ds, X, "fixed_c", D=12, c=1)
    for row in rep.rows:
        assert math.gcd(row.d, 10) == 1
        assert row.E == pytest.approx(discrepancy_E(tables, ds, X, row.d, 1), rel=1e-12)
    pairs = weighted_discrepancy(tables, ds, X, "factorable_pair", D1=5, D2=3, c=1)
    assert pairs.aggregate == pytest.approx(
        sum(abs(r.E) for r in pairs.rows), rel=1e-12
    )
    for row in pairs.rows:
        assert math.gcd(row.d, 10) == 1


def test_weighted_sieve_semi_consistency(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**4
    spec = semi_linear_lower(X, prime_set=lambda p: p % 4 == 3 and p != 2 and p != 5)
    w = build_weights(spec, tables)
    rep = weighted_discrepancy(tables, ds, X, "sieve_semi", weights=w)
    # hand recomposition: aggregate = sum over support of weight * row E
    by_d = {row.d: row for row in rep.rows}
    agg = 0.0
    for d in w.support:
        if math.gcd(d, 20) != 1:
            continue
        row = by_d[d]
        assert row.weight == w(d)
        agg += w(d) * row.E
    assert rep.aggregate == pytest.approx(agg, rel=1e-12)
    # spot one row against a from-scratch sum
    d = w.support[1] if len(w.support) > 1 else 1
    raw = sum(
        oracles.mangoldt(n)
        for n in range(1, X)
        if n % d == 1 % d and n % 8 == 3 and n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
    )
    phi_d = sum(1 for x in range(1, d + 1) if math.gcd(x, d) == 1)
    main = 10 * 729 / (4 * phi_d * 4)
    assert by_d[d].E == pytest.approx(raw - main, rel=1e-10)


def test_weighted_sieve_lin_shape(tables):
    ds = DigitSystem(10, 7, 3)
    X = 10**4
    from missingdigit import linear_upper

    spec = linear_upper(X, prime_set=lambda p: p not in (2, 5))
    w = build_weights(spec, tables)
    L = 22
    h = lambda ell: 1.0
    rep = weighted_discrepancy(tables, ds, X, "sieve_lin", weights=w, L=L, h=h)
    assert rep.aggregate == pytest.approx(sum(row.weight * row.E for row in rep.rows), rel=1e-12)
    # independent recomputation of one row
    d = rep.rows[1].d if len(rep.rows) > 1 else 1
    inner = 0.0
    main_sum = 0.0
    for ell in range(L + 1, 2 * L + 1):
        if math.gcd(ell, 20) != 1:
            continue
        if math.gcd(ell, d) == 1:
            main_sum += 1.0 / ell
        for n in range(1, (X - 1) // (2 * ell) + 1):
            val = 2 * ell * n + 1
            if (
                val % d == 0
                and (ell * n) % 4 == 1
                and val % 10 == 3
                and oracles.digits_avoid(val, 10, 7)
            ):
                inner += oracles.mangoldt(n)
    phi_d = sum(1 for x in range(1, d + 1) if math.gcd(x, d) == 1)
    expect = inner - 10 * 729 * main_sum / (4 * phi_d * 4)
    row = [r for r in rep.rows if r.d == d][0]
    assert row.E == pytest.approx(expect, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("block", [7, 1000])
def test_recheck_does_not_depend_on_the_block_size(tables, block):
    # the 1280 prime powers below 10^4 in 183 slices or in 2 with a ragged last
    # one: the exact (rel = 0) recheck still passes, and nothing else moves
    ds, X = DigitSystem(10, 7, 3), 10**4
    semi = build_weights(semi_linear_lower(X, prime_set=lambda p: p % 4 == 3), tables)
    lin = build_weights(linear_upper(X, prime_set=lambda p: p not in (2, 5)), tables)
    kinds = {
        "abs_max_c": dict(D=10),
        "fixed_c": dict(D=12, c=1),
        "factorable_pair": dict(D1=5, D2=3, c=1),
        "well_factorable": dict(xi={1: 1.0, 3: -0.5, 7: 0.25, 11: 2.0}, c=1),
        "sieve_semi": dict(weights=semi),
        "sieve_lin": dict(weights=lin, L=22),
    }
    for kind, params in kinds.items():
        want = weighted_discrepancy(tables, ds, X, kind, **params)
        with mock.patch.object(circle, "SCAN_BLOCK", block):
            got = weighted_discrepancy(tables, ds, X, kind, **params)
        assert got.rows == want.rows and got.aggregate == want.aggregate, kind


def test_recheck_sees_the_last_slice(tables, monkeypatch):
    # a digit test that loses one member of the last slice must fail the recheck
    ds, X, block = DigitSystem(10, 7, 3), 10**4, 1000
    ns, _ = tables.prime_powers_upto(X - 1)
    last = ns[(ns.size - 1) // block * block]
    dropped = []

    def dropping(ds, values):
        member = contains_array(ds, values)
        if values.size and values[0] >= last and member.any():
            member[np.flatnonzero(member)[-1]] = False
            dropped.append(True)
        return member

    monkeypatch.setattr(circle, "SCAN_BLOCK", block)
    monkeypatch.setattr(circle, "contains_array", dropping)
    with pytest.raises(InternalCheckError, match="rechecked"):
        weighted_discrepancy(tables, ds, X, "fixed_c", D=12, c=1)
    assert dropped == [True]


def test_recheck_scratch_is_bounded_by_the_block():
    # The row d = 3 holds half the prime powers below 10^7.  In slices the
    # scratch is four int64 arrays of a slice (the class residues, the
    # gathered n and logs, the digit quotients) plus the kept logs, twice
    # when joined.
    X = 10**7
    counts = ProgressionCounts(PrimeTables(X), DigitSystem(10, 7, 3), X)
    rows = [Row(d, 1, counts.E(d, 1), 1.0) for d in (1, 3)]
    bound = 4 * 8 * circle.SCAN_BLOCK + 2 * 8 * counts.ns.size
    tracemalloc.start()
    try:
        circle._rechecked(counts, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_a_q_1_construction_makes_no_class_pass(tables, monkeypatch):
    # every n is in the class 0 (mod 1): a pass there would keep every member
    moduli = []
    real = circle.in_class
    monkeypatch.setattr(circle, "in_class", lambda ns, d, c: moduli.append(d) or real(ns, d, c))
    ds, X = DigitSystem(10, 7, 3), 10**4
    counts = ProgressionCounts(tables, ds, X)
    assert moduli == []
    classed = ProgressionCounts(tables, ds, X, 8, 3)
    assert moduli == [8]
    assert classed.ns.tolist() == [n for n in counts.ns.tolist() if n % 8 == 3]


def test_arc_split_conservation(tables):
    ds = DigitSystem(10, 7, 3)
    split = arc_split(tables, ds, 10**4, 3, 1, 2.0)
    assert split.residual <= 1e-5
    recombined = (split.major + split.sums[KIND_MINOR]).real
    assert recombined == pytest.approx(split.direct, rel=1e-9)
    # d = 1: direct is the raw member Lambda count
    split1 = arc_split(tables, ds, 10**4, 1, 1, 2.0)
    raw = sum(
        oracles.mangoldt(n)
        for n in range(1, 10**4)
        if n % 10 == 3 and oracles.digits_avoid(n, 10, 7)
    )
    assert split1.direct == pytest.approx(raw, rel=1e-12)
    # Major3 alone lands within the other arcs' remainder of the main term
    slack = abs(split1.sums[KIND_M1]) + abs(split1.sums[KIND_M2]) + abs(split1.sums[KIND_MINOR])
    assert abs(split1.sums[KIND_M3] - split1.main_term) <= slack + abs(
        split1.direct - split1.main_term
    ) + 1e-9


def test_arc_split_claims_its_fft_before_the_member_mask(tables, monkeypatch):
    X, C = 10**4, 1.0
    (arc_steps, _), (fft_steps, _) = circle.arc_split_claims(X, C)
    assert arc_steps < 10**5 < fft_steps
    masks = []
    monkeypatch.setattr(circle, "member_mask", lambda *args: masks.append(args))
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", str(10**5))
    with pytest.raises(BudgetError, match=r"^arc split FFT at X=10000 needs ~1\.33e\+05 steps"):
        arc_split(tables, DigitSystem(10, 7, 3), X, 1, 1, C)
    assert masks == []


def test_count_missing_digit_primes(tables):
    ds = DigitSystem(10, 7)
    cnt, predicted = count_missing_digit_primes(tables, ds, 10**3)
    brute = sum(
        1 for n in range(2, 10**3) if oracles.is_prime(n) and oracles.digits_avoid(n, 10, 7)
    )
    assert cnt == brute
    assert predicted > 0


def test_count_missing_digit_primes_without_zero_digit(tables):
    # a0 = 0: numbers shorter than the longest one must not fail on a leading 0
    ds = DigitSystem(3, 0)
    cnt, _ = count_missing_digit_primes(tables, ds, 3**5)
    assert cnt == sum(1 for n in range(2, 3**5) if oracles.is_prime(n) and oracles.digits_avoid(n, 3, 0))
    assert cnt == 21


def test_buchstab_identity_and_checks(tables):
    ds = DigitSystem(7, 4, 3)
    res = buchstab_and_app(tables, ds, 7**5, 3.0)
    assert res.total == res.S - res.T
    assert res.app_count >= res.total
    assert res.predicted_scale > 0
    # pair brute force confirms the class for moderate p
    for p in range(3, 10**4):
        if not oracles.is_prime(p) or p % 7 != 3:
            continue
        if not oracles.digits_avoid(p, 7, 4):
            continue
        assert tables.quadratic_class(p - 1).in_B == oracles.brute_primitive_two_squares(p - 1)


def test_buchstab_checks_the_sifted_primes_against_bcal(tables, monkeypatch):
    # the Bcal sift and the sieve-prime sift are two routes: if the first loses
    # the sifted p - 1, the split exits with an internal check error
    res = buchstab_and_app(tables, DigitSystem(7, 4, 3), 7**5, 3.0)
    assert res.total > 0
    monkeypatch.setattr(type(tables), "in_bcal_array", lambda self, size: np.zeros(size, dtype=bool))
    with pytest.raises(InternalCheckError, match="outside the primitive class"):
        buchstab_and_app(tables, DigitSystem(7, 4, 3), 7**5, 3.0)


@pytest.mark.parametrize("call", [
    lambda t: buchstab_and_app(t, DigitSystem(7, 4, 3), 7**4, math.nan),
    lambda t: dirichlet_approx(math.nan, 100, 5000),
    lambda t: dirichlet_approx(math.inf, 100, 5000),
    lambda t: SieveSpec(1, "lower", math.nan, 30.0),
    lambda t: SieveSpec(1, "lower", 1000.0, math.inf),
    lambda t: count_missing_digit_primes(t, DigitSystem(10, 7), 1),
    lambda t: arc_codes(100, math.nan),
    lambda t: classify_arc(3, 100, math.nan),
], ids=["alpha nan", "theta nan", "theta inf", "D nan", "z inf", "X 1", "C nan", "C nan, one t"])
def test_a_value_outside_the_domain_is_a_precondition_error(tables, call):
    with pytest.raises(PreconditionError):
        call(tables)


def test_buchstab_preconditions(tables):
    with pytest.raises(PreconditionError):
        buchstab_and_app(tables, DigitSystem(10, 7, 3), 10**4, 3.0)  # even base
    with pytest.raises(PreconditionError):
        buchstab_and_app(tables, DigitSystem(7, 2, 1), 7**4, 3.0)  # gcd(r(r-1), b) > 1
