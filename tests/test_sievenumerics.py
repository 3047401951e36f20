import math
from fractions import Fraction

import pytest
from scipy.integrate import quad

import oracles
from missingdigit import (
    EULER_GAMMA,
    I_lin,
    I_sem,
    PreconditionError,
    PrimeTables,
    b_over_phi,
    euler_constants,
    lower_bound_margin,
    mertens_3mod4,
    sieve_fn,
    t_weight_sum,
)
from missingdigit.sievenumerics import t_multiplier, t_weight_limit


def test_sieve_fn_values():
    assert sieve_fn("sem_f", 1.0) == 0.0
    assert sieve_fn("sem_f", 0.5) == 0.0
    assert sieve_fn("sem_F", 1.0) == pytest.approx(2 * math.sqrt(math.exp(EULER_GAMMA) / math.pi), rel=1e-14)
    assert sieve_fn("lin_F", 2.0) == pytest.approx(math.exp(EULER_GAMMA), rel=1e-14)
    assert sieve_fn("lin_f", 1.7) == 0.0


def test_sieve_fn_domains():
    for kind, bad in [("sem_F", 2.5), ("sem_f", 3.5), ("lin_F", 0.5), ("lin_f", 2.5)]:
        with pytest.raises(PreconditionError):
            sieve_fn(kind, bad)
    with pytest.raises(PreconditionError):
        sieve_fn("nope", 1.0)


def test_sem_f_continuous_and_increasing():
    assert sieve_fn("sem_f", 1.0 + 1e-12) < 1e-5
    grid = [1.0 + 0.05 * i for i in range(1, 41)]
    values = [sieve_fn("sem_f", u) for u in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_closed_form_vs_quadrature_grid():
    # int_1^u dy / sqrt(y(y-1)) closed form against adaptive quadrature
    for i in range(1, 21):
        u = 1.0 + 0.1 * i
        closed = math.log(1 + 2 * (u - 1) + 2 * math.sqrt(u * (u - 1)))
        numeric, _ = quad(lambda y: 1.0 / math.sqrt(y * (y - 1)), 1.0, u, points=[1.0])
        assert abs(closed - numeric) < 1e-8, u


def test_I_sem():
    assert I_sem(0.5, 4.0) == pytest.approx(
        math.log(1 + 2 + 2 * math.sqrt(2)) / math.sqrt(0.5)
    )
    assert I_sem(1 / 3, 3.0) == 0.0  # alpha * rho = 1: empty integral
    closed = I_sem(3 / 7, 3.0)
    numeric, _ = quad(lambda y: 1.0 / math.sqrt(y * (y - 1)), 1.0, 9 / 7, points=[1.0])
    assert closed == pytest.approx(numeric / math.sqrt(3 / 7), abs=1e-8)
    with pytest.raises(PreconditionError):
        I_sem(3 / 7, 10.0)


def test_I_lin_vs_independent_quadrature():
    for rho, alpha in [(0.5, 3.0), (1.0, 2.5), (0.497999, 3.0181)]:
        own = I_lin(rho, alpha)
        ref, _ = quad(
            lambda y: math.log(y - 1) / (y * math.sqrt(1 - y / alpha)),
            2.0,
            alpha,
            points=[alpha],
            limit=200,
        )
        assert own == pytest.approx(ref / rho, abs=1e-8)


def test_I_lin_edges():
    assert I_lin(0.5, 2.0 + 1e-9) <= 1e-3
    vals = [I_lin(0.5, a) for a in (2.2, 2.6, 3.0, 3.4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(PreconditionError):
        I_lin(0.5, 2.0)


def test_euler_constants(tables):
    c = euler_constants(tables, 10**5)
    assert c.C2 <= 1 / (2 * math.sqrt(2))
    assert c.frakS == pytest.approx(c.C2 * c.C3 / 2, rel=1e-15)
    small = euler_constants(tables, 10**3)
    for name in ("C1", "C2", "C3", "frakS"):
        lo_s, hi_s = small.intervals[name]
        lo_b, hi_b = c.intervals[name]
        assert hi_b - lo_b < hi_s - lo_s
        # the two truncations agree within their combined tails
        assert lo_s - 1e-12 <= hi_b and lo_b <= hi_s + 1e-12


def test_mertens_products(tables):
    small = euler_constants(tables, 1000)
    product, _ = mertens_3mod4(tables, 3, small)
    assert product == pytest.approx(0.5)
    product, _ = mertens_3mod4(tables, 10, small)
    assert product == pytest.approx(5 / 12)
    product, predicted = mertens_3mod4(tables, 10**5, euler_constants(tables, 10**5))
    assert 0.8 < product / predicted < 1.2  # diagnostic band, converges slowly


def test_t_multiplier(tables):
    assert t_multiplier(tables, 1) == 1.0
    assert t_multiplier(tables, 5) == pytest.approx(4 / 3)
    assert t_multiplier(tables, 15) == pytest.approx(8 / 3)


def test_t_weight_sum_against_enumeration(tables):
    X, alpha, b = 10**4, 3.0, 7
    consts = euler_constants(tables, 10**5)
    total, predicted = t_weight_sum(tables, X, alpha, b, consts)
    # independent enumeration with trial-division classifiers
    brute = 0.0
    n1_cap = int(X ** (1 - 2 / alpha))
    for n1 in range(1, n1_cap + 1):
        fs = []
        m = n1
        p = 2
        while p * p <= m:
            if m % p == 0:
                fs.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            fs.append(m)
        if any(f % 4 != 1 for f in fs) or math.gcd(n1, 14) != 1:
            continue
        tn1 = 1.0
        for f in fs:
            tn1 *= (f - 1) / (f - 2)
        for p1 in range(2, int(math.sqrt(X / n1)) + 1):
            if not oracles.is_prime(p1):
                continue
            if p1 < X ** (1 / alpha) or p1 * p1 >= X / n1:
                continue
            if p1 % 4 != 3 or b % p1 == 0:
                continue
            ell = n1 * p1
            brute += tn1 * (p1 - 1) / (p1 - 2) / (ell * math.log(X / ell))
    assert total == pytest.approx(brute, rel=1e-12)
    assert predicted > 0
    # small X leaves the set empty
    empty, _ = t_weight_sum(tables, 8, 3.0, 7, consts)
    assert empty == 0.0


def test_t_weight_sum_reads_a_table_sized_by_need(tables):
    X, alpha, b = 10**5, 3.0, 7
    need = t_weight_limit(X, alpha)
    assert need == math.isqrt(X) + 1
    consts = euler_constants(tables, 10**4)
    full = t_weight_sum(tables, X, alpha, b, consts)
    # the first read, the primes up to sqrt(X) at n1 = 1, is the largest
    for limit in (need, need - 1):
        assert t_weight_sum(PrimeTables(limit), X, alpha, b, consts) == full
    with pytest.raises(PreconditionError, match="exceeds table limit"):
        t_weight_sum(PrimeTables(need - 2), X, alpha, b, consts)
    with pytest.raises(PreconditionError, match="alpha"):
        t_weight_limit(X, 4.0)


def test_b_over_phi_examples():
    assert b_over_phi(10) == Fraction(5, 2)
    assert b_over_phi(7) == Fraction(7, 6)
    assert b_over_phi(12) == Fraction(3)
    for b in range(2, 500):
        b_over_phi(b)  # internal two-sided check must hold


def test_lower_bound_margin():
    margin = lower_bound_margin(1e-3, 1e-6)
    assert margin["difference"] > 0.1
    assert margin["I_sem"] == pytest.approx(1.5734500795, abs=1e-6)
    # stable under the documented eps sensitivity sweep
    diffs = [lower_bound_margin(1e-3, e)["difference"] for e in (1e-4, 1e-6, 1e-8)]
    assert max(diffs) - min(diffs) < 1e-3
