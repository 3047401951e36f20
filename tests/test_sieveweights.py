import math
import random

import pytest

from missingdigit import (
    BudgetError,
    InternalCheckError,
    PreconditionError,
    PrimeTables,
    SieveSpec,
    build_weights,
    linear_upper,
    lower_bound_margin,
    sandwich_check,
    semi_linear_lower,
    support_member,
    well_factor,
)
from missingdigit import sieveweights


def _paper_exponents(delta, eps):
    """(rho, s) of the semi-linear lower and the linear upper sieve, as the paper writes them."""
    return ((3.0 * (1.0 - 4.0 * delta) / 7.0 - eps, 1.0 / 3.0 - 2.0 * delta - 2.0 * eps * eps),
            (0.5 - 2.0 * delta - eps, 0.2))


def test_sieve_exponents_are_the_papers_formulas_bit_for_bit():
    rng = random.Random(25)
    for i in range(400):
        delta, eps = rng.uniform(0, 1 / 6), rng.uniform(0, 1 / 7)
        X = rng.choice((10**3, 10**6, 7**9, 2.5e7))
        semi, lin = _paper_exponents(delta, eps)
        assert sieveweights.sieve_exponents(1, delta, eps) == semi
        assert sieveweights.sieve_exponents(2, delta, eps) == lin
        for make, (rho, s) in ((semi_linear_lower, semi), (linear_upper, lin)):
            if min(X**rho, X**s) < 2:
                with pytest.raises(PreconditionError):
                    make(X, delta, eps)
                continue
            spec = make(X, delta, eps)
            assert (spec.rho, spec.D, spec.z) == (rho, X**rho, X**s)
        if i % 20 == 0:  # the integrals hold only for small delta and eps
            delta, eps = delta / 20, eps / 20
            margin = lower_bound_margin(delta, eps)
            semi, lin = _paper_exponents(delta, eps)
            assert (margin["rho_sem"], margin["rho_lin"]) == (semi[0], lin[0])


def test_support_examples(tables):
    assert support_member(SieveSpec(1, "lower", 100.0, 50.0), 1, tables)
    # d = 15 = 5 * 3: even-index check 5 * 3^2 = 45 <= 100
    assert support_member(SieveSpec(1, "lower", 100.0, 50.0), 15, tables)
    # single prime in the linear upper sieve: 29^3 > 30
    assert not support_member(SieveSpec(2, "upper", 30.0, 29.0), 29, tables)


def test_support_errors(tables):
    spec = SieveSpec(1, "lower", 100.0, 50.0)
    with pytest.raises(PreconditionError):
        support_member(spec, 12, tables)  # not squarefree
    with pytest.raises(PreconditionError):
        support_member(spec, 53, tables)  # prime above z


def test_build_weights_basics(tables):
    spec = SieveSpec(1, "lower", 1000.0, 30.0)
    w = build_weights(spec, tables)
    assert w(1) == 1
    for d, v in w.values.items():
        assert v in (-1, 1)
        assert d <= 1000
        chain = tables.factor(d)
        assert all(p <= 30 and e == 1 for p, e in chain)
        assert v == (-1) ** len(chain)
    # every single prime p <= z is in the lower support (even-index rule is vacuous)
    for p in (2, 3, 29):
        assert w(p) == -1
    # the primes up to z = (10^6)^(1/3 - ...) ~ 97 are past a table to 50: refused, not cut
    with pytest.raises(PreconditionError, match="exceeds table limit 50"):
        build_weights(semi_linear_lower(10**6), PrimeTables(50))


def test_support_downward_closed(tables):
    for spec in (
        SieveSpec(1, "lower", 500.0, 30.0),
        SieveSpec(1, "upper", 500.0, 30.0),
        SieveSpec(2, "upper", 500.0, 20.0),
        SieveSpec(2, "lower", 500.0, 20.0),
    ):
        w = build_weights(spec, tables)
        for d in w.support:
            if d == 1:
                continue
            smallest = min(p for p, _ in tables.factor(d))
            assert support_member(spec, d // smallest, tables), (spec.degree, spec.side, d)


@pytest.mark.parametrize("degree", [1, 2])
def test_sandwich_small(tables, degree):
    z, D, nmax = 30.0, 1000.0, 10**4
    wm = build_weights(SieveSpec(degree, "lower", D, z), tables)
    wp = build_weights(SieveSpec(degree, "upper", D, z), tables)
    bad = sandwich_check(wm, wp, tables, z, lambda p: True, nmax)
    assert bad == []


def test_sandwich_claims_its_rows_before_it_allocates(tables, monkeypatch):
    w = build_weights(SieveSpec(1, "lower", 1000.0, 30.0), tables)
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    monkeypatch.setattr(sieveweights, "np", None)  # any array built would raise AttributeError
    with pytest.raises(BudgetError, match="sandwich check over n <= 1000000"):
        sandwich_check(w, w, tables, 30.0, lambda p: True, 10**6)


def test_sandwich_pointwise_values(tables):
    z, D = 30.0, 1000.0
    wm = build_weights(SieveSpec(1, "lower", D, z), tables)
    wp = build_weights(SieveSpec(1, "upper", D, z), tables)
    # n coprime to P(z): both convolutions must bracket 1
    n = 37 * 41
    lo = sum(v for d, v in wm.values.items() if n % d == 0)
    hi = sum(v for d, v in wp.values.items() if n % d == 0)
    assert lo <= 1 <= hi
    # n a product of two sifted primes: middle 0
    n = 7 * 11
    lo = sum(v for d, v in wm.values.items() if n % d == 0)
    hi = sum(v for d, v in wp.values.items() if n % d == 0)
    assert lo <= 0 <= hi


def test_well_factor_single_prime(tables, monkeypatch):
    X = 10**5
    spec = semi_linear_lower(X)
    D0 = X ** (1 / 3 - 2e-3)
    d = 37  # prime, X^0.1 = 3.16 <= 37 <= D0
    chains, real = [], sieveweights._chain_of
    monkeypatch.setattr(sieveweights, "_chain_of",
                        lambda tables, d, z: chains.append(d) or real(tables, d, z))
    d1, d2 = well_factor(d, spec, D0, X, tables)
    assert (d1, d2) == (37, 1)
    assert chains == [37]  # d is factored once


def test_well_factor_three_prime_example(tables):
    X = 10**6
    spec = semi_linear_lower(X)
    w = build_weights(spec, tables)
    D0 = X ** (1 / 3 - 2e-3)
    lo, hi = X**0.1, X**spec.rho
    picks = [d for d in w.support if lo <= d <= hi and len(tables.factor(d)) == 3]
    assert picks, "no 3-prime support element in range"
    for d in picks[:5]:
        d1, d2 = well_factor(d, spec, D0, X, tables)
        assert d1 * d2 == d
        assert lo - 1e-9 <= d1 <= D0 * (1 + 1e-9)
        assert d1 * d2 * d2 <= X ** (1 - 4 * spec.delta - 2 * spec.eps**2) / D0 * (1 + 1e-9)


@pytest.mark.parametrize("X", [10**5, 10**6])
def test_well_factor_full_success(tables, X):
    for spec, d0 in (
        (semi_linear_lower(X), X ** (1 / 3 - 2e-3)),
        (linear_upper(X), X**0.2),
    ):
        w = build_weights(spec, tables)
        in_contract = [d for d in w.support if X**0.1 <= d <= X**spec.rho]
        assert in_contract
        for d in in_contract:
            d1, d2 = well_factor(d, spec, d0, X, tables)
            assert d1 * d2 == d


def test_well_factor_out_of_contract(tables):
    X = 10**5
    spec = semi_linear_lower(X)
    with pytest.raises(PreconditionError):
        well_factor(2, spec, X ** (1 / 3 - 2e-3), X, tables)  # below X^(1/10)
    with pytest.raises(PreconditionError):
        well_factor(37, spec, 2.0, X, tables)  # D0 outside its interval
    # delta = 0.1 leaves d1 the window [X^0.1, D0] = [3.16, 4.64], which holds
    # no prefix of 6 = 3 * 2: the walk stops at the prefix 6 > D0
    spec = semi_linear_lower(X, delta=0.1)
    D0 = X ** sieveweights.sieve_exponents(1, 0.1, spec.eps)[1]
    with pytest.raises(InternalCheckError, match="no qualifying split for d=6"):
        well_factor(6, spec, D0, X, tables)
