import math
import random

import numpy as np
import pytest

import oracles
from missingdigit import PreconditionError, PrimeTables


def test_spf_examples(tables):
    assert tables.spf[91] == 7
    assert tables.spf[9] == 3
    small = PrimeTables(10)
    assert small.spf[9] == 3


def test_prime_count_to_100(tables):
    assert len(tables.primes_upto(100)) == sum(oracles.is_prime(n) for n in range(101))


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 9, 10_000])
def test_primes_at_small_limits(limit):
    primes = PrimeTables(limit).primes
    assert primes.dtype == np.int64
    assert primes.tolist() == [n for n in range(limit + 1) if oracles.is_prime(n)]


def test_factor_multiplies_back(tables):
    for n in range(1, 10_001):
        prod = 1
        for p, e in tables.factor(n):
            assert tables.is_prime(p)
            prod *= p**e
        assert prod == n


def test_mangoldt_examples(tables):
    assert tables.mangoldt(8) == pytest.approx(math.log(2), rel=1e-15)
    assert tables.mangoldt(6) == 0.0
    assert tables.mangoldt(97) == pytest.approx(math.log(97), rel=1e-15)


def test_mobius_phi_divisor_identities(tables):
    nmax = 10_000
    mu_csum = np.zeros(nmax + 1)
    phi_csum = np.zeros(nmax + 1)
    for d in range(1, nmax + 1):
        mu_csum[d::d] += tables.mobius(d)
        phi_csum[d::d] += tables.totient(d)
    assert mu_csum[1] == 1
    assert not mu_csum[2:].any()
    assert (phi_csum[1:] == np.arange(1, nmax + 1)).all()


def test_tau_examples(tables):
    assert tables.tau(6, 2) == 4
    assert tables.tau(12, 3) == 18
    for n in range(1, 40):
        assert tables.tau(n, 3) == oracles.brute_tau(n, 3)
        assert tables.tau(n, 2) == oracles.brute_tau(n, 2)


def test_psi_progression_examples(tables):
    assert tables.psi_progression(20, 1, 0) == pytest.approx(19.26565833, abs=1e-6)
    # n = 1 mod 4 prime powers up to 20: 5, 9, 13, 17
    expect = math.log(5) + math.log(3) + math.log(13) + math.log(17)
    assert tables.psi_progression(20, 4, 1) == pytest.approx(expect, rel=1e-12)
    assert tables.psi_progression(10, 2, 0) == pytest.approx(3 * math.log(2), rel=1e-12)


def test_psi_progression_against_direct_sum(tables):
    rng = random.Random(11)
    for _ in range(15):
        y = rng.randrange(50, 800)
        d = rng.randrange(1, 12)
        c = rng.randrange(d)
        q = rng.choice([1, 2, 4, 8])
        m = rng.randrange(q)
        got = tables.psi_progression(y, d, c, q, m)
        assert got == pytest.approx(oracles.brute_psi(y, d, c, q, m), abs=1e-9)
    full = tables.psi_progression(10_000, 1, 0)
    assert full == pytest.approx(oracles.brute_psi(10_000, 1, 0), rel=1e-9)


def test_psi_three_mod_eight_flag(tables):
    got = tables.psi_progression(100, 1, 0, three_mod_eight=True)
    expect = sum(oracles.mangoldt(n) for n in range(1, 101) if n % 8 == 3)
    assert got == pytest.approx(expect, rel=1e-12)


def test_quadratic_class_examples(tables):
    assert tables.quadratic_class(5) == (True, True)
    assert tables.quadratic_class(9) == (False, False)
    assert tables.quadratic_class(10) == (True, False)
    assert tables.quadratic_class(1) == (True, True)
    assert tables.quadratic_class(2) == (True, False)


def test_quadratic_class_vs_pair_brute_force(tables):
    for n in range(1, 10_001):
        assert tables.quadratic_class(n).in_B == oracles.brute_primitive_two_squares(n), n


def test_in_bcal_array(tables):
    arr = tables.in_bcal_array(500)
    for n in range(1, 500):
        assert arr[n] == tables.quadratic_class(n).in_Bcal


def test_range_errors(tables):
    with pytest.raises(PreconditionError):
        tables.mangoldt(tables.limit + 1)
    with pytest.raises(PreconditionError):
        tables.psi_progression(tables.limit + 1, 1, 0)
    with pytest.raises(PreconditionError):
        tables.factor(0)
