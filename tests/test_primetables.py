import ast
import math
import pathlib

import numpy as np
import pytest

import oracles
from missingdigit import PreconditionError, PrimeTables, primetables
from missingdigit.primetables import units


def test_spf_examples(tables):
    assert tables.factor(91) == [(7, 1), (13, 1)]
    assert tables.factor(9) == [(3, 2)]
    small = PrimeTables(10)
    assert small.factor(9) == [(3, 2)]


def test_prime_count_to_100(tables):
    assert len(tables.primes_upto(100)) == sum(oracles.is_prime(n) for n in range(101))


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 9, 10_000])
def test_primes_at_small_limits(limit):
    primes = PrimeTables(limit).primes
    assert primes.dtype == np.int64
    assert primes.tolist() == [n for n in range(limit + 1) if oracles.is_prime(n)]


def argsort_sieve(limit):
    """The prime record built by concatenating the primes with their higher
    powers and sorting the whole array stably: the reference for the merge."""
    primes = primetables._odd_sieve_primes(limit)
    ns, logs = [primes], [np.log(primes.astype(np.float64))]
    for p in primes[: np.searchsorted(primes, math.isqrt(limit), side="right")].tolist():
        powers, q = [], p * p
        while q <= limit:
            powers.append(q)
            q *= p
        ns.append(np.array(powers, dtype=np.int64))
        logs.append(np.full(len(powers), math.log(p)))
    pp_n, pp_log = np.concatenate(ns), np.concatenate(logs)
    order = np.argsort(pp_n, kind="stable")
    return primes, pp_n[order], pp_log[order]


RECORD_LIMITS = sorted({p**m + e for p in (2, 3, 5, 7, 11, 13) for m in range(1, 7)
                        for e in (-1, 0, 1) if p**m + e >= 2} | {10**6})


@pytest.mark.parametrize("limit", RECORD_LIMITS)
def test_merged_record_equals_the_argsort_build(limit):
    sieve = primetables._build_sieve(limit)
    for got, want in zip(sieve[1:], argsort_sieve(limit)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    pp_n, pp_log = sieve.pp_n, sieve.pp_log
    assert (np.diff(pp_n) > 0).all()
    # the log routine of each entry: np.log at the primes, math.log(p) at the
    # higher powers (the two can differ in the last bit)
    at_prime = np.isin(pp_n, sieve.primes)
    assert pp_log[at_prime].tobytes() == np.log(sieve.primes.astype(np.float64)).tobytes()
    higher = pp_n[~at_prime].tolist()
    assert pp_log[~at_prime].tolist() == [math.log(primetables.factor(n)[0][0]) for n in higher]


def test_factor_multiplies_back(tables):
    for n in range(1, 10_001):
        prod = 1
        for p, e in tables.factor(n):
            assert oracles.is_prime(p)
            prod *= p**e
        assert prod == n


def test_mobius_phi_divisor_identities(tables):
    nmax = 10_000
    mu_csum = np.zeros(nmax + 1)
    phi_csum = np.zeros(nmax + 1)
    for d in range(1, nmax + 1):
        mu_csum[d::d] += tables.mobius(d)
        phi_csum[d::d] += primetables.totient(d)
    assert mu_csum[1] == 1
    assert not mu_csum[2:].any()
    assert (phi_csum[1:] == np.arange(1, nmax + 1)).all()


def test_tau_examples(tables):
    assert tables.tau(6, 2) == 4
    assert tables.tau(12, 3) == 18
    for n in range(1, 40):
        assert tables.tau(n, 3) == oracles.brute_tau(n, 3)
        assert tables.tau(n, 2) == oracles.brute_tau(n, 2)


def test_units_agree_with_gcd():
    for d in range(1, 2001):
        assert units(d).tolist() == [math.gcd(c, d) == 1 for c in range(d)]


# each row keeps its earlier test id: its index, then the least numerator 1
REDUCED_ROWS = {"qs1-1": [1], "qs2-1": [2], "qs4-1": list(range(2, 61)),
                "qs5-1": list(range(31, 61)), "qs6-1": [q for q in range(2, 90) if 360 % q]}


@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("block", [1, 5, 64, 1 << 17])
@pytest.mark.parametrize("qs", list(REDUCED_ROWS.values()), ids=list(REDUCED_ROWS))
def test_reduced_fractions_agree_with_gcd(qs, block, half, monkeypatch):
    monkeypatch.setattr(primetables, "SCAN_BLOCK", block)
    rows = np.array(qs, dtype=np.int64)
    blocks = list(primetables.reduced_fractions(rows, half=half))
    got = [(q, a) for q_arr, a_arr in blocks for q, a in zip(q_arr.tolist(), a_arr.tolist())]
    assert got == [(q, a) for q in qs for a in range(1, q)
                   if math.gcd(a, q) == 1 and (2 * a <= q or not half)]
    # rows max(1, block // width) at a time, width = qs[-1] - 1
    width = qs[-1] - 1
    q_block = max(1, block // width) if width else None
    assert len(blocks) == (-(-len(qs) // q_block) if width else 0)
    for i, (q_arr, a_arr) in enumerate(blocks):
        assert q_arr.dtype == a_arr.dtype == np.int64
        assert set(q_arr.tolist()) <= set(qs[i * q_block : (i + 1) * q_block])


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


def test_in_bcal_array_reads_the_primes_to_the_square_root():
    size = 103 * 103 + 1  # the sift reads the primes up to 103, which is = 3 (mod 4)
    want = PrimeTables(size).in_bcal_array(size)
    assert np.array_equal(PrimeTables(103).in_bcal_array(size), want)
    with pytest.raises(PreconditionError, match="y=103 exceeds table limit 102"):
        PrimeTables(102).in_bcal_array(size)


def test_primes_upto_refuses_past_the_limit(tables):
    assert tables.primes_upto(tables.limit).tolist() == tables.primes.tolist()
    message = f"y={tables.limit + 1} exceeds table limit {tables.limit}"
    with pytest.raises(PreconditionError, match=message):
        tables.primes_upto(tables.limit + 1)
    with pytest.raises(PreconditionError, match=message):
        tables.prime_powers_upto(tables.limit + 1)


def test_range_errors(tables):
    with pytest.raises(PreconditionError):
        tables.factor(0)


# numpy's remainder calls, each one hardware division per entry; an int64
# array's remainder by a scalar goes through primetables.mod instead.  A
# static check cannot see % on an array: CHANGES.md lists the sites swept.
NUMPY_REMAINDERS = {"divmod", "remainder", "fmod", "mod"}


def numpy_remainders(source: str) -> list[str]:
    """The np.divmod, np.remainder, np.fmod and np.mod in source, by line,
    called or not, and those names imported from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_REMAINDERS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in NUMPY_REMAINDERS]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_remainder_guard_sees_each_spelling():
    source = ("q, r = np.divmod(a, 3)\nr = numpy.remainder(a, 3)\nf = np.fmod\n"
              "from numpy import mod\nr = a % 3\nq, r = divmod(7, 3)\n")
    assert numpy_remainders(source) == ["1: np.divmod", "2: np.remainder", "3: np.fmod", "4: mod"]


def test_the_package_takes_no_numpy_remainder():
    package = pathlib.Path(primetables.__file__).parent
    found = [f"{path.name}:{hit}" for path in sorted(package.glob("*.py"))
             for hit in numpy_remainders(path.read_text())]
    assert found == []
