import random
import re

import pytest

from missingdigit import (
    DigitSystem,
    PreconditionError,
    contains,
    count,
    count_positive,
    members,
    rank,
    unrank,
)
from missingdigit.digitset import contains_array, member_mask
from missingdigit.errors import BudgetError

import numpy as np
import oracles


def test_contains_examples():
    assert contains(DigitSystem(10, 7), 2024)
    assert not contains(DigitSystem(10, 7), 17)
    assert contains(DigitSystem(10, 7, 3), 13)
    assert not contains(DigitSystem(10, 7, 3), 24)  # wrong last digit


def test_contains_matches_digit_scan():
    rng = random.Random(7)
    for b, a0 in [(3, 1), (10, 7), (10, 0), (16, 5)]:
        ds = DigitSystem(b, a0)
        for _ in range(400):
            n = rng.randrange(0, b**6)
            assert contains(ds, n) == oracles.digits_avoid(n, b, a0), (b, a0, n)


def test_contains_array_agrees():
    ds = DigitSystem(10, 7, 3)
    ns = np.arange(0, 5000)
    vec = contains_array(ds, ns)
    for n in range(5000):
        assert vec[n] == contains(ds, n)


def test_zero_membership_convention():
    assert contains(DigitSystem(10, 7), 0)
    assert not contains(DigitSystem(10, 0), 0)


def test_count_examples():
    assert count(DigitSystem(10, 7), 2) == 81
    assert count(DigitSystem(10, 7, 3), 3) == 81
    # excluded digit 0: product formula does not apply; enumeration gives 90
    assert count(DigitSystem(10, 0), 2) == 90
    assert count(DigitSystem(10, 0), 2) == len(oracles.brute_members(10, 0, 2))


@pytest.mark.parametrize("b,a0", [(3, 1), (5, 4), (10, 7), (10, 2), (16, 15)])
def test_count_matches_enumeration(b, a0):
    for k in (1, 2, 3):
        assert count(DigitSystem(b, a0), k) == len(oracles.brute_members(b, a0, k))
        for r in (0, 1, b - 1):
            if r == a0:
                continue
            ds = DigitSystem(b, a0, r)
            assert count(ds, k) == len(oracles.brute_members(b, a0, k, r))


def test_count_positive():
    assert count_positive(DigitSystem(10, 7), 2) == 80  # drops n = 0
    assert count_positive(DigitSystem(10, 0), 2) == 90


def test_members_examples():
    assert members(DigitSystem(3, 1), 1) == [0, 2]
    assert members(DigitSystem(3, 1), 2) == [0, 2, 6, 8]


@pytest.mark.parametrize(
    "ds,k",
    [
        (DigitSystem(3, 1), 4),
        (DigitSystem(3, 0), 4),
        (DigitSystem(10, 7, 3), 2),
        (DigitSystem(10, 0, 3), 2),
        (DigitSystem(5, 2, 0), 3),
    ],
)
def test_members_sorted_complete_and_ranked(ds, k):
    got = members(ds, k)
    assert got == sorted(set(got))
    assert got == oracles.brute_members(ds.base, ds.excluded, k, ds.residue)
    for i, n in enumerate(got):
        assert unrank(ds, k, i) == n
        assert rank(ds, k, n) == i


def test_members_claim_the_mask_of_b_to_the_k(monkeypatch):
    # 9^6 = 531441 members fit the budget; the mask's 10^6 steps do not
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", str(10**6 - 1))
    with pytest.raises(BudgetError, match=re.escape("membership mask of 10^6 values")):
        members(DigitSystem(10, 3), 6)


def test_unrank_example():
    assert unrank(DigitSystem(3, 1), 2, 3) == 8


def test_unrank_indexes_digits_without_the_digit_tuple():
    # the tuple of b - 1 = 10^7 - 1 allowed digits would take seconds and 380 MiB
    ds = DigitSystem(10**7, 1)
    assert unrank(ds, 1, 5) == 6
    assert rank(ds, 1, 6) == 5
    assert "allowed" not in ds.__dict__


def test_unrank_out_of_range():
    with pytest.raises(PreconditionError):
        unrank(DigitSystem(3, 1), 2, 4)
    with pytest.raises(PreconditionError):
        unrank(DigitSystem(3, 1), 2, -1)


def test_density_constants():
    ds = DigitSystem(10, 7)
    assert abs(ds.zeta - 0.9542425094393249) < 1e-15
    assert ds.kappa.numerator == 5 and ds.kappa.denominator == 6
    kappa5 = DigitSystem(10, 5).kappa
    assert kappa5.numerator == 10 and kappa5.denominator == 9


def test_zeta_increasing_and_kappa_bounded():
    prev = 0.0
    for b in range(3, 101):
        z = DigitSystem(b, 1).zeta
        assert z > prev
        prev = z
        for a0 in (0, 1, b - 1):
            kap = DigitSystem(b, a0).kappa
            assert 0 < kap < 2


def test_invalid_systems():
    with pytest.raises(PreconditionError):
        DigitSystem(2, 1)
    with pytest.raises(PreconditionError):
        DigitSystem(10, 10)
    with pytest.raises(PreconditionError):
        DigitSystem(10, 7, 7)
    with pytest.raises(PreconditionError):
        contains(DigitSystem(10, 7), -1)


@pytest.mark.parametrize("b", range(3, 12))
def test_member_mask_matches_contains_array_for_every_system(b):
    # the largest k with b^k <= 5 * 10^4: more levels of the a0 = 0 step
    # than the property test draws
    k = max(j for j in range(1, 12) if b**j <= 5 * 10**4)
    values = np.arange(b**k)
    for a0 in range(b):
        for r in [None] + [r for r in range(b) if r != a0]:
            ds = DigitSystem(b, a0, r)
            mask = member_mask(ds, k)
            assert mask.dtype == bool and mask.ndim == 1 and mask.flags.c_contiguous
            assert mask.shape == (b**k,) and not mask.flags.writeable
            assert np.array_equal(mask, contains_array(ds, values)), (b, a0, r, k)


def concatenated_zero_mask(ds, k):
    """The a0 = 0 mask built level by level with one concatenation per level:
    the reference for the build into one preallocated array."""
    b = ds.base
    digits = np.arange(b)
    full = mask = digits != 0 if ds.residue is None else digits == ds.residue
    for j in range(1, k):
        level = np.empty((b, full.size), dtype=bool)
        level[:] = full
        level[0] = False
        full = level.ravel()
        mask = np.concatenate((mask, full[b**j :]))
    return mask


@pytest.mark.parametrize("b", range(3, 12))
def test_zero_excluded_mask_equals_the_concatenation_build(b):
    for r in [None, *range(1, b)]:
        ds = DigitSystem(b, 0, r)
        for k in range(1, 12):
            if b**k > 10**6:
                break
            mask = member_mask(ds, k)
            assert mask.tobytes() == concatenated_zero_mask(ds, k).tobytes(), (b, r, k)
            assert mask.dtype == bool and not mask.flags.writeable


def row_copy_mask(ds, k):
    """The a0 != 0 mask built as one fresh (b, b^j) array of row copies per
    level: the reference for the build into one preallocated array."""
    b = ds.base
    digits = np.arange(b)
    mask = digits != ds.excluded if ds.residue is None else digits == ds.residue
    for j in range(1, k):
        level = np.empty((b, mask.size), dtype=bool)
        level[:] = mask
        level[ds.excluded] = False
        mask = level.ravel()
    return mask


@pytest.mark.parametrize("b", range(3, 12))
def test_nonzero_excluded_mask_equals_the_row_copy_build(b):
    for a0 in range(1, b):
        for r in [None] + [r for r in range(b) if r != a0]:
            ds = DigitSystem(b, a0, r)
            for k in range(1, 12):
                if b**k > 10**6:
                    break
                mask = member_mask(ds, k)
                assert mask.tobytes() == row_copy_mask(ds, k).tobytes(), (b, a0, r, k)
                assert mask.dtype == bool and not mask.flags.writeable
