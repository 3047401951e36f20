"""Library refusals that no CLI path reaches: one case per site, each pinned
by its exception type and a fragment of its message."""

import re

import numpy as np
import pytest

from missingdigit import (circle, digitset, expsums, fourier, primetables, sievenumerics,
                          sieveweights)
from missingdigit.digitset import DigitSystem
from missingdigit.errors import PreconditionError
from missingdigit.reporting import canonical_json, render

DS = DigitSystem(10, 7, 3)
TA = expsums.dirichlet_approx(0.3, 10, 1000)

CASES = {
    # circle
    "classify_arc t out of range": (lambda t: circle.classify_arc(10, 10, 2.0), "not in [0, 10)"),
    "ramanujan_sum q < 1": (lambda t: circle.ramanujan_sum(0, 1), "q must be >= 1"),
    "ProgressionCounts X not a power": (
        lambda t: circle.ProgressionCounts(t, DS, 999), "not a power of the base"),
    "weighted_discrepancy unknown kind": (
        lambda t: circle.weighted_discrepancy(t, DS, 1000, "bogus"), "unknown weight kind"),
    # digitset
    "DigitSystem residue out of range": (lambda t: DigitSystem(10, 7, 10), "residue 10 not in"),
    "contains_array negative": (
        lambda t: digitset.contains_array(DS, np.array([-1])), "nonnegative"),
    "member_mask k < 1": (lambda t: digitset.member_mask(DS, 0), "k must be >= 1"),
    "count k < 1": (lambda t: digitset.count(DS, 0), "k must be >= 1"),
    "rank of a non-member": (lambda t: digitset.rank(DS, 3, 7), "is not a member below"),
    # expsums
    "ThetaApprox q < 1": (
        lambda t: expsums.ThetaApprox(0.5, 1, 0, 0.0, 10), "q must be >= 1"),
    "ThetaApprox beta past 1/q^2": (
        lambda t: expsums.ThetaApprox(1.0, 1, 2, 0.5, 10), "exceeds 1/q^2"),
    "min_sum M < 1": (lambda t: expsums.min_sum("linear", 0, 10, TA), "M must be >= 1"),
    "min_sum unknown mode": (lambda t: expsums.min_sum("cubic", 5, 10, TA), "unknown mode"),
    "bilinear_sum X - 1 past int64": (
        lambda t: expsums.bilinear_sum({1: 1}, {1: 1}, 2**63 + 2, TA), "fit in int64"),
    "VaughanSplit U < 2": (lambda t: expsums.VaughanSplit(100, 1), "U must be >= 2"),
    # fourier
    "spectrum k < 1": (lambda t: fourier.spectrum(DS, 0), "k must be >= 1"),
    "linf_probe gcd(a, q) > 1": (
        lambda t: fourier.linf_probe(DS, 9, 4, 2, 0.0), "need gcd(a, q) = 1"),
    "linf_probe q past b^(k/3)": (
        lambda t: fourier.linf_probe(DS, 3, 11, 1, 0.0), "not below b^(k/3)"),
    # primetables
    "tau h < 1": (lambda t: primetables.tau(4, 0), "h must be >= 1"),
    "PrimeTables limit < 2": (lambda t: primetables.PrimeTables(1), "limit must be >= 2"),
    "prime_powers_upto d < 1": (lambda t: t.prime_powers_upto(10, 0), "d must be >= 1"),
    # sievenumerics
    "I_sem rho <= 0": (lambda t: sievenumerics.I_sem(0.0, 3.0), "rho must be positive"),
    "I_lin rho <= 0": (lambda t: sievenumerics.I_lin(-1.0, 3.0), "rho must be positive"),
    "euler_constants p_limit < 1000": (
        lambda t: sievenumerics.euler_constants(t, 999), "p_limit must be >= 1000"),
    "mertens_3mod4 y < 2": (lambda t: sievenumerics.mertens_3mod4(t, 1, None), "y must be >= 2"),
    "t_weight_limit X < 2": (lambda t: sievenumerics.t_weight_limit(1, 3.0), "X must be >= 2"),
    "b_over_phi b < 2": (lambda t: sievenumerics.b_over_phi(1), "b must be >= 2"),
    # sieveweights
    "SieveSpec bad degree": (
        lambda t: sieveweights.SieveSpec(3, "lower", 100.0, 10.0), "degree must be 1"),
    "SieveSpec bad side": (
        lambda t: sieveweights.SieveSpec(1, "middle", 100.0, 10.0), "side must be"),
    "spec at X <= 0": (lambda t: sieveweights.semi_linear_lower(0), "X must be > 0"),
    "support_member d < 1": (
        lambda t: sieveweights.support_member(sieveweights.semi_linear_lower(10**6), 0, t),
        "d must be >= 1"),
    # 97 * 89: the second prime of the chain fails p1 p2^2 <= D = X^0.4274...
    "well_factor d outside the support": (
        lambda t: sieveweights.well_factor(
            97 * 89, sieveweights.semi_linear_lower(10**6), 100.0, 10**6, t),
        "not in the sieve support"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_refusal(tables, name):
    call, fragment = CASES[name]
    with pytest.raises(PreconditionError, match=re.escape(fragment)):
        call(tables)


def test_render_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        render({}, "xml")


def test_canonical_json_refuses_an_unsupported_type():
    with pytest.raises(TypeError, match="cannot serialize object"):
        canonical_json(object())
