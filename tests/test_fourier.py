import math
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from missingdigit import (
    BudgetError,
    DigitSystem,
    PreconditionError,
    contains,
    eval_hat,
    hybrid_sum,
    inversion_indicator,
    l1_and_cb,
    linf_probe,
)
from missingdigit import fourier
from missingdigit.digitset import contains_array
from missingdigit.fourier import spectrum
from missingdigit.primetables import factor


def test_eval_hat_trivial_values():
    ds = DigitSystem(10, 7, 3)
    assert eval_hat(ds, 3, 0.0) == pytest.approx(81, rel=1e-12)
    assert eval_hat(DigitSystem(10, 7), 3, 0.0) == pytest.approx(729, rel=1e-12)
    # b=10, a0=7, k=1, theta=1/2: alternating sum over allowed digits
    assert eval_hat(DigitSystem(10, 7), 1, 0.5) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("b,a0,r,k", [(3, 1, None, 4), (3, 1, 2, 4), (10, 7, 3, 2), (10, 9, 3, 2)])
def test_product_formula_equals_defining_sum(b, a0, r, k):
    ds = DigitSystem(b, a0, r)
    X = b**k
    for t in range(X):
        got = eval_hat(ds, k, t / X)
        want = oracles.brute_hat(b, a0, k, t / X, r)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), t


def test_product_form_rejects_zero_digit():
    # with a0 = 0 the canonical set is not a digit product; the transform refuses
    with pytest.raises(PreconditionError):
        eval_hat(DigitSystem(10, 0, 3), 2, 0.25)


def test_spectrum_matches_eval_hat():
    ds = DigitSystem(10, 7, 3)
    spec = spectrum(ds, 3)
    X = 1000
    for t in range(0, X, 37):
        assert spec[t] == pytest.approx(eval_hat(ds, 3, t / X), rel=1e-9, abs=1e-9)


def test_spectrum_cache_is_read_only():
    ds = DigitSystem(10, 7, 3)
    first = spectrum(ds, 3)
    with pytest.raises(ValueError):
        first[0] = 12345
    hits = spectrum.cache_info().hits
    assert spectrum(ds, 3) is first
    assert spectrum.cache_info().hits == hits + 1
    assert spectrum.cache_info().maxsize == 8
    assert first[0] == pytest.approx(81, rel=1e-12)
    # the inverse FFT that inversion_indicator reads is shared the same way
    inverted = fourier._inverted(ds, 3)
    with pytest.raises(ValueError):
        inverted[3] = 0.0
    assert fourier._inverted(ds, 3) is inverted
    assert fourier._inverted.cache_info().maxsize == 4
    assert inversion_indicator(ds, 3, 3) == inverted[3]


def test_trivial_bound_random_thetas():
    ds = DigitSystem(10, 7, 3)
    bound = 9**3 + 1e-9
    rng = random.Random(5)
    for _ in range(1000):
        assert abs(eval_hat(ds, 4, rng.random())) <= bound


def test_conjugate_symmetry():
    ds = DigitSystem(10, 7, 3)
    for a, q in [(1, 3), (2, 7), (5, 11), (1, 97)]:
        lhs = eval_hat(ds, 4, 1.0 - a / q)
        rhs = eval_hat(ds, 4, a / q)
        assert lhs == pytest.approx(rhs.conjugate(), rel=1e-9, abs=1e-9)


def test_inversion_identity_small():
    ds = DigitSystem(3, 1, 2)
    X = 9
    assert inversion_indicator(ds, 2, 8) == pytest.approx(1.0, abs=1e-9)
    for n in range(X):
        want = 1.0 if contains(ds, n) else 0.0
        assert inversion_indicator(ds, 2, n) == pytest.approx(want, abs=1e-6)


def test_inversion_identity_exhaustive_3_pow_4():
    ds = DigitSystem(3, 1, 2)
    k = 4
    for n in range(3**k):
        want = 1.0 if contains(ds, n) else 0.0
        assert inversion_indicator(ds, k, n) == pytest.approx(want, abs=1e-6)


def test_inversion_past_the_old_cap():
    # X = 3^13 > 10^6: one FFT under the scan budget, no size cap
    ds, k = DigitSystem(3, 1, 2), 13
    X = 3**k
    for n in (0, 1, 2, 5, 8, 12345, 3**12 + 2, X - 2, X - 1):
        want = 1.0 if contains(ds, n) else 0.0
        assert inversion_indicator(ds, k, n) == pytest.approx(want, abs=1e-6), n


def test_inversion_claims_the_budget(monkeypatch):
    # a cached spectrum does not make the inversion free: its FFT is claimed
    ds, k = DigitSystem(10, 9, 1), 4
    spectrum(ds, k)
    fourier._inverted.cache_clear()
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", "1000")
    with pytest.raises(BudgetError):
        inversion_indicator(ds, k, 1)
    monkeypatch.delenv("MISSINGDIGIT_BUDGET")
    assert inversion_indicator(ds, k, 1) == pytest.approx(1.0, abs=1e-6)


def test_inversion_error_does_not_depend_on_the_block_size(monkeypatch):
    # the largest error over all n at once, against the blocked maxima
    ds, k = DigitSystem(3, 1, 2), 7
    recovered = fourier._inverted(ds, k)
    want = np.abs(recovered - contains_array(ds, np.arange(3**k))).max()
    monkeypatch.setattr(fourier, "SCAN_BLOCK", 100)  # 21 slices, a ragged last one
    assert fourier.inversion_max_error(ds, k) == want


def test_inversion_error_scratch_is_bounded_by_the_block():
    # Over the cached inverse at X = 10^6 the scratch is a few int64 arrays
    # of a slice (the n, the digit quotients and remainders, the difference,
    # its absolute value).
    ds, k = DigitSystem(10, 7, 3), 6
    fourier._inverted(ds, k)
    tracemalloc.start()
    try:
        fourier.inversion_max_error(ds, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * fourier.SCAN_BLOCK, peak


def test_inversion_range_errors():
    ds = DigitSystem(3, 1, 2)
    with pytest.raises(PreconditionError):
        inversion_indicator(ds, 2, 9)


def test_l1_lower_bound_and_bands():
    ds = DigitSystem(10, 7, 3)
    stats = l1_and_cb(ds, 4)
    assert stats.l1_total >= 9**3
    b = 10
    lo, hi = 1 / (2 * math.log(b)), 2 * (1 + 3 / math.log(b))
    assert lo <= stats.c_b_estimate <= hi
    recomputed = math.log(stats.c_b_estimate * b * math.log(b) / (b - 1)) / math.log(b)
    assert stats.alpha_b_estimate == pytest.approx(recomputed, rel=1e-12)


def test_hybrid_brute_force_and_monotonicity():
    ds = DigitSystem(10, 7, 3)
    k, X = 4, 10**4
    got = hybrid_sum(ds, k, 4, 4)
    brute = 0.0
    npts = 0
    for q in range(5, 9):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            center = X * a / q
            for t in range(math.floor(center - 4), math.ceil(center + 4) + 1):
                if abs(t - center) < 4:
                    brute += abs(oracles.brute_hat(10, 7, k, (t % X) / X, 3))
                    npts += 1
    assert got["value"] == pytest.approx(brute, rel=1e-9)
    assert got["points"] == npts
    bigger = hybrid_sum(ds, k, 4, 8)
    assert bigger["value"] >= got["value"]
    tiny = hybrid_sum(ds, 2, 1, 1)
    assert tiny["value"] >= 0.0 and math.isfinite(tiny["value"])


def test_linf_probe():
    ds = DigitSystem(10, 7, 3)
    value, decay = linf_probe(ds, 6, 3, 1, 0.0)
    assert value <= 9**5 + 1e-6
    assert decay > 0
    with pytest.raises(PreconditionError):
        linf_probe(ds, 6, 1, 0, 0.0)  # q = 1 rejected
    with pytest.raises(PreconditionError):
        linf_probe(ds, 6, 10, 1, 0.0)  # q made only of primes dividing b
    with pytest.raises(PreconditionError):
        linf_probe(ds, 6, 3, 1, 0.4)  # eps outside the probe regime


def test_linf_probe_refuses_exactly_the_q_made_of_primes_of_b(monkeypatch):
    # the refusal comes before the transform; a stand-in keeps 76,000 probes cheap
    monkeypatch.setattr(fourier, "eval_hat", lambda ds, k, theta: 1.0)
    for b in range(3, 41):
        ds = DigitSystem(b, 1)
        k = 1
        while b ** (k / 3) <= 2000:
            k += 1
        for q in range(1, 2001):
            refused = all(b % p == 0 for p, _ in factor(q))
            try:
                linf_probe(ds, k, q, 1, 0.0)
            except PreconditionError as exc:
                assert refused and "coprime to b" in str(exc), (b, q)
            else:
                assert not refused, (b, q)


@pytest.mark.parametrize("b,k", [(10, 100), (1000, 1), (3, 200)])
def test_eval_hat_claims_k_times_b(monkeypatch, b, k):
    monkeypatch.setenv("MISSINGDIGIT_BUDGET", str(k * b))
    eval_hat(DigitSystem(b, 1), k, 0.25)
    with pytest.raises(BudgetError, match="digit product"):
        eval_hat(DigitSystem(b + 1, 1), k, 0.25)
    with pytest.raises(BudgetError, match="digit product"):
        eval_hat(DigitSystem(b, 1), k + 1, 0.25)
