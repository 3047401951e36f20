"""Property tests: the array kernels on the frequency grid against per-point
references (classify_arc, the defining Fourier sum, membership and the
per-point hybrid loop)."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from missingdigit import DigitSystem, classify_arc, contains, fourier, hybrid_sum
from missingdigit.circle import _KIND_CODE, arc_codes
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
