import cmath
import gc
import math
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import oracles
from missingdigit import (
    BudgetError,
    PreconditionError,
    PrimeTables,
    ThetaApprox,
    bilinear_sum,
    dirichlet_approx,
    lambda_hat,
    mikawa_w,
    min_sum,
    vaughan_decompose,
)
from missingdigit import cli, expsums
from missingdigit.expsums import type_one_inner, type_one_max, type_one_sum


def test_dirichlet_examples():
    ta = dirichlet_approx(1 / 3, 10, 100)
    assert (ta.a, ta.q) == (1, 3) and ta.beta == 0.0
    ta = dirichlet_approx(0.49999, 100, 100)
    assert ta.q == 2 and abs(ta.beta) <= 1 / 200
    golden = (math.sqrt(5) - 1) / 2
    ta = dirichlet_approx(golden, 12, 100)
    assert (ta.a, ta.q) == (5, 8)


def test_dirichlet_guarantees_random():
    rng = random.Random(3)
    for _ in range(1000):
        theta = rng.random()
        Q = rng.randrange(1, 500)
        ta = dirichlet_approx(theta, Q, 10**4)
        assert 1 <= ta.q <= Q
        assert abs(ta.beta) <= 1.0 / (ta.q * Q) + 1e-15
        assert math.gcd(ta.a, ta.q) == 1


def test_dirichlet_refuses_q_Q_past_the_float_range():
    # 2^1023 converts to a float, the second convergent's q Q = 2^1024 does not
    with pytest.raises(PreconditionError, match="takes q Q past the float range at q=2"):
        dirichlet_approx(0.4142135623730951, 2**1023, 100)
    assert dirichlet_approx(0.0, 2**1023, 100).q == 1


def test_theta_approx_validation():
    with pytest.raises(PreconditionError):
        ThetaApprox(theta=0.5, a=2, q=4, beta=0.0, X=100)  # not reduced
    with pytest.raises(PreconditionError):
        ThetaApprox(theta=0.6, a=1, q=2, beta=0.2, X=100)  # |beta| > 1/q^2... inconsistent too
    ta = ThetaApprox(theta=0.5, a=1, q=2, beta=0.0, X=100)
    assert ta.H == 1.0 and ta.qH == 2.0


def test_min_sum_examples():
    ta0 = dirichlet_approx(0.0, 10, 100)
    assert min_sum("linear", 5, 7, ta0).value == pytest.approx(35.0)
    ta_half = dirichlet_approx(0.5, 10, 100)
    assert min_sum("linear", 2, 10, ta_half).value == pytest.approx(12.0)
    ta_third = dirichlet_approx(1 / 3, 10, 100)
    assert min_sum("hyperbola", 1, 100, ta_third).value == pytest.approx(3.0)


def test_min_sum_saturated_terms():
    # theta = 1/3 exactly: every m divisible by 3 takes the cap N
    ta = dirichlet_approx(1 / 3, 10, 100)
    M, N = 17, 1000
    got = min_sum("linear", M, N, ta).value
    expect = 0.0
    for m in range(1, M + 1):
        expect += N if m % 3 == 0 else min(N, 1.0 / (min(m % 3, 3 - m % 3) / 3))
    assert got == pytest.approx(expect)
    assert sum(1 for m in range(1, M + 1) if m % 3 == 0) >= M // 3


def test_min_sum_bound_shapes():
    ta = dirichlet_approx(0.123456, 50, 1000)
    res = min_sum("hyperbola", 20, 1000, ta)
    assert res.bound > 0 and math.isfinite(res.bound)
    res0 = min_sum("linear", 20, 10, dirichlet_approx(0.5, 10, 100))
    assert res0.bound == math.inf  # degenerate at beta = 0


def test_lambda_hat_matches_psi_and_oracle(tables):
    assert lambda_hat(tables, 10**4, 7, 3, 0.0).real == pytest.approx(
        oracles.brute_psi(10**4 - 1, 7, 3), rel=1e-12
    )
    got = lambda_hat(tables, 30, 1, 0, 0.5)
    want = sum(oracles.mangoldt(n) * cmath.exp(2j * math.pi * n * 0.5) for n in range(1, 30))
    assert got == pytest.approx(want, abs=1e-9)
    assert abs(lambda_hat(tables, 100, 1, 0, 0.25)) <= lambda_hat(tables, 100, 1, 0, 0.0).real


def test_bilinear_examples(tables):
    ta = dirichlet_approx(0.37, 20, 100)
    res = bilinear_sum({1: 1.0}, {1: 1.0}, 10, ta)
    assert res.value == pytest.approx(cmath.exp(2j * math.pi * 0.37), abs=1e-12)
    ta0 = dirichlet_approx(0.0, 5, 5)
    assert bilinear_sum({2: 1.0}, {2: 1.0}, 5, ta0).value == pytest.approx(1.0)


def test_bilinear_progression_and_convolution(tables):
    rng = random.Random(19)
    alpha1 = {m: rng.choice([-1.0, 1.0, 0.5]) for m in range(3, 7)}
    alpha2 = {n: rng.choice([-1.0, 2.0]) for n in range(5, 11)}
    X, d, c = 60, 3, 1
    theta = 0.2718
    ta = dirichlet_approx(theta, 30, X)
    got = bilinear_sum(alpha1, alpha2, X, ta, d, c)
    want = 0.0 + 0.0j
    for m, w1 in alpha1.items():
        for n, w2 in alpha2.items():
            if m * n < X and (m * n) % d == c:
                want += w1 * w2 * cmath.exp(2j * math.pi * m * n * theta)
    assert got.value == pytest.approx(want, abs=1e-9)
    norm = math.sqrt(sum(v * v for v in alpha1.values()))
    assert got.norm1 == pytest.approx(norm, rel=1e-12)
    # theta = 0, d = 1 reduces to the plain convolution count
    got0 = bilinear_sum(alpha1, alpha2, X, dirichlet_approx(0.0, 5, X))
    want0 = sum(
        w1 * w2 for m, w1 in alpha1.items() for n, w2 in alpha2.items() if m * n < X
    )
    assert got0.value == pytest.approx(want0, abs=1e-12)
    # a modulus d >= X (here past int64) leaves the products m n = c alone
    assert bilinear_sum(alpha1, alpha2, X, ta, 10**30, 36) == bilinear_sum(
        alpha1, alpha2, X, ta, X - 1, 36)


def test_bilinear_and_type_one_reject_X_below_1_and_d_below_1(tables):
    ta = dirichlet_approx(0.3, 10, 100)
    one = {1: 1.0}
    bad_calls = [
        lambda: bilinear_sum(one, one, 0, ta),  # ZeroDivisionError before
        lambda: bilinear_sum(one, one, -5, ta),
        lambda: bilinear_sum(one, one, 10, ta, d=0),
        lambda: bilinear_sum({0: 1.0}, one, 10, ta),  # keys are indices >= 1
        lambda: type_one_sum({0: (1.0, 0)}, 5, one, 0, 50, 0.1),  # ZeroDivisionError before
        lambda: type_one_sum({0: (0.0, 0)}, 5, one, 0, 50, 0.1),
        lambda: type_one_sum({1: (1.0, 0)}, 5, one, 0, 0, 0.1),
        lambda: type_one_inner(-1, 0, 5, one, 0, 50, 0.1),  # returned 0j before
        lambda: type_one_inner(0, 0, 5, one, 0, 50, 0.1),
        lambda: type_one_inner(3, 1, 5, one, 0, 0, 0.1),
        lambda: type_one_max(tables, 3, 2, 5, one, 0, 0, 0.1),
        lambda: type_one_max(tables, 3, 2, 5, one, 2, 50, 0.1),
    ]
    for call in bad_calls:
        with pytest.raises(PreconditionError):
            call()


def test_vaughan_identity_seeded_trials(tables):
    X, U = 10**4, 22
    rng = random.Random(1)
    worst = 0.0
    for _ in range(100):
        d = rng.randrange(1, 51)
        c = rng.randrange(d)
        theta = rng.random()
        parts = vaughan_decompose(tables, X, U, d, c, theta)
        direct = lambda_hat(tables, X, d, c, theta)
        worst = max(worst, abs(parts.total - direct))
    assert worst <= 1e-6


def test_vaughan_arrays_are_read_only(tables):
    split = expsums.VaughanSplit(500, 8)
    parts = split(1, 0, 0.3)
    for arr in split._arrays + expsums._vaughan_arrays(500, 8):
        with pytest.raises(ValueError):
            arr[1] = 1.0
    assert split(1, 0, 0.3) == parts
    assert vaughan_decompose(tables, 500, 8, 1, 0, 0.3) == parts  # each call builds its own
    assert vaughan_decompose(tables, 500, 8, 1, 0, 0.3) == parts


def test_vaughan_split_keeps_no_table():
    table = PrimeTables(1000)
    alive = weakref.ref(table)
    parts = vaughan_decompose(table, 777, 9, 1, 0, 0.3)
    del table
    gc.collect()
    assert alive() is None
    assert vaughan_decompose(PrimeTables(1000), 777, 9, 1, 0, 0.3) == parts
    # the arrays read their own table, so a caller's limit changes nothing
    assert vaughan_decompose(PrimeTables(2), 777, 9, 1, 0, 0.3) == parts


def test_a_dropped_split_frees_its_arrays():
    split = expsums.VaughanSplit(5000, 17)
    split(1, 0, 0.3)
    alive = [weakref.ref(arr) for arr in split._arrays]
    del split
    gc.collect()
    assert [ref() is None for ref in alive] == [True] * 5


def test_vaughan_rejects_U_past_X_and_d_below_1(tables):
    with pytest.raises(PreconditionError):
        vaughan_decompose(tables, 30, 50, 1, 0, 0.3)
    with pytest.raises(PreconditionError):
        vaughan_decompose(tables, 30, 30, 1, 0, 0.3)
    with pytest.raises(PreconditionError):
        vaughan_decompose(tables, 30, 5, 0, 0, 0.3)
    assert vaughan_decompose(tables, 30, 29, 1, 0, 0.3).total == pytest.approx(
        lambda_hat(tables, 30, 1, 0, 0.3), abs=1e-12
    )


def test_vaughan_components_real_at_theta_zero(tables):
    parts = vaughan_decompose(tables, 10**3, 10, 1, 0, 0.0)
    for s in parts[:5]:
        assert abs(s.imag) < 1e-12


def test_vaughan_components_against_convolution_oracle(tables):
    X, U, d, c = 50, 4, 1, 0
    mu = [0] + [oracles.mobius(n) for n in range(1, X)]
    lam = [0.0] + [oracles.mangoldt(n) for n in range(1, X)]

    def conv_at(n, f, g):
        return sum(f[a] * g[n // a] for a in range(1, n + 1) if n % a == 0)

    f_arr = [0.0] * X
    for m in range(1, X):
        f_arr[m] = sum(
            mu[a] * lam[m // a]
            for a in range(1, min(U, m) + 1)
            if m % a == 0 and m // a <= U
        )
    s1 = sum(lam[n] for n in range(1, min(U, X - 1) + 1))
    s2 = sum(
        mu[a] * math.log(n // a)
        for n in range(1, X)
        for a in range(1, min(U, n) + 1)
        if n % a == 0
    )
    s3 = sum(conv_at(n, [w if i <= U else 0.0 for i, w in enumerate(f_arr)], [1.0] * X) for n in range(1, X))
    s4 = sum(conv_at(n, [w if i > U else 0.0 for i, w in enumerate(f_arr)], [1.0] * X) for n in range(1, X))
    lam_big = [w if i > U else 0.0 for i, w in enumerate(lam)]
    mu_big = [w if i > U else 0.0 for i, w in enumerate(mu)]
    g = [conv_at(n, lam_big, [1.0] * X) if n else 0.0 for n in range(X)]
    s5 = sum(conv_at(n, mu_big, g) for n in range(1, X))

    parts = vaughan_decompose(tables, X, U, d, c, 0.0)
    assert parts.s1.real == pytest.approx(s1, abs=1e-9)
    assert parts.s2.real == pytest.approx(s2, abs=1e-9)
    assert parts.s3.real == pytest.approx(s3, abs=1e-9)
    assert parts.s4.real == pytest.approx(s4, abs=1e-9)
    assert parts.s5.real == pytest.approx(s5, abs=1e-9)


def _add_by_cofactor(out, ms, values, cofactors, factor=None):
    last = len(out) - 1
    for j in cofactors:
        cut = np.searchsorted(ms, last // j, side="right")
        out[ms[:cut] * j] += values[:cut] if factor is None else values[:cut] * factor[j]


def four_idiom_vaughan_arrays(X, U):
    """The five Vaughan arrays built with a strided add per m (a2, a3, a4),
    an np.add.at scatter (f) and a gather per cofactor (g, a5): the reference
    for the one divisor-sum kernel."""
    tables = PrimeTables(X)
    mu = tables.mobius_range(X).astype(np.float64)
    lam = tables.mangoldt_range(X)
    a1 = lam.copy()
    a1[U + 1 :] = 0.0
    a2 = np.zeros(X)
    logs = np.log(np.arange(1, X))
    for m in range(1, min(U, X - 1) + 1):
        if mu[m] != 0:
            top = (X - 1) // m
            a2[m : m * top + 1 : m] += mu[m] * logs[:top]
    f = np.zeros(X)
    small_pp, small_lg = tables.prime_powers_upto(U)
    for m in range(1, U + 1):
        if mu[m] != 0:
            prods = m * small_pp
            keep = prods < X
            np.add.at(f, prods[keep], mu[m] * small_lg[keep])
    a3 = np.zeros(X)
    for m in range(1, min(U, X - 1) + 1):
        if f[m] != 0:
            a3[m::m] += f[m]
    a4 = np.zeros(X)
    for m in range(U + 1, min(U * U, X - 1) + 1):
        if f[m] != 0:
            a4[m::m] += f[m]
    J = (X - 1) // (U + 1)
    g = np.zeros(J + 1)
    big, big_lg = tables.prime_powers_upto(J)
    _add_by_cofactor(g, big[small_pp.size :], big_lg[small_pp.size :], range(J // (U + 1), 0, -1))
    a5 = np.zeros(X)
    sqfree = np.flatnonzero(mu[U + 1 :]) + (U + 1)
    _add_by_cofactor(a5, sqfree, mu[sqfree], (j for j in range(J, U, -1) if g[j] != 0.0), g)
    return a1, a2, a3, a4, a5


@pytest.mark.parametrize("X, U", [
    (150_000, math.ceil(150_000 ** (1 / 3))),  # the kernels workload's shapes
    (400_000, math.ceil(400_000 ** (1 / 3))),
    (20_000, 28), (30_011, 40),  # the golden vaughan-check lines
    (3_000, 2), (20_000, 2), (11, 10), (3, 2),
])
def test_vaughan_arrays_equal_the_four_idiom_build(X, U):
    arrays = expsums._vaughan_arrays(X, U)
    for name, got, want in zip(("a1", "a2", "a3", "a4", "a5"), arrays, four_idiom_vaughan_arrays(X, U)):
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), (X, U, name)


def _divisor_sums_loop(out, coeffs, ms, seq):
    for m in ms.tolist():
        for j in range(1, len(seq)):
            if m * j < len(out):
                out[m * j] += coeffs[m] * seq[j]


@pytest.mark.parametrize("n_ms, n_seq", [(6, 40), (39, 40), (40, 40), (150, 12), (150, 1)])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_divisor_sums_equal_the_loop_in_increasing_m(n_ms, n_seq, dtype):
    # n_ms <= n_seq - 1 takes the strided add per m, the rest the add per j
    rng = np.random.default_rng(n_ms * 1000 + n_seq)
    size = 400
    ms = np.sort(rng.choice(np.arange(1, 2 * size), n_ms, replace=False))
    if dtype is np.float64:
        coeffs, seq, out = (rng.standard_normal(n) for n in (2 * size, n_seq, size))
    else:
        coeffs, seq, out = (rng.integers(1, 50, n) for n in (2 * size, n_seq, size))
    coeffs[ms[::3]] = 0
    coeffs[ms[1::3]] *= -1
    seq[2::3] = 0
    seq[0] = np.nan if dtype is np.float64 else 10**9  # j starts at 1
    want = out.copy()
    _divisor_sums_loop(want, coeffs, ms, seq)
    expsums._divisor_sums(out, coeffs, ms, seq)
    assert out.dtype == dtype and out.tobytes() == want.tobytes()


# -- batched divisor sums and shared trial buffers, against what they replaced ----


def _divisor_sums_per_j(out, coeffs, ms, seq):
    """The divisor-sum kernel before its pairs were batched: one strided add
    per m, else one searchsorted and one fancy-indexed add per nonzero seq[j],
    from the largest j down."""
    last, top = len(out) - 1, len(seq) - 1
    if len(ms) <= top:
        for m in ms.tolist():
            t = min(top, last // m)
            out[m : m * t + 1 : m] += coeffs[m] * seq[1 : t + 1]
        return
    values = coeffs[ms]
    for j in (np.flatnonzero(seq[1:]) + 1)[::-1].tolist():
        cut = np.searchsorted(ms, last // j, side="right")
        out[ms[:cut] * j] += values[:cut] * seq[j]


def _fresh_vaughan_sums(arrays, X, d, c, theta):
    """vaughan_decompose before its trials shared buffers: every temporary
    made afresh, the angle reduced out of place."""
    arrays = [arr[c % d :: d] for arr in arrays]
    ns = np.arange(c % d, X, d, dtype=np.int64)
    x = ns * theta
    ang = x - np.floor(x)
    ang *= expsums.TWO_PI
    phases = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=phases.real)
    np.sin(ang, out=phases.imag)
    return expsums.VaughanSums(*[complex((arr * phases).sum()) for arr in arrays])


@pytest.mark.parametrize("X, U, block", [
    (400_372, 74, None), (150_671, 54, None),  # the kernels workload's vaughan-check sizes
    (20_011, 2, None), (20_011, 20_010, None), (3, 2, None),  # U at its edges
    (20_011, 2, 1000), (3_000, 14, 7), (500, 2, 1),  # many blocks of pairs
])
def test_vaughan_arrays_equal_the_per_j_build_byte_for_byte(monkeypatch, X, U, block):
    with monkeypatch.context() as patch:
        patch.setattr(expsums, "_divisor_sums", _divisor_sums_per_j)
        want = expsums._vaughan_arrays(X, U)
    if block is not None:
        monkeypatch.setattr(expsums, "SCAN_BLOCK", block)
    got = expsums._vaughan_arrays(X, U)
    for name, g, w in zip(("a1", "a2", "a3", "a4", "a5"), got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (X, U, name)


@pytest.mark.parametrize("X, U", [(400_372, 74), (150_671, 54), (10_000, 22), (3_001, 2)])
def test_shared_trial_buffers_give_the_fresh_sums(X, U):
    rng = random.Random(X)
    draws = [(1, 0, rng.random())]
    for _ in range(12):
        d = rng.randrange(1, 51)
        draws.append((d, rng.randrange(d), rng.random()))
    # a short class after a long one, a class past X, a negative c and theta
    draws += [(1, 0, -rng.random()), (10**30, X - 1, 0.25), (7, -3, 1e6 * rng.random())]
    split = expsums.VaughanSplit(X, U)
    for d, c, theta in draws:
        want = _fresh_vaughan_sums(split._arrays, X, d, c, theta)
        assert split(d, c, theta) == want, (d, c, theta)
        assert vaughan_decompose(None, X, U, d, c, theta) == want, (d, c, theta)


@pytest.mark.parametrize("argv, residual", [
    # the kernels workload's seed-1 configs: the residuals the per-trial temporaries gave
    ("--X 400372 --trials 8 --dmax 1 --seed 413629", 5.4569682106375694e-12),
    ("--X 150671 --trials 8 --dmax 1 --seed 171814", 1.5389771727633256e-12),
    ("--X 10000 --trials 100 --seed 1", 1.5106345774618504e-13),  # the README line
])
def test_vaughan_check_residual_to_the_last_bit(argv, residual):
    runner = cli._COMMANDS["vaughan-check"][0]
    args = cli.build_parser().parse_args(["vaughan-check", *argv.split()])
    results, _ = runner(args)
    assert results["max_residual"] == residual


@given(st.data(), st.integers(1, 300), st.integers(0, 60), st.integers(1, 40),
       st.sampled_from([np.float64, np.int64]))
@example(None, 200, 30, 3, np.float64)
def test_batched_divisor_sums_equal_the_loop(data, size, n_ms, n_seq, dtype):
    if data is None:  # every m, and one pair per block
        ms, seq_values, block = np.arange(1, 31), list(range(-1, n_seq - 1)), 1
    else:
        ms = np.array(sorted(data.draw(st.sets(st.integers(1, 2 * size), max_size=n_ms))),
                      dtype=np.int64)
        seq_values = data.draw(st.lists(st.integers(-3, 3), min_size=n_seq, max_size=n_seq))
        block = data.draw(st.integers(1, 64))
    rng = np.random.default_rng(size * 100 + n_seq)
    if dtype is np.float64:
        coeffs, out = rng.standard_normal(2 * size + 1), rng.standard_normal(size)
        seq = np.array(seq_values, dtype=np.float64) * rng.standard_normal(n_seq)
    else:
        coeffs, out = rng.integers(-50, 50, 2 * size + 1), rng.integers(-50, 50, size)
        seq = np.array(seq_values, dtype=np.int64)
    want = out.copy()
    _divisor_sums_loop(want, coeffs, ms, seq)
    with mock.patch.object(expsums, "SCAN_BLOCK", block):
        expsums._divisor_sums(out, coeffs, ms, seq)
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


@given(st.lists(st.one_of(st.just(0), st.integers(1, 12)), max_size=30),
       st.sampled_from([1, 7, 1000]))
@example([], 1)
@example([0, 0, 3, 0, 0, 5, 0, 0], 7)  # rows with no pairs at the start, middle and end
@example([0, 2, 0, 9, 0], 1)
def test_ragged_pairs_walk_the_nested_loop(cuts, block):
    want = [(i, j) for i, n in enumerate(cuts) for j in range(n)]
    with mock.patch.object(expsums, "SCAN_BLOCK", block):
        blocks = list(expsums._ragged_pairs(np.array(cuts, dtype=np.int64)))
    assert [row.size for row, _ in blocks] == [
        min(block, len(want) - lo) for lo in range(0, len(want), block)]
    assert all(row.dtype == col.dtype == np.int64 for row, col in blocks)
    assert [(i, j) for row, col in blocks
            for i, j in zip(row.tolist(), col.tolist())] == want


def test_mikawa_examples(tables):
    ta0 = dirichlet_approx(0.0, 5, 100)
    res = mikawa_w(1, 1, 100, ta0)
    # single term m = 2, n = 2: tau_3(2) = 3, min picks X/(m^2 n) + 1 = 13.5
    assert res.value == pytest.approx(1 * 3 * 13.5)
    # theta = 0: every min picks the hyperbola side; closed double sum
    M, N, X = 3, 4, 500
    res = mikawa_w(M, N, X, ta0)
    expect = M * sum(
        tables.tau(n, 3) * (X / (m * m * n) + 1.0)
        for m in range(M + 1, 2 * M + 1)
        for n in range(N + 1, 2 * N + 1)
    )
    assert res.value == pytest.approx(expect, rel=1e-12)
    ta = dirichlet_approx(0.31, 20, 500)
    assert mikawa_w(2, 3, 500, ta).value >= 0.0


def test_min_sum_and_mikawa_inputs_below_2_53(tables):
    # float64 holds every integer below 2^53, so the array sums equal the
    # loop's exact int/int divisions up to there and refuse larger inputs
    ta = dirichlet_approx(0.31, 20, 10**6)
    top = 2**53 - 1
    for mode in ("linear", "hyperbola"):
        assert min_sum(mode, 50, top, ta).value == oracles.min_sum_value(mode, 50, top, ta)
        with pytest.raises(PreconditionError):
            min_sum(mode, 50, top + 1, ta)
    assert mikawa_w(3, 4, top, ta).value == oracles.mikawa_value(tables, 3, 4, top, ta)
    with pytest.raises(PreconditionError):
        mikawa_w(3, 4, top + 1, ta)
    M, N = 2**20, 2**10  # 8 M^2 N = 2^53
    with pytest.raises(PreconditionError):
        mikawa_w(M, N, 10**6, ta)
    with pytest.raises(BudgetError):  # just below 2^53: on to the budget
        mikawa_w(M, N - 1, 10**6, ta)


def test_mikawa_exact_where_q_squared_overflows_int64(tables):
    q = 2**40 + 1
    a = q - 2
    X = 10**15  # X/(m^2 n) + 1 above 1/||m^2 n theta||, so the norms count
    ta = ThetaApprox(theta=a / q, a=a, q=q, beta=0.0, X=X)
    M, N = 200, 100  # m^2 n up to 3.2e7, so (m^2 n mod q) a passes 2^63
    assert (2 * M) ** 2 * (2 * N) * a > 2**63
    assert mikawa_w(M, N, X, ta).value == oracles.mikawa_value(tables, M, N, X, ta)


def test_type_one_aggregates(tables):
    X, theta = 50, 0.0
    alpha = {1: 1.0}
    # sigma = 1 on d <= 2 with c_d = 0: counts multiples of d below X
    got = type_one_sum({1: (1.0, 0), 2: (1.0, 0)}, 5, alpha, 0, X, theta)
    want = (X - 1) + (X - 1) // 2
    assert got.real == pytest.approx(want)
    # j = 1 exceeds j = 0 once n >= 3 terms enter (log n > 1 on average)
    a = {2: 1.0, 3: 1.0}
    v0 = type_one_inner(3, 1, 5, a, 0, 200, 0.0)
    v1 = type_one_inner(3, 1, 5, a, 1, 200, 0.0)
    assert v1.real > v0.real
    assert type_one_sum({}, 5, alpha, 0, X, theta) == 0
    # max over c enumerates reduced residues
    brute = 0.0
    for d in (1, 2, 3):
        best = 0.0
        for c in range(1, d + 1):
            if math.gcd(c, d) != 1:
                continue
            inner = 0.0
            for m, w in a.items():
                for n in range(1, (X - 1) // m + 1):
                    if (m * n) % d == c % d:
                        inner += w
            best = max(best, abs(inner))
        brute += tables.tau(d, 2) * best
    got = type_one_max(tables, 3, 2, 5, a, 0, X, 0.0)
    assert got == pytest.approx(brute)


# -- phases: one helper, equal to the formula each kernel had before it ---------


def _remainder_phases(x):
    """The phase formula lambda_hat, vaughan_decompose and the Type I kernels
    each wrote out before the shared helper."""
    return np.exp(2j * np.pi * (x % 1.0))


def _remainder_pair_phases(mn, ta):
    """The bilinear sum's phases before the shared helper: two float
    remainders, then cos and sin."""
    rational = np.asarray(ta.residues(mn) / ta.q, dtype=np.float64)
    drift = np.asarray(mn * ta.beta, dtype=np.float64) % 1.0
    ang = expsums.TWO_PI * ((rational + drift) % 1.0)
    return np.cos(ang) + 1j * np.sin(ang)


def test_phases_equal_the_remainder_formula_on_seeded_floats():
    rng = np.random.default_rng(7)
    x = rng.choice([-1.0, 1.0], 10**5) * 10.0 ** rng.uniform(-300, 20, 10**5)
    x = np.concatenate([x, rng.uniform(-1e6, 1e6, 10**5), np.arange(-5.0, 5.0, 0.125)])
    assert expsums._phases(x).tobytes() == _remainder_phases(x).tobytes()


_ALPHA_RNG = random.Random(13)
ALPHA = {m: complex(_ALPHA_RNG.uniform(-1, 1), _ALPHA_RNG.uniform(-1, 1)) for m in range(1, 13)}
ALPHA2 = {n: _ALPHA_RNG.choice([-1.0, 0.5, 2.0]) for n in range(3, 400, 7)}
KERNELS = {  # each gives a tuple of the kernel's values at theta
    "lambda_hat": lambda tables, theta: (lambda_hat(tables, 50_000, 7, 3, theta),),
    "type_one_inner": lambda tables, theta: (type_one_inner(12, 5, 10, ALPHA, 1, 20_000, theta),
                                             type_one_inner(1, 0, 10, ALPHA, 0, 20_000, theta)),
    "type_one_max": lambda tables, theta: (type_one_max(tables, 8, 2, 10, ALPHA, 1, 5_000, theta),),
    "bilinear_sum": lambda tables, theta: (
        bilinear_sum(ALPHA, ALPHA2, 4_000, dirichlet_approx(theta, 100, 4_000), 5, 2).value,
        bilinear_sum(ALPHA, ALPHA2, 4_000, dirichlet_approx(theta, 60, 4_000)).value,
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_equal_their_remainder_phase_formula_bit_for_bit(tables, monkeypatch, kernel):
    rng = random.Random(29)
    thetas = [rng.uniform(-2.0, 2.0) for _ in range(6)] + [1 / 3, 0.0, -0.0, 2 / 7 + 1e-9]

    def values():
        return np.array([KERNELS[kernel](tables, theta) for theta in thetas],
                        dtype=np.complex128).tobytes()

    got = values()
    calls = []  # the kernel must form its phases in the helper that is swapped here
    monkeypatch.setattr(expsums, "_phases",
                        lambda x: calls.append(x.size) or _remainder_phases(x))
    monkeypatch.setattr(expsums, "_pair_phases",
                        lambda mn, ta: calls.append(mn.size) or _remainder_pair_phases(mn, ta))
    assert got == values() and calls
