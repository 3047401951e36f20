import cmath
import math
import random

import pytest

import oracles
from missingdigit import (
    BudgetError,
    PreconditionError,
    ThetaApprox,
    bilinear_sum,
    dirichlet_approx,
    lambda_hat,
    mikawa_w,
    min_sum,
    vaughan_decompose,
)
from missingdigit import expsums
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
        tables.psi_progression(10**4 - 1, 7, 3), rel=1e-12
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


def test_vaughan_cached_arrays_are_read_only(tables):
    parts = vaughan_decompose(tables, 500, 8, 1, 0, 0.3)  # fills the cache
    for arr in expsums._vaughan_arrays(tables, 500, 8):
        with pytest.raises(ValueError):
            arr[1] = 1.0
    assert vaughan_decompose(tables, 500, 8, 1, 0, 0.3) == parts


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


def test_mikawa_examples(tables):
    ta0 = dirichlet_approx(0.0, 5, 100)
    res = mikawa_w(tables, 1, 1, 100, ta0)
    # single term m = 2, n = 2: tau_3(2) = 3, min picks X/(m^2 n) + 1 = 13.5
    assert res.value == pytest.approx(1 * 3 * 13.5)
    # theta = 0: every min picks the hyperbola side; closed double sum
    M, N, X = 3, 4, 500
    res = mikawa_w(tables, M, N, X, ta0)
    expect = M * sum(
        tables.tau(n, 3) * (X / (m * m * n) + 1.0)
        for m in range(M + 1, 2 * M + 1)
        for n in range(N + 1, 2 * N + 1)
    )
    assert res.value == pytest.approx(expect, rel=1e-12)
    ta = dirichlet_approx(0.31, 20, 500)
    assert mikawa_w(tables, 2, 3, 500, ta).value >= 0.0


def test_min_sum_and_mikawa_inputs_below_2_53(tables):
    # float64 holds every integer below 2^53, so the array sums equal the
    # loop's exact int/int divisions up to there and refuse larger inputs
    ta = dirichlet_approx(0.31, 20, 10**6)
    top = 2**53 - 1
    for mode in ("linear", "hyperbola"):
        assert min_sum(mode, 50, top, ta).value == oracles.min_sum_value(mode, 50, top, ta)
        with pytest.raises(PreconditionError):
            min_sum(mode, 50, top + 1, ta)
    assert mikawa_w(tables, 3, 4, top, ta).value == oracles.mikawa_value(tables, 3, 4, top, ta)
    with pytest.raises(PreconditionError):
        mikawa_w(tables, 3, 4, top + 1, ta)
    M, N = 2**20, 2**10  # 8 M^2 N = 2^53
    with pytest.raises(PreconditionError):
        mikawa_w(tables, M, N, 10**6, ta)
    with pytest.raises(BudgetError):  # just below 2^53: on to the budget
        mikawa_w(tables, M, N - 1, 10**6, ta)


def test_mikawa_exact_where_q_squared_overflows_int64(tables):
    q = 2**40 + 1
    a = q - 2
    X = 10**15  # X/(m^2 n) + 1 above 1/||m^2 n theta||, so the norms count
    ta = ThetaApprox(theta=a / q, a=a, q=q, beta=0.0, X=X)
    M, N = 200, 100  # m^2 n up to 3.2e7, so (m^2 n mod q) a passes 2^63
    assert (2 * M) ** 2 * (2 * N) * a > 2**63
    assert mikawa_w(tables, M, N, X, ta).value == oracles.mikawa_value(tables, M, N, X, ta)


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
