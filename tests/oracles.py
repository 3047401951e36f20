"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written the slow, obvious way (string digit
scans, trial division, defining sums) so it shares no code path with the
library being tested.
"""

import math


def digits_avoid(n: int, b: int, a0: int) -> bool:
    """Membership by literal base-b digit scan of the canonical expansion."""
    if n == 0:
        return a0 != 0
    while n:
        if n % b == a0:
            return False
        n //= b
    return True


def brute_members(b: int, a0: int, k: int, r=None) -> list[int]:
    out = []
    for n in range(b**k):
        if digits_avoid(n, b, a0) and (r is None or n % b == r):
            out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def mangoldt(n: int) -> float:
    if n < 2:
        return 0.0
    for p in range(2, n + 1):
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    return 0.0


def mobius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    if m > 1:
        mu = -mu
    return mu


def brute_hat(b: int, a0: int, k: int, theta: float, r=None) -> complex:
    """The defining O(b^k) Fourier sum."""
    total = 0.0 + 0.0j
    for n in range(b**k):
        if digits_avoid(n, b, a0) and (r is None or n % b == r):
            ang = 2.0 * math.pi * ((n * theta) % 1.0)
            total += complex(math.cos(ang), math.sin(ang))
    return total


def brute_primitive_two_squares(n: int) -> bool:
    for n1 in range(math.isqrt(n) + 1):
        rest = n - n1 * n1
        n2 = math.isqrt(rest)
        if n2 * n2 == rest and math.gcd(n1, n2) == 1:
            return True
    return False


def brute_tau(n: int, h: int) -> int:
    """Ordered h-tuples with product n, by recursion over divisors."""
    if h == 1:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += brute_tau(n // d, h - 1)
    return total


def brute_psi(y: int, d: int, c: int, q: int = 1, m: int = 0) -> float:
    total = 0.0
    for n in range(1, y + 1):
        if n % d == c % d and n % q == m % q:
            total += mangoldt(n)
    return total


def least_prime_factor(n: int) -> int:
    """Smallest prime factor of n >= 2 by trial division."""
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


# -- per-element loops that the array kernels replaced ---------------------------

def unit_norm(ta, m: int) -> float:
    """||m theta||: exact modular arithmetic when beta = 0, floats otherwise."""
    if ta.beta == 0.0:
        s = (m * ta.a) % ta.q
        return min(s, ta.q - s) / ta.q
    x = m * ta.theta
    return abs(x - round(x))


def min_sum_value(mode: str, M: int, cap: float, ta) -> float:
    """sum_{m <= M} min(first(m), 1/||m theta||), one term at a time."""
    total = 0.0
    for m in range(1, M + 1):
        first = cap if mode == "linear" else cap / m + 1.0
        norm = unit_norm(ta, m)
        total += first if norm == 0.0 else min(first, 1.0 / norm)
    return total


def mikawa_value(tables, M: int, N: int, X: int, ta) -> float:
    """M * sum_{m ~ M} sum_{n ~ N} tau_3(n) min(X/(m^2 n) + 1, 1/||m^2 n theta||)."""
    tau3 = {n: brute_tau(n, 3) for n in range(N + 1, 2 * N + 1)}
    total = 0.0
    for m in range(M + 1, 2 * M + 1):
        m2 = m * m
        for n in range(N + 1, 2 * N + 1):
            first = X / (m2 * n) + 1.0
            norm = unit_norm(ta, m2 * n)
            term = first if norm == 0.0 else min(first, 1.0 / norm)
            total += tau3[n] * term
    return M * total


def vaughan_arrays(tables, X: int, U: int):
    """The five Vaughan component arrays, one divisor m at a time (mu by
    trial division; Lambda and the prime powers from the tables)."""
    import numpy as np

    mu = np.array([0.0] + [float(mobius(n)) for n in range(1, X)])
    lam = tables.mangoldt_range(X)
    a1 = lam.copy()
    a1[U + 1 :] = 0.0
    a2 = np.zeros(X)
    for m in range(1, min(U, X - 1) + 1):
        if mu[m] == 0:
            continue
        js = np.arange(1, (X - 1) // m + 1)
        a2[m * js] += mu[m] * np.log(js)
    f = np.zeros(X)
    pp_n, pp_log = tables.prime_powers
    cut = np.searchsorted(pp_n, U, side="right")
    for m in range(1, U + 1):
        if mu[m] == 0:
            continue
        prods = m * pp_n[:cut]
        keep = prods < X
        np.add.at(f, prods[keep], mu[m] * pp_log[:cut][keep])
    a3 = np.zeros(X)
    for m in range(1, min(U, X - 1) + 1):
        if f[m] != 0:
            a3[m::m] += f[m]
    a4 = np.zeros(X)
    for m in range(U + 1, min(U * U, X - 1) + 1):
        if f[m] != 0:
            a4[m::m] += f[m]
    g = np.zeros(X)
    big = (pp_n > U) & (pp_n < X)
    for pp, lg in zip(pp_n[big], pp_log[big]):
        g[pp::pp] += lg
    a5 = np.zeros(X)
    for m in range(U + 1, X):
        if mu[m] == 0:
            continue
        js = np.arange(1, (X - 1) // m + 1)
        a5[m * js] += mu[m] * g[js]
    return a1, a2, a3, a4, a5


def vaughan_sums(arrays, X: int, d: int, c: int, theta: float):
    """The five sums over n < X, n = c (mod d), gathered through a mask."""
    import numpy as np

    ns = np.arange(X, dtype=np.int64)
    ns = ns[ns % d == c % d]
    phases = np.exp(2j * np.pi * ((ns * theta) % 1.0))
    return [complex((arr[ns] * phases).sum()) for arr in arrays]


def sandwich_rows(w_minus, w_plus, z: float, prime_set, n_max: int):
    """(n, lower, indicator, upper) wherever lower <= indicator <= upper fails,
    by summing each weight over the divisors of n."""
    rows = []
    for n in range(1, n_max + 1):
        lo = sum(v for d, v in w_minus.values.items() if n % d == 0)
        hi = sum(v for d, v in w_plus.values.items() if n % d == 0)
        mid = int(all(n % p for p in range(2, int(z + 1e-12) + 1)
                      if is_prime(p) and prime_set(p)))
        if not lo <= mid <= hi:
            rows.append((n, lo, mid, hi))
    return rows


def product_members(b: int, a0: int, k: int, r=None) -> list[int]:
    """Members of [0, b^k) in increasing order: digit tuples, most significant
    first, one length block at a time when a0 = 0 (then every digit is nonzero)."""
    from itertools import product

    digits = [d for d in range(b) if d != a0]
    lengths = [k] if a0 != 0 else range(1, k + 1)
    out = []
    for j in lengths:
        free = j if r is None else j - 1
        for tup in product(digits, repeat=free):
            n = 0
            for d in tup:
                n = n * b + d
            out.append(n if r is None else n * b + r)
    return out


def primitive_marks(limit: int) -> list[bool]:
    """marks[s] = True iff s = n1^2 + n2^2 with gcd(n1, n2) = 1, 1 <= s <= limit."""
    marks = [False] * (limit + 1)
    top = math.isqrt(limit)
    for n1 in range(top + 1):
        for n2 in range(n1, top + 1):
            s = n1 * n1 + n2 * n2
            if s > limit:
                break
            if 1 <= s and math.gcd(n1, n2) == 1:
                marks[s] = True
    return marks
