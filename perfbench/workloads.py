"""Seeded op lists for the benchmark workloads.

An op is a dict: ``{"cli": [argv...]}`` runs ``missingdigit.cli.main(argv)``;
``{"lib": name, **params}`` runs one direct library call (see ``ops.py``).
The same (workload, seed) always gives the same list.

Every workload is a fixed template of op slots whose cost depends only on
the template (base, digit length, Q, B, C, D, sizes).  The seed picks the
cost-neutral parameters (excluded digit, residue, progression (d, c), theta,
small size offsets) and, in ``spectral``, the interleaving order, so that
run-to-run spread comes from the machine and not from the inputs.
"""

from __future__ import annotations

import math
import random

BASES = (3, 5, 7, 10)

# Capacities of the program's in-process caches, recorded next to the
# measured key counts so a cache change can be judged against the inputs.
SPECTRUM_CACHE_CAPACITY = 8
ARC_CODE_CACHE_CAPACITY = 4


def _system(rng: random.Random, b: int, buchstab: bool = False) -> tuple[int, int]:
    """(a0, r): nonzero excluded digit, residue coprime to b (and to r - 1)."""
    rs = [r for r in range(1, b) if math.gcd(r, b) == 1
          and (not buchstab or math.gcd(r * (r - 1), b) == 1)]
    r = rng.choice(rs)
    a0 = rng.choice([a for a in range(1, b) if a != r])
    return a0, r


def _ds(b: int, a0: int, r: int) -> list[str]:
    return ["--b", str(b), "--a0", str(a0), "--r", str(r)]


def _progression(rng: random.Random, b: int) -> tuple[int, int]:
    """(d, c) with 3 <= d < 30 and gcd(d, b) = gcd(c, d) = 1."""
    d = rng.choice([d for d in range(3, 30) if math.gcd(d, b) == 1])
    c = rng.choice([c for c in range(1, d) if math.gcd(c, d) == 1])
    return d, c


def _interleave(rng: random.Random, sequences: list[list]) -> list:
    """A seeded uniform interleaving that keeps each sequence's own order."""
    queues = [list(seq) for seq in sequences if seq]
    out = []
    while queues:
        pick = rng.randrange(sum(len(q) for q in queues))
        for q in queues:
            if pick < len(q):
                out.append(q.pop(0))
                break
            pick -= len(q)
        queues = [q for q in queues if q]
    return out


# -- spectral ------------------------------------------------------------------

# Digit length per base: the large spectrum (fourier-stats, hybrid) and the
# small one (arcs; the inversion check for base 10).  4 bases x 2 sizes = 8
# distinct spectra, the spectrum cache's capacity.
SPECTRAL_BIG_K = {3: 11, 5: 7, 7: 6, 10: 5}
SPECTRAL_SMALL_K = {3: 9, 5: 6, 7: 5, 10: 4}
# Six (base, C) arc keys of about equal classification cost, more than the
# arc-code cache holds.  Every key is visited twice in one seeded cyclic
# order, two arcs ops per visit: 12 arc-code misses and 12 repeats of the
# key just used.  The misses are the slowest ops but one, so they set
# op_tail_s.
SPECTRAL_ARC_KEYS = ((3, "1.25"), (3, "1.75"), (5, "1.5"), (5, "1.75"), (7, "1.25"), (7, "1.75"))
# (Q, B) pairs of about equal cost (Q^2 B ~ 2e5), run on every system; with
# the fourier-stats ops they are the middle of the op latencies (op_p50_s).
HYBRID_QB = ((60, 50), (80, 30), (100, 20))


def spectral(seed: int) -> list[dict]:
    rng = random.Random(f"spectral/{seed}")
    systems = {b: _system(rng, b) for b in BASES}
    # The four large spectra are computed first, in a fixed order: every
    # spectrum miss lands on the same op, and the memory peak depends neither
    # on the interleaving that follows nor on the seed (the peak moved by 10%
    # with the order in which the four were built).
    stats, groups = [], []
    for b in BASES:
        a0, r = systems[b]
        big = [*_ds(b, a0, r), "--k", str(SPECTRAL_BIG_K[b])]
        stats.append({"cli": ["fourier-stats", *big]})
        groups.append([{"cli": ["hybrid", *big, "--Q", str(Q), "--B", str(B)]}
                       for Q, B in rng.sample(HYBRID_QB, len(HYBRID_QB))])
    a0, r = systems[10]
    groups.append([{"cli": ["fourier-stats", *_ds(10, a0, r), "--k", str(SPECTRAL_SMALL_K[10]),
                            "--check-inversion"]}])
    keys = list(SPECTRAL_ARC_KEYS)
    rng.shuffle(keys)
    arcs = []
    for _round in range(2):
        for b, C in keys:
            a0, r = systems[b]
            for _visit in range(2):
                d, c = _progression(rng, b)
                arcs.append({"cli": ["arcs", *_ds(b, a0, r), "--k", str(SPECTRAL_SMALL_K[b]),
                                     "--C", C, "--d", str(d), "--c", str(c)]})
    return stats + _interleave(rng, [arcs, *groups])


# -- progressions --------------------------------------------------------------

def _prime_above(rng: random.Random, lo: int) -> int:
    """A seeded prime in (lo, 2 lo]: coprime to every modulus up to lo."""
    while True:
        n = rng.randrange(lo + 1, 2 * lo + 1)
        if n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1)):
            return n


# (subcommand, base, k, extra flags); X = b^k between 8e5 and 1e7.
PROGRESSION_SLOTS = (
    ("count", 10, 7, ["--primes"]),
    ("count", 7, 8, ["--primes"]),
    ("count", 5, 10, ["--primes"]),
    ("count", 3, 13, ["--primes"]),
    ("bv-table", 10, 7, ["--D", "200"]),
    ("bv-table", 3, 14, ["--D", "150"]),
    ("bv-table", 5, 9, ["--D", "100"]),
    ("bv-table", 7, 7, ["--D", "120"]),
    ("fixed", 10, 7, ["--D", "30"]),
    ("fixed", 7, 8, ["--D", "30"]),
    ("fixed", 5, 9, ["--D", "50"]),
    ("pairs", 10, 7, ["--D1", "6", "--D2", "5"]),
    ("pairs", 5, 9, ["--D1", "6", "--D2", "5"]),
    ("semi", 10, 7, []),
    ("semi", 3, 14, []),
    ("wellfac", 10, 6, []),
    ("wellfac", 3, 13, []),
    ("lin", 10, 7, []),
    ("lin", 7, 8, []),
    ("buchstab-app", 7, 8, ["--alpha", "3"]),
    ("buchstab-app", 5, 10, ["--alpha", "3"]),
    ("buchstab-app", 3, 14, ["--alpha", "3"]),
)
# (limit, --check-brute) for the per-n two-squares classifier loop.
TWO_SQUARES_SLOTS = ((500_000, False), (300_000, True))


def progressions(seed: int) -> list[dict]:
    """Fixed op order, seeded parameters, so the memory peak does not depend
    on the seed."""
    rng = random.Random(f"progressions/{seed}")
    ops = []
    for name, b, k, extra in PROGRESSION_SLOTS:
        a0, r = _system(rng, b, buchstab=name == "buchstab-app")
        ds = _ds(b, a0, r)
        if name in ("count", "bv-table", "buchstab-app"):
            argv = [name, *ds, "--k", str(k), *extra]
        else:
            argv = ["weighted-bv", *ds, "--k", str(k), "--kind", name, *extra]
            if name in ("fixed", "pairs", "wellfac"):
                argv += ["--c", str(_prime_above(rng, 1000))]
        ops.append({"cli": argv})
    for limit, brute in TWO_SQUARES_SLOTS:
        argv = ["two-squares", "--limit", str(limit + rng.randrange(1000))]
        ops.append({"cli": argv + ["--check-brute"] if brute else argv})
    return ops


# -- kernels -------------------------------------------------------------------

def kernels(seed: int) -> list[dict]:
    """Fixed op order, seeded parameters: the cached Vaughan arrays come first,
    so the peak memory does not depend on the seed."""
    rng = random.Random(f"kernels/{seed}")

    def theta():
        return repr(rng.uniform(0.05, 0.95))

    ops = [
        {"cli": ["vaughan-check", "--X", str(X + rng.randrange(1000)), "--trials", "8",
                 "--dmax", "1", "--seed", str(rng.randrange(10**6))]}
        for X in (400_000, 150_000)
    ]
    ops += [
        {"cli": ["sieve-fns", "--sandwich-nmax", str(300_000 + rng.randrange(1000)),
                 "--umax", str(rng.choice((2.5, 3.0, 3.5)))]},
        {"cli": ["sieve-fns", "--sandwich-nmax", str(200_000 + rng.randrange(1000)),
                 "--wellfactor-X", str(1_000_000 + rng.randrange(10**5))]},
        {"cli": ["integrals", "--delta", repr(rng.uniform(5e-4, 2e-3)), "--sensitivity"]},
    ]
    ops += [
        {"cli": ["mikawa", "--M", str(M), "--N", str(M), "--X", str(10**6),
                 "--theta", theta(), "--Q", "1000"]}
        for M in (500, 600)
    ]
    ops += [
        {"cli": ["constants", "--plimit", "100000", "--b", str(b),
                 "--tweight-X", str(X + rng.randrange(1000))]}
        for b, X in ((10, 6_000_000), (3, 9_000_000))
    ]
    for b, k in ((5, 8), (3, 12)):
        a0, _ = _system(rng, b)
        ops.append({"cli": ["count", "--b", str(b), "--a0", str(a0), "--k", str(k), "--check"]})
    for mode, cap in (("linear", 1000.0), ("hyperbola", 1e7)):
        ops.append({"lib": "min_sum", "mode": mode, "M": 400_000, "cap": cap,
                    "theta": float(theta()), "Q": 1000, "X": 10**7})
    for size, d in ((500, 1), (700, 3)):
        ops.append({"lib": "bilinear_sum", "M": size, "N": size, "X": size * size,
                    "theta": float(theta()), "Q": 100, "d": d, "seed": rng.randrange(10**6)})
    for D in (28, 32):
        ops.append({"lib": "type_one_max", "D": D, "M": 24, "X": 20_000, "h3": 2,
                    "theta": float(theta()), "seed": rng.randrange(10**6)})
    for b, k in ((10, 6), (7, 7)):
        a0, _ = _system(rng, b)
        ops.append({"lib": "members", "b": b, "a0": a0, "k": k, "samples": 2000,
                    "seed": rng.randrange(10**6)})
    for b, k in ((10, 12), (7, 14)):
        a0, r = _system(rng, b)
        ops.append({"lib": "linf_probe", "b": b, "a0": a0, "r": r, "k": k, "probes": 4000,
                    "seed": rng.randrange(10**6)})
    return ops


# -- smoke: the README's CLI invocations ----------------------------------------

README_INVOCATIONS = (
    "count --b 10 --a0 7 --r 3 --k 3",
    "density --b 10 --a0 7",
    "fourier-stats --b 10 --a0 7 --r 3 --k 4 --check-inversion",
    "hybrid --b 10 --a0 7 --r 3 --k 4 --Q 4 --B 4",
    "arcs --b 10 --a0 7 --r 3 --k 4 --C 2 --d 3 --c 1",
    "bv-table --b 10 --a0 7 --r 3 --k 5 --D 10 --format csv",
    "weighted-bv --b 10 --a0 7 --r 3 --k 4 --kind semi",
    "sieve-fns --sandwich-nmax 100000 --wellfactor-X 1000000",
    "integrals --delta 1e-3 --eps 1e-6 --sensitivity",
    "constants --plimit 100000 --b 10 --y 100000",
    "two-squares --limit 100000 --check-brute",
    "vaughan-check --X 10000 --trials 100 --seed 1",
    "mikawa --M 8 --N 8 --X 5000 --theta 0.333333 --Q 100",
    "buchstab-app --b 7 --a0 4 --r 3 --k 6 --alpha 3",
)


def smoke(seed: int) -> list[dict]:
    return [{"cli": line.split()} for line in README_INVOCATIONS]


GENERATORS = {
    "spectral": spectral,
    "progressions": progressions,
    "kernels": kernels,
    "smoke": smoke,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


# -- input properties -------------------------------------------------------------

def flag(argv: list[str], name: str, default=None):
    """The value after `name` in an argv list."""
    return argv[argv.index(name) + 1] if name in argv else default


def cache_keys(op: dict) -> tuple[tuple | None, tuple | None]:
    """(spectrum key, arc-code key) an op asks for, from its inputs alone."""
    argv = op.get("cli")
    if not argv or argv[0] not in ("fourier-stats", "hybrid", "arcs"):
        return None, None
    b, k = int(flag(argv, "--b")), int(flag(argv, "--k"))
    spec = (b, int(flag(argv, "--a0")), int(flag(argv, "--r")), k)
    arc = (b**k, float(flag(argv, "--C", "2.0"))) if argv[0] == "arcs" else None
    return spec, arc


def input_properties(ops: list[dict]) -> dict:
    """Repeat share and distinct count of the spectrum and arc-code keys."""
    out = {}
    for i, (name, capacity) in enumerate((("spectrum", SPECTRUM_CACHE_CAPACITY),
                                          ("arc_codes", ARC_CODE_CACHE_CAPACITY))):
        keys = [cache_keys(op)[i] for op in ops]
        keys = [key for key in keys if key is not None]
        distinct = len(set(keys))
        out[name] = {
            "uses": len(keys),
            "distinct": distinct,
            "repeat_share": (len(keys) - distinct) / len(keys) if keys else 0.0,
            "cache_capacity": capacity,
        }
    return out
