"""Seeded workload generation and the benchmark's own output checks.

Each workload turns a seed into a list of operations.  An operation is one
documented `kzero` CLI request (its argv, without `--cache`, which the run
adds) plus what the benchmark expects of its output.  The expectations come
from arithmetic written here, independently of `src/kzero`: a sieve, the
integer (P, Q) continued-fraction recurrence, and point counts by Euler's
criterion.  The generator never imports kzero.

Why these workloads:

- algebra: the exact-algebra stack (quadfield, contfrac, bratteli,
  coherence), never elliptic.  Small D exercises the diagram and module
  code; large D exercises QuadElement arithmetic.  Large D follows the
  natural distribution of square-free D, log-uniform over [10^4, 10^6]: a
  pool of such D is ranked by the estimated cost of an operation and cut
  into n bands of equal size, and the middle D of each band is taken.  A
  draw therefore keeps the long, costly periods as often as nature has them
  (the middles of all bands follow the pool's own distribution), while the
  cost of a pass varies little from seed to seed.  D <= 300 only, because
  some D in (300, 1000] take seconds to hours today.
- traces_cold: the trace stack (primes, elliptic, lfunction), each pass
  from an empty a_p cache.  After the passes the same argv list runs once
  more against the cache the last pass filled, and its stdout must match
  byte for byte.  The heavy match/prop3 requests come first, so every later
  request loads a cache of the same size whatever the seed.  Primes are
  drawn one per stratum, so the work in a pass barely depends on the seed.
- cli_startup: the 16 README example commands as separate processes, the
  only workload that pays interpreter start-up and `import kzero.cli`.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left
from math import isqrt

# the curves of the built-in CM table, keyed by D (see the README)
CM_CURVES = {1: (-1, 0), 2: (-270, 1512), 3: (0, 1)}

# deadline for one operation, and for the limit probes run in a child process.
# On 2 vCPUs the slowest operation that seeds 1-30 draw (`unit` at the top
# band) took 1.4 s, and most take milliseconds; the probes need 70 s or never
# end.
OP_DEADLINE_S = 10.0

ALGEBRA_SMALL_MAX = 300
ALGEBRA_LARGE = (10 ** 4, 10 ** 6)
ALGEBRA_LARGE_COUNT = 61  # bands of the pool, about a quarter of the operations
ALGEBRA_BAND = 64  # pool draws per band
PROBES = (("coherence", "--D", "433"), ("dimgroup", "--D", "10007"))

TRACES_BOUND = 20000
TRACES_AP = (10 ** 4, 2 * 10 ** 5, 120)  # range and number of `ap` queries
TRACES_FP2 = (100, 700, 16)  # range and number of zeta-local plus count --r 2

CLI_STARTUP_CHILDREN = 100
README_COMMANDS = (
    "contfrac --D 7",
    "unit --D 2",
    "omega --D 13",
    "dimgroup --D 7",
    "dimgroup --uhf-p 3 --depth 4",
    "tower --p 3 --depth 4",
    "sl2 --p 5",
    "count --D 1 --p 5 --r 2",
    "count --a4 -1 --a6 0 --p 5",
    "ap --D 1 --p 13",
    "zeta-local --D 1 --p 5",
    "lfun --which motivic --D 1 --s 3 --bound 500",
    "match --D 1 --bound 1000",
    "prop3 --D 1 --s 3 --bound 500",
    "coherence --D 3",
    "adelic --ramified 2,3 --bound 7 --D 5",
)


# -- independent arithmetic --------------------------------------------------------


def is_squarefree(n: int) -> bool:
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def trial_divisions(n: int) -> int:
    """Steps of a trial-division square-free test that divides out each factor it finds."""
    f, steps = 2, 0
    while f * f <= n:
        while n % f == 0:
            n //= f
        f += 1
        steps += 1
    return steps


def primes_upto(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def omega_cf(D: int) -> tuple[int, list[int]]:
    """a0 and the period of omega by the integer recurrence on (P + sqrt(D))/Q."""
    P, Q = (1, 2) if D % 4 == 1 else (0, 1)
    r = isqrt(D)
    a0 = (P + r) // Q
    P = a0 * Q - P
    Q = (D - P * P) // Q
    first, period = (P, Q), []
    while True:
        a = (P + r) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        period.append(a)
        if (P, Q) == first:
            return a0, period


def discriminant(a4: int, a6: int) -> int:
    return -16 * (4 * a4 ** 3 + 27 * a6 ** 2)


def ap_euler(a4: int, a6: int, p: int) -> int:
    """a_p = -sum over x of the Legendre symbol of x^3 + a4 x + a6, by Euler's criterion."""
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        if v:
            total += 1 if pow(v, half, p) == 1 else -1
    return -total


def count_fp2(a4: int, a6: int, p: int) -> int:
    a = ap_euler(a4, a6, p)
    return p * p + 1 - (a * a - 2 * p)


# -- operations --------------------------------------------------------------------


def _op(argv: str, **check) -> dict:
    return {"argv": argv.split(), "check": check}


def _stratified_primes(rng, primes: list[int], lo: int, hi: int, n: int, good) -> list[int]:
    """One seeded prime from each of n equal slices of [lo, hi] satisfying good(i, p)."""
    out = []
    width = (hi - lo) / n
    for i in range(n):
        a, b = lo + i * width, lo + (i + 1) * width
        pool = primes[bisect_left(primes, a) : bisect_left(primes, b)]
        out.append(rng.choice([p for p in pool if good(i, p)]))
    return out


def algebra_ops(seed: int) -> list[dict]:
    rng = random.Random(f"algebra:{seed}")
    ops = []
    for d in range(2, ALGEBRA_SMALL_MAX + 1):
        if is_squarefree(d):
            ops.append(_op(f"dimgroup --D {d}"))
            ops.append(_op(f"coherence --D {d}", kind="coherence"))
    n, width = ALGEBRA_LARGE_COUNT, ALGEBRA_BAND
    log_lo, log_hi = (math.log10(x) for x in ALGEBRA_LARGE)
    pool = []
    while len(pool) < n * width:
        d = round(10 ** rng.uniform(log_lo, log_hi))
        if is_squarefree(d):
            a0, period = omega_cf(d)
            # contfrac and unit build a few quadratic-field elements per
            # partial quotient, and each element tests D for squares
            # today: this product tracks their time closely
            pool.append((len(period) * trial_divisions(d), d, a0, period))
    pool.sort()
    for band in range(n):
        _, d, a0, period = pool[band * width + width // 2]
        ops.append(_op(f"contfrac --D {d}", kind="contfrac", a0=a0, period=period))
        ops.append(_op(f"unit --D {d}", kind="unit"))
    rng.shuffle(ops)
    return ops


def traces_ops(seed: int) -> list[dict]:
    rng = random.Random(f"traces:{seed}")
    primes = primes_upto(TRACES_AP[1])

    def good(D: int, p: int) -> bool:
        return discriminant(*CM_CURVES[D]) % p != 0  # 2 divides every discriminant

    heavy = []
    for D in CM_CURVES:
        n_good = sum(1 for p in primes if p <= TRACES_BOUND and good(D, p))
        heavy.append(_op(f"match --D {D} --bound {TRACES_BOUND}", kind="match", rows=n_good))
        heavy.append(_op(f"prop3 --D {D} --s 3 --bound {TRACES_BOUND}"))
    rng.shuffle(heavy)

    rest = []
    lo, hi, n = TRACES_AP
    for i, p in enumerate(_stratified_primes(rng, primes, lo, hi, n, lambda i, p: good(i % 3 + 1, p))):
        rest.append(_op(f"ap --D {i % 3 + 1} --p {p}", kind="ap", p=p))
    lo, hi, n = TRACES_FP2
    for i, p in enumerate(_stratified_primes(rng, primes, lo, hi, n, lambda i, p: good(i % 3 + 1, p))):
        D = i % 3 + 1
        if i % 2 == 0:
            rest.append(_op(f"zeta-local --D {D} --p {p}", kind="zeta", ap=ap_euler(*CM_CURVES[D], p)))
        else:
            rest.append(_op(f"count --D {D} --p {p} --r 2", kind="count", count=count_fp2(*CM_CURVES[D], p)))
    rng.shuffle(rest)
    return heavy + rest


def cli_startup_ops(seed: int) -> list[dict]:
    rng = random.Random(f"cli_startup:{seed}")
    ops = []
    while len(ops) < CLI_STARTUP_CHILDREN:
        cycle = list(README_COMMANDS)
        rng.shuffle(cycle)
        ops.extend(_op(c) for c in cycle)
    return ops[:CLI_STARTUP_CHILDREN]


# -- output checks -----------------------------------------------------------------


def _rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines() if line and not line.startswith("#")][1:]


def check_output(op: dict, code, stdout: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if not stdout.endswith("# status pass\n"):
        return "status is not pass"
    check = op["check"]
    kind = check.get("kind")
    if kind is None:
        return None
    rows = _rows(stdout)
    if kind == "match":
        if len(rows) != check["rows"]:
            return f"{len(rows)} primes compared, expected {check['rows']}"
        return None
    if len(rows) != 1:
        return f"{len(rows)} data rows, expected 1"
    row = rows[0]
    if kind == "contfrac":
        if row[1] != str(check["a0"]) or row[2] != ",".join(map(str, check["period"])):
            return "continued fraction differs from the (P, Q) recurrence"
    elif kind == "unit":
        if row[2] not in ("1", "-1") or row[3] != "true":
            return "unit norm is not +-1 or unit is not stable"
    elif kind == "coherence":
        if row[1] != "true" or row[2] != "true":
            return "coherence check is not true"
    elif kind == "ap":
        p, ap = int(row[0]), int(row[1])
        if p != check["p"] or ap * ap > 4 * p or row[1] != row[2]:
            return f"a_p = {ap} at p = {p} fails Hasse or the route comparison"
    elif kind == "zeta":
        if int(row[1]) != check["ap"]:
            return f"a_p = {row[1]}, Euler's criterion gives {check['ap']}"
    elif kind == "count":
        if int(row[4]) != check["count"]:
            return f"count = {row[4]}, Euler's criterion gives {check['count']}"
    return None


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds spent importing kzero (top-level kzero entries) and numpy, from -X importtime."""
    kzero_us = numpy_us = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if depth == 0 and (name == "kzero" or name.startswith("kzero.")):
            kzero_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return kzero_us / 1e6, numpy_us / 1e6
