"""The benchmark's workloads: inputs made from the seed, requests and checks.

Every request draws its inputs from a fixed pool, built from constants
below, so the sha256 of every possible output could be recorded once in
golden.json; the run seed picks pool entries and their order. Requests of
one kind (same operation, same modulus) cost the same, and a round holds a
fixed number of requests of each kind, so figures computed from per-kind
medians do not depend on which pool entries a seed picks.

sweep  Exhaustive norm_profile at M in {35, 125, 143}: two-prime
       squarefree, odd prime power, and the C4 modulus. Every (i, j) inverse
       is constructed and re-verified, so reduction and batched-sweep work
       shows here; there are no dense products and no Bezout calls. The
       inputs are exhaustive; the seed only orders the moduli.
point  Single requests against warm moduli: construct_scaled_inverse on
       random pairs and ring_mul on dense elements with coefficients in
       [-5, 5] at M in {323, 1024, 1147, 2187}, and generic_scaled_inverse on
       dense elements at M in {35, 63}. It runs polynomial multiply,
       reduction and the Bezout route one call at a time, where batching a
       sweep cannot help.
cli    `python -m cycloring` commands, each in one cold child process. Each
       process builds its modulus from scratch; reduction_matrix and
       expansion read the stored columns. The only workload that runs
       verify, structure, expansion and the CLI's formatting.
"""
from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, NamedTuple

import checks

SWEEP_MODULI = (35, 125, 143)
POINT_MODULI = (323, 1024, 1147, 2187)
GENERIC_MODULI = (35, 63)

# requests of each kind in one point round, per modulus
CONSTRUCTS_PER_ROUND = 16
MULS_PER_ROUND = 1
GENERICS_PER_ROUND = 2

PAIR_POOL = 256        # (i, j) pairs per modulus
MUL_POOL = 8           # (a, b) element pairs per modulus
GENERIC_POOL = 16      # elements per modulus
REDUCE_POOL = 8        # dense polynomials for `reduce 2187`
COEFF_RANGE = 5        # dense coefficients lie in [-5, 5]

CLI_COMMANDS = (
    ("verify", "63", "--trials", "200"),
    ("verify", "121", "--trials", "200", "--format", "json"),
    ("verify", "1024", "--suite", "matrix"),
    ("matrix", "221", "--format", "json"),
    ("expansion", "2187", "--format", "json"),
    ("sweep", "91", "--format", "json"),
    ("scaled-inv", "63", "5", "1", "--method", "both", "--format", "json"),
    ("cyclo", "2187", "--format", "json"),
)
REDUCE_M = 2187
CLI_SETUP = ("cyclo", "35")
WORKLOADS = ("sweep", "point", "cli")


class Request(NamedTuple):
    kind: str                      # requests of one kind cost the same
    key: str                       # golden.json entry of its output digest
    call: Callable[[], object]     # the timed library call
    canon: Callable[[object], object]           # result -> canonical output
    check: Callable[[object], "str | None"]     # independent check


def _all_pairs(M: int) -> int:
    return M * (M - 1) // 2


@lru_cache(maxsize=None)
def pair_pool(M: int) -> tuple:
    rng = random.Random(f"pairs-{M}")
    pool = []
    for _ in range(PAIR_POOL):
        i = rng.randrange(1, M)
        pool.append((i, rng.randrange(i)))
    return tuple(pool)


@lru_cache(maxsize=None)
def dense_pool(tag: str, M: int, count: int, length: int) -> tuple:
    rng = random.Random(f"{tag}-{M}")
    return tuple(tuple(rng.randint(-COEFF_RANGE, COEFF_RANGE)
                       for _ in range(length)) for _ in range(count))


def inverse_output(si) -> dict:
    return {"coeffs": list(si.u.coeffs), "scale": si.scale, "norm": si.norm,
            "bound": si.bound, "case": si.case.value}


def profile_output(profile) -> dict:
    """The same fields `cycloring sweep --format json` prints."""
    return {
        "rows": [[r.i, r.j, r.scale, r.norm, r.case.value] for r in profile.rows],
        "case_max": {case.value: {"norm": n, "i": i, "j": j}
                     for case, (n, i, j) in profile.case_max.items()},
        "flagged": [[r.i, r.j, r.scale, r.norm, r.case.value]
                    for r in profile.flagged],
    }


# ------------------------------------------------------------ library requests


def sweep_request(cyc, M: int) -> Request:
    return Request(f"sweep@{M}", f"sweep/{M}",
                   lambda: cyc.norm_profile(cyc.make_modulus(M)),
                   profile_output, lambda out: checks.check_profile(M, out))


def construct_request(cyc, M: int, n: int) -> Request:
    i, j = pair_pool(M)[n]
    a = checks.monomial_diff(i, j)
    return Request(f"construct@{M}", f"construct/{M}/{n}",
                   lambda: cyc.construct_scaled_inverse(i, j, cyc.make_modulus(M)),
                   inverse_output,
                   lambda out: checks.check_inverse(M, a, out, (i, j)))


def mul_request(cyc, M: int, n: int) -> Request:
    m = cyc.make_modulus(M)
    a, b = dense_pool("mul", M, 2 * MUL_POOL, m.phi)[2 * n:2 * n + 2]
    A, B = cyc.RingElement(m, a), cyc.RingElement(m, b)
    return Request(f"mul@{M}", f"mul/{M}/{n}",
                   lambda: cyc.ring_mul(A, B),
                   lambda c: {"coeffs": list(c.coeffs)},
                   lambda out: checks.check_product(M, a, b, out))


def generic_request(cyc, M: int, n: int) -> Request:
    m = cyc.make_modulus(M)
    a = dense_pool("generic", M, GENERIC_POOL, m.phi)[n]
    A = cyc.RingElement(m, a)
    return Request(f"generic@{M}", f"generic/{M}/{n}",
                   lambda: cyc.generic_scaled_inverse(A),
                   inverse_output,
                   lambda out: checks.check_inverse(M, a, out, None))


def library_round(cyc, workload: str, rng: random.Random) -> list[Request]:
    """One round of a library workload, in the order the seed gives."""
    if workload == "sweep":
        reqs = [sweep_request(cyc, M) for M in SWEEP_MODULI]
    else:
        reqs = []
        for M in POINT_MODULI:
            reqs += [construct_request(cyc, M, rng.randrange(PAIR_POOL))
                     for _ in range(CONSTRUCTS_PER_ROUND)]
            reqs += [mul_request(cyc, M, rng.randrange(MUL_POOL))
                     for _ in range(MULS_PER_ROUND)]
        for M in GENERIC_MODULI:
            reqs += [generic_request(cyc, M, rng.randrange(GENERIC_POOL))
                     for _ in range(GENERICS_PER_ROUND)]
    rng.shuffle(reqs)
    return reqs


def library_pool(cyc, workload: str) -> list[Request]:
    """Every request the workload can make, for recording golden digests."""
    if workload == "sweep":
        return [sweep_request(cyc, M) for M in SWEEP_MODULI]
    return ([construct_request(cyc, M, n)
             for M in POINT_MODULI for n in range(PAIR_POOL)]
            + [mul_request(cyc, M, n)
               for M in POINT_MODULI for n in range(MUL_POOL)]
            + [generic_request(cyc, M, n)
               for M in GENERIC_MODULI for n in range(GENERIC_POOL)])


def round_mix(workload: str) -> dict[str, tuple[int, int]]:
    """kind -> (requests per round, pairs per request)."""
    if workload == "sweep":
        return {f"sweep@{M}": (1, _all_pairs(M)) for M in SWEEP_MODULI}
    if workload == "point":
        mix = {}
        for M in POINT_MODULI:
            mix[f"construct@{M}"] = (CONSTRUCTS_PER_ROUND, 1)
            mix[f"mul@{M}"] = (MULS_PER_ROUND, 0)
        for M in GENERIC_MODULI:
            mix[f"generic@{M}"] = (GENERICS_PER_ROUND, 0)
        return mix
    return {cli_kind(argv): (1, cli_pairs(argv))
            for argv in CLI_COMMANDS + (reduce_argv(0),)}


# ------------------------------------------------------------ CLI commands


@lru_cache(maxsize=None)
def reduce_argv(n: int) -> tuple:
    poly = dense_pool("reduce", REDUCE_M, REDUCE_POOL, 2 * REDUCE_M)[n]
    return ("reduce", str(REDUCE_M), "--poly=" + ",".join(map(str, poly)))


def cli_kind(argv) -> str:
    return f"{argv[0]}@{argv[1]}"


def cli_key(argv) -> str:
    if argv[0] == "reduce":
        n = next(n for n in range(REDUCE_POOL) if reduce_argv(n) == tuple(argv))
        return f"cli/reduce {argv[1]}/{n}"
    return "cli/" + " ".join(argv)


def cli_pairs(argv) -> int:
    """(i, j) inverses whose construction the command checks one by one."""
    if argv[0] == "verify" and "--suite" not in argv:
        return _all_pairs(int(argv[1]))     # construction_exhaustive
    if argv[0] == "sweep":
        return _all_pairs(int(argv[1]))
    if argv[0] == "scaled-inv":
        return 1
    return 0


def cli_round(rng: random.Random) -> list[tuple]:
    cmds = list(CLI_COMMANDS) + [reduce_argv(rng.randrange(REDUCE_POOL))]
    rng.shuffle(cmds)
    return cmds


def cli_pool() -> list[tuple]:
    return ([CLI_SETUP] + list(CLI_COMMANDS)
            + [reduce_argv(n) for n in range(REDUCE_POOL)])
