"""Independent checks of the outputs the benchmark collects.

Nothing here imports cycloring: every check recomputes what it needs from
the paper's statements, so a defect in the library cannot hide itself.

* Ring identities are checked by evaluation at a primitive M-th root of
  unity zeta modulo a prime ell = 1 (mod M). Phi_M splits into linear factors
  over F_ell and zeta is one of its roots, so f = g (mod Phi_M) implies
  f(zeta) = g(zeta) (mod ell); a wrong coefficient vector of length phi(M)
  passes only if its error vanishes at zeta, which one flipped coefficient
  never does.
* Case, scale and norm bound of a constructive inverse of x^i - x^j are
  checked against the paper's table (``expected_inverse``).
* Phi_M itself is rebuilt as prod_{d | M} (x^d - 1)^mu(M/d).
* ``digest`` gives the sha256 of an output in canonical JSON, compared with
  the digests recorded in golden.json to enforce bit-identical output.
"""
from __future__ import annotations

import hashlib
import json
import re
from functools import lru_cache

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def factorize(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def totient(M: int) -> int:
    phi = 1
    for p, e in factorize(M):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the first 12 prime bases is deterministic below 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RootOfUnity:
    """A primitive M-th root of unity zeta in F_ell, ell prime, ell = 1 mod M."""

    def __init__(self, M: int):
        k = (1 << 61) // M
        while not _is_prime(k * M + 1):
            k += 1
        ell = k * M + 1
        primes = [p for p, _ in factorize(M)]
        g = 2
        while True:
            z = pow(g, (ell - 1) // M, ell)
            if all(pow(z, M // p, ell) != 1 for p in primes):
                break
            g += 1
        self.M, self.ell, self.zeta = M, ell, z

    def power(self, k: int) -> int:
        return pow(self.zeta, k % self.M, self.ell)

    def eval(self, coeffs) -> int:
        """Value at zeta of sum c_k x^k, reduced mod ell (Horner)."""
        acc, z, ell = 0, self.zeta, self.ell
        for c in reversed(coeffs):
            acc = (acc * z + c) % ell
        return acc


@lru_cache(maxsize=None)
def root(M: int) -> RootOfUnity:
    return RootOfUnity(M)


def _mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


@lru_cache(maxsize=None)
def cyclotomic(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, degree-ascending, as prod (x^d - 1)^mu(M/d)."""
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    poly = [1]
    for d in divisors:            # multiplications first keep it a polynomial
        if _mobius(M // d) == 1:
            out = [0] * (len(poly) + d)
            for i, c in enumerate(poly):
                out[i + d] += c
                out[i] -= c
            poly = out
    for d in divisors:
        if _mobius(M // d) == -1:
            # q (x^d - 1) = poly, solved from the bottom: q[i] = q[i-d] - poly[i]
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    assert len(poly) == totient(M) + 1 and poly[-1] == 1
    return tuple(poly)


def reduce_mod_phi(coeffs, M: int) -> list[int]:
    """Remainder of sum c_k x^k modulo Phi_M by folding x^M = 1 and long division."""
    phi_poly = cyclotomic(M)
    phi = len(phi_poly) - 1
    vec = [0] * M
    for k, c in enumerate(coeffs):
        vec[k % M] += c
    tail = [(t, c) for t, c in enumerate(phi_poly[:-1]) if c]
    for d in range(M - 1, phi - 1, -1):
        c = vec[d]
        if c:
            for t, fc in tail:
                vec[d - phi + t] -= c * fc
    return vec[:phi]


def expected_inverse(M: int, i: int, j: int) -> tuple[str, int, int]:
    """The paper's table for a = x^i - x^j: (case, scale, norm bound)."""
    f = factorize(M)
    if len(f) == 1:
        p = f[0][0]
        return "prime_power", p, p - 1
    (p, s), (q, t) = f
    k = i - j
    if k % p ** s == 0:
        return "p_divides_shift", q, q - 1
    if k % q ** t == 0:
        return "q_divides_shift", p, p - 1
    return "coprime", 1, p - 1


def monomial_diff(i: int, j: int) -> list[int]:
    """Coefficients of x^i - x^j."""
    a = [0] * (max(i, j) + 1)
    a[i] += 1
    a[j] -= 1
    return a


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ library outputs
# Each check takes the canonical output of one request and returns None when
# it holds, or a one-line reason.


def check_inverse(M: int, a_coeffs, out: dict, constructed: tuple | None):
    """u with a*u = scale (mod Phi_M); ``constructed`` is (i, j) for x^i - x^j."""
    r = root(M)
    u = out["coeffs"]
    if len(u) != totient(M):
        return f"inverse has {len(u)} coefficients, phi({M}) = {totient(M)}"
    if out["norm"] != max(map(abs, u)):
        return "reported norm is not the max-norm of the coefficients"
    if r.eval(a_coeffs) * r.eval(u) % r.ell != out["scale"] % r.ell:
        return f"a(zeta) u(zeta) != {out['scale']} mod {r.ell}"
    if constructed is not None:
        case, scale, bound = expected_inverse(M, *constructed)
        if (out["case"], out["scale"], out["bound"]) != (case, scale, bound):
            return (f"(case, scale, bound) = ({out['case']}, {out['scale']}, "
                    f"{out['bound']}), paper says ({case}, {scale}, {bound})")
        if out["norm"] > bound:
            return f"norm {out['norm']} above bound {bound}"
    elif out["case"] != "generic" or out["scale"] < 1:
        return f"generic route gave case {out['case']} scale {out['scale']}"
    return None


def check_product(M: int, a_coeffs, b_coeffs, out: dict):
    r = root(M)
    c = out["coeffs"]
    if len(c) != totient(M):
        return f"product has {len(c)} coefficients, phi({M}) = {totient(M)}"
    if r.eval(a_coeffs) * r.eval(b_coeffs) % r.ell != r.eval(c):
        return f"c(zeta) != a(zeta) b(zeta) mod {r.ell}"
    return None


def check_profile(M: int, out: dict):
    """Exhaustive norm profile: every pair once, each row on the paper's table."""
    rows = out["rows"]
    want = [(i, j) for i in range(1, M) for j in range(i)]
    if [(row[0], row[1]) for row in rows] != want:
        return "rows do not enumerate 0 <= j < i < M once each"
    case_max = {}
    for i, j, scale, norm, case in rows:
        e_case, e_scale, bound = expected_inverse(M, i, j)
        if (case, scale) != (e_case, e_scale) or not 0 < norm <= bound:
            return (f"({i},{j}): case {case} scale {scale} norm {norm}, paper "
                    f"says {e_case} scale {e_scale} norm <= {bound}")
        case_max[case] = max(case_max.get(case, 0), norm)
    got = {case: info["norm"] for case, info in out["case_max"].items()}
    if got != case_max:
        return f"case maxima {got} disagree with the rows {case_max}"
    for case, info in out["case_max"].items():
        i, j = info["i"], info["j"]
        if rows[i * (i - 1) // 2 + j][3:] != [info["norm"], case]:
            return f"witness ({i},{j}) of case {case} does not attain its maximum"
    return None


# ------------------------------------------------------------ CLI outputs

_SECONDS = re.compile(r'\s*"seconds": [^,\n]*,?')


def strip_seconds(stdout: str) -> str:
    """CLI stdout with the timing fields removed, which alone vary run to run."""
    return _SECONDS.sub("", stdout)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.strip().split(",")]


def _check_cyclo(M, text, as_json):
    coeffs = json.loads(text)["coeffs"] if as_json else _ints(text)
    if tuple(coeffs) != cyclotomic(M):
        return f"printed Phi_{M} differs from prod (x^d - 1)^mu(M/d)"
    return None


def _check_reduce(M, text, poly):
    coeffs = _ints(text)
    if len(coeffs) != totient(M):
        return f"reduce printed {len(coeffs)} coefficients"
    r = root(M)
    if r.eval(coeffs) != r.eval(poly):
        return f"reduced polynomial differs at zeta mod {r.ell}"
    return None


def _check_matrix(M, obj):
    phi, r = totient(M), root(M)
    entries = obj["entries"]
    if obj["M"] != M or obj["phi"] != phi or len(entries) != phi:
        return "matrix header or shape is wrong"
    if any(len(row) != M or any(v not in (-1, 0, 1) for v in row)
           for row in entries):
        return "matrix rows have the wrong length or entries outside {-1,0,1}"
    zpow = [r.power(k) for k in range(phi)]
    for j in range(M):
        col = sum(entries[k][j] * zpow[k] for k in range(phi)) % r.ell
        if col != r.power(j):
            return f"column {j} is not x^{j} mod Phi_{M} at zeta"
    blocks = None
    f = factorize(M)
    if len(f) == 2 and f[0][1] == f[1][1] == 1:
        (p, _), (q, _) = f
        blocks = {"identity": [0, phi], "b1": [phi, phi + p - 1],
                  "b2": [phi + p - 1, phi + q], "b3": [phi + q, M]}
    if obj["blocks"] != blocks:
        return f"blocks {obj['blocks']} differ from I|B1|B2|B3 = {blocks}"
    return None


def _check_expansion(M, obj):
    per_k, k, g = obj["per_k"], obj["witness_k"], obj["witness_g"]
    if len(per_k) != M or max(per_k) != obj["max_factor"]:
        return "per-k factors and their maximum disagree"
    if per_k[k] != obj["max_factor"]:
        return f"witness exponent {k} does not attain the maximum"
    if not g or max(map(abs, g)) != 1:
        return "witness g is not a nonzero vector with entries in {-1,0,1}"
    prod = reduce_mod_phi([0] * k + list(g), M)
    if max(map(abs, prod)) != obj["max_factor"]:
        return f"||x^{k} g|| is {max(map(abs, prod))}, not {obj['max_factor']}"
    f = factorize(M)
    if len(f) == 1 and f[0][0] > 2 and obj["max_factor"] != 2:
        return f"odd prime power with max factor {obj['max_factor']}, paper says 2"
    return None


def _check_scaled_inv(M, i, j, obj):
    a = monomial_diff(i, j)
    con, gen = obj["construct"], obj["bezout"]
    why = (check_inverse(M, a, con, (i, j))
           or check_inverse(M, a, gen, None))
    if why:
        return why
    if con["scale"] % gen["scale"] or not obj["agree"]:
        return "construct and bezout inverses are not proportional"
    ratio = con["scale"] // gen["scale"]
    if con["coeffs"] != [ratio * c for c in gen["coeffs"]]:
        return "construct inverse is not the bezout inverse times the scale ratio"
    return None


def _check_verify_text(text):
    lines = text.strip().splitlines()
    if not lines or any(not line.endswith(": pass") for line in lines[:-1]):
        return "a verify check did not pass"
    if not re.fullmatch(r"total: \d+ passed, 0 failed", lines[-1]):
        return f"verify totals line reads {lines[-1]!r}"
    return None


def _check_verify_json(M, obj):
    if obj["M"] != M or not obj["ok"] or obj["totals"]["failed"]:
        return "verify report is not ok"
    if any(c["status"] != "pass" for s in obj["suites"] for c in s["checks"]):
        return "a verify check did not pass"
    return None


def check_cli(argv: list[str], stdout: str, returncode: int):
    """Check one CLI command's stdout against the paper and the ring identities."""
    if returncode != 0:
        return f"exit code {returncode}"
    cmd, M = argv[0], int(argv[1])
    as_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
    try:
        obj = json.loads(stdout) if as_json else None
        if cmd == "cyclo":
            return _check_cyclo(M, stdout, as_json)
        if cmd == "reduce":
            poly = _ints(next(a for a in argv if a.startswith("--poly="))[7:])
            return _check_reduce(M, stdout, poly)
        if cmd == "matrix":
            return _check_matrix(M, obj)
        if cmd == "expansion":
            return _check_expansion(M, obj)
        if cmd == "sweep":
            return check_profile(M, obj)
        if cmd == "scaled-inv":
            return _check_scaled_inv(M, int(argv[2]), int(argv[3]), obj)
        if cmd == "verify":
            return _check_verify_json(M, obj) if as_json else _check_verify_text(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return f"no check for command {cmd}"
