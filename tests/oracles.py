"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's closed forms: the cyclotomic
polynomial comes from the iterated divisor loop on x^n - 1, the
resultant from a fraction-free determinant of the Sylvester matrix, the
norm profile from one constructed and verified inverse per (i, j) pair
or from every rotation reduced at full length M (the library's former
sweep), the rotations of a sweep block from a copied step of exact
division by y at every radical (the library's former chain), the
reduction of whole rows by the library's former row-major divide or by
long division one row at a time, the long-division rows of R_M's check
by one poly.divrem per x^k (the library's former route), the zero test
by the library's former cofactor D, polynomial products from the
schoolbook double loop, constructive inverses from the paper's formulas
by long division, and the resultant with its Bezout cofactor from the
extended Euclidean algorithm over Q, or over F_ell one prime at a time
(the library's former scalar images), and the randomized expansion
products x^k g as the integer matmul of a window of R_M, and the
expansion factors with their witnesses from the prefix sums and windows
of the full R_M (the library's former routes), and the random subset
sums of a stride family one trial at a time (the library's former loop),
and the NTT's inverse transform by a second set of tables at w^-1 (the
library's former inverse).
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from typing import NamedTuple

import numpy as np

from cycloring.cyclotomic import (_UNIT_BLOCK, CycloModulus, PrimePower,
                                  RingElement, _as_rows, _reduce_rows,
                                  make_modulus, monomial_reduce, reduce,
                                  reduction_matrix, ring_mul)
from cycloring import ntt
from cycloring.expansion import witness_exponent
from cycloring.errors import InexactDivision, NotCoprime
from cycloring.poly import NEG_INF, IntPoly, _residues, divrem, exact_div
from cycloring.structure import _stride_family
from cycloring.scaled_inverse import (InverseCase, ProfileRow, _construct,
                                      check_gap_block,
                                      construct_scaled_inverse)


def schoolbook_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """a * b by the O(len a * len b) double loop, skipping zero coefficients."""
    if a.is_zero() or b.is_zero():
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
    return IntPoly(out)


def reduce_rows_row_major(V, m: CycloModulus) -> np.ndarray:
    """_reduce_rows as the library ran it before its divide moved to
    coefficient-major columns: the same fold, dtype choice (_as_rows) and
    multiply by D, then a row-major divide. For p^s the remainder is
    v[:phi] - tile(v[phi:], p - 1); for p^s q^t, Z (1 - y) is divided by
    1 - y^p and 1 - y^q as two cumsum chains along each row. Its multiply
    by D is the former one too, with shifts by np.concatenate."""
    M, phi = m.M, m.phi
    A = _as_rows(V, m)
    n, L = A.shape
    if L != M:
        folds = -(-L // M) or 1
        A = np.concatenate([A, np.zeros((n, folds * M - L), A.dtype)], axis=1)
        A = A.reshape(n, folds, M).sum(axis=1)
    sh = m.shape
    if isinstance(sh, PrimePower):
        # y^(p-1) = -(1 + y + ... + y^(p-2)) mod Phi_p(y)
        return A[:, :phi] - np.tile(A[:, phi:], sh.p - 1)
    p, q, w = sh.p, sh.q, m.inflation
    Z = times_cofactor_d(A, m).reshape(n, p * q, w)
    F = Z.copy()
    F[:, 1:] -= Z[:, :-1]
    G = F.reshape(n, q, p, w).cumsum(axis=1).reshape(n, p * q, w)
    G = G[:, :(p - 1) * q].reshape(n, p - 1, q, w).cumsum(axis=1)
    return G.reshape(n, (p - 1) * q, w)[:, :(p - 1) * (q - 1)].reshape(n, phi)


def _times_one_minus(X: np.ndarray, s: int) -> np.ndarray:
    """X (1 - y^s) mod y^n - 1, with y one step along axis 1 (length n)."""
    return X - np.concatenate((X[:, -s:], X[:, :-s]), axis=1)


def times_cofactor_d(A: np.ndarray, m: CycloModulus) -> np.ndarray:
    """Each length-M row of A times D(y) mod x^M - 1, y = x^M', as (n, M)
    rows: D = 1 - y at p^s and (1 - y^p)(1 - y^q)/(1 - y) at p^s q^t, the
    cofactor of Phi_M in 1 - x^M. The library's former zero test, in its
    prefix-sum form: A (1 - y^p) is 0 at y = 1, so its prefix sums are
    A (1 - y^p)/(1 - y) mod y^pq - 1. A row is 0 mod Phi_M exactly when
    its image is 0."""
    n = A.shape[0]
    Y = A.reshape(n, m.radical, m.inflation)
    if isinstance(m.shape, PrimePower):
        return _times_one_minus(Y, 1).reshape(n, m.M)
    W = _times_one_minus(Y, m.shape.p).cumsum(axis=1)
    return _times_one_minus(W, m.shape.q).reshape(n, m.M)


def long_division_remainders(V, m: CycloModulus) -> np.ndarray:
    """Each row of V mod Phi_M by long division (poly.divrem), one row at a
    time, as an (n, phi) object array of Python ints. Phi_M divides
    x^M - 1, so it equals _reduce_rows, which folds exponents mod M
    first."""
    out = np.zeros((len(V), m.phi), dtype=object)
    for r, row in enumerate(V):
        rem = divrem(IntPoly([int(c) for c in row]), m.poly)[1].coeffs
        out[r, :len(rem)] = rem
    return out


def long_division_rows_by_divrem(m: CycloModulus) -> np.ndarray:
    """x^k mod Phi_M by one poly.divrem per k = 0 .. M - 1, as the (M, phi)
    int8 array of cyclotomic.long_division_rows, which takes one step of
    synthetic division per k instead. An entry outside int8 raises
    OverflowError."""
    out = np.zeros((m.M, m.phi), dtype=np.int8)
    for k in range(m.M):
        rem = divrem(IntPoly.monomial(k), m.poly)[1].coeffs
        out[k, :len(rem)] = np.array(rem, dtype=np.int8)
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_divisor_loop(n: int) -> IntPoly:
    """Phi_n by dividing x^n - 1 by Phi_d for every proper divisor d of n."""
    poly = IntPoly.monomial(n) - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divrem(poly, cyclotomic_divisor_loop(d))
            assert rem.is_zero()
    return poly


def sylvester_matrix(a: IntPoly, f: IntPoly) -> list[list[int]]:
    da, df = len(a.coeffs) - 1, len(f.coeffs) - 1
    n = da + df
    rows = []
    desc_a = list(reversed(a.coeffs))
    desc_f = list(reversed(f.coeffs))
    for i in range(df):
        rows.append([0] * i + desc_a + [0] * (n - da - 1 - i))
    for i in range(da):
        rows.append([0] * i + desc_f + [0] * (n - df - 1 - i))
    return rows


def bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant_oracle(a: IntPoly, f: IntPoly) -> int:
    """res(a, f) as the Sylvester determinant (rows of a first)."""
    if a.is_zero() or f.is_zero():
        return 0
    if a.degree == 0:
        return a.coeffs[0] ** (len(f.coeffs) - 1)
    if f.degree == 0:
        return f.coeffs[0] ** (len(a.coeffs) - 1)
    return bareiss_det(sylvester_matrix(a, f))


def diophantine_bit(i: int, p: int, q: int) -> int:
    """1 if alpha*p + beta*q = i has no nonnegative solution, else 0."""
    return 0 if any((i - alpha * p) % q == 0
                    for alpha in range(i // p + 1)) else 1


class ProfileTable(NamedTuple):
    """The fields of a NormProfile that an oracle sweep reproduces."""

    rows: tuple[ProfileRow, ...]
    case_max: dict
    flagged: tuple[ProfileRow, ...]


def norm_profile_per_pair(m: CycloModulus) -> ProfileTable:
    """norm_profile by constructing and verifying every (i, j) one at a time."""
    rows = []
    case_max: dict = {}
    for i in range(1, m.M):
        for j in range(i):
            si = construct_scaled_inverse(i, j, m)
            row = ProfileRow(i, j, si.scale, si.norm, si.case)
            rows.append(row)
            best = case_max.get(si.case)
            if best is None or row.norm > best[0]:
                case_max[si.case] = (row.norm, i, j)
    return ProfileTable(tuple(rows), case_max, ())


def norm_profile_blocks(m: CycloModulus) -> ProfileTable:
    """norm_profile by the block path, O(M^3): row j of gap g's block is the
    rotation x^{-j} acc of the gap's folded row, reduced at full length M in
    one _reduce_rows call per gap, and every pair is checked by its own
    exact product: (x^{j+g} - x^j) row_j, reduced by the row-major divide
    (reduce_rows_row_major) for the whole block at once, must be the
    scale, and each row's norm at most the bound. Case maxima as in
    norm_profile."""
    M, phi = m.M, m.phi
    gaps = [None]
    best: dict = {}
    for g in range(1, M):
        [(case, scale, bound)], acc = _construct(range(g, g + 1), 0, m)
        # row j starts at acc[j], so it is x^{-j} acc mod x^M - 1
        rot = np.tile(acc[0], M - g + 1)[:(M - g) * (M + 1)]
        block = _reduce_rows(rot.reshape(M - g, M + 1)[:, :M], m)
        js = np.arange(M - g)[:, None]
        cols = js + np.arange(phi)
        prod = np.zeros((M - g, 2 * M), dtype=np.int64)
        prod[js, cols + g] = block
        prod[js, cols] -= block
        want = np.zeros(phi, dtype=np.int64)
        want[0] = scale
        bad = (reduce_rows_row_major(prod, m) != want).any(axis=1)
        norms = np.abs(block).max(axis=1)
        bad |= norms > bound
        if bad.any():
            j = int(bad.argmax())
            raise AssertionError(f"oracle check failed for M={M}, "
                                 f"(i, j)=({j + g}, {j})")
        j = int(norms.argmax())
        key = (int(norms[j]), -g - j, -j)
        best[case] = max(best.get(case, key), key)
        gaps.append((scale, case, norms.tolist()))
    rows = tuple(ProfileRow(i, j, scale, norms[j], case)
                 for i in range(1, M) for j in range(i)
                 for scale, case, norms in (gaps[i - j],))
    case_max = {case: (norm, -i, -j) for case, (norm, i, j) in best.items()}
    return ProfileTable(rows, case_max, ())


def rotation_walk(R0: np.ndarray, rad_m: CycloModulus,
                  steps: int | None = None):
    """The library's former rotation chain, at every radical, over the full
    cycle unless steps is given: from each remainder row r of R0 mod
    Phi_rad, y^{-1} r = (r - r_0 Phi_rad)/y, a new row per step (a shifted
    copy less r_0 times the coefficients 1 .. phi of Phi_rad), on the rows
    _as_rows picks (int64 under its headroom 4 p q^2, else Python ints).
    Returns (A, R): A[rho, k] is the max-norm of y^{-rho} R0[k] mod Phi_rad
    for rho < steps (default rad), and R the rows after those steps, which
    equal R0 after rad steps, as the chain closes."""
    R, tail = _as_rows(R0, rad_m), rad_m.poly_row[1:]
    A = []
    for _ in range(rad_m.M if steps is None else steps):
        A.append(np.abs(R).max(axis=1))
        nxt = np.empty_like(R)
        nxt[:, :-1] = R[:, 1:]
        nxt[:, -1] = 0
        nxt -= R[:, :1] * tail
        R = nxt
    return np.array(A), R


def window_norms_by_division(m: CycloModulus, rad_m: CycloModulus,
                             gaps: range, table: list, acc: np.ndarray, j=0,
                             peaks: list | None = None) -> np.ndarray:
    """scaled_inverse._window_norms as the library ran it before its
    closed form, its in-place chain and its half cycle: the rows of acc
    (built at the shifts j) turned back to u(g, 0), the same reduction at
    the radical and check_gap_block call at j = 0, then rotation_walk over
    the full cycle at every radical, its closure check and the same window
    maxima. Appends (max |R_rho|, max |R0|) of the block to peaks when
    given."""
    M, w, rad = m.M, m.inflation, m.radical
    n = len(gaps)
    # row r of acc is x^{-j_r} acc0[r]: acc0[r, c] = acc[r, (c - j_r) mod M]
    acc = np.take_along_axis(
        acc, (np.arange(M) - np.reshape(j, (-1, 1))) % M, axis=1)
    R0 = _reduce_rows(acc.reshape(n, rad, w).transpose(0, 2, 1)
                      .reshape(-1, rad), rad_m)
    U = R0.reshape(n, w, -1).transpose(0, 2, 1).reshape(n, m.phi)
    _, scales, bounds = zip(*table)
    check_gap_block(m, gaps, U, np.array(scales), np.array(bounds))
    A, R = rotation_walk(R0, rad_m)
    if peaks is not None:
        peaks.append((int(A.max()), int(np.abs(R0).max())))
    bad = (R != R0).any(axis=1).astype(bool)
    if bad.any():
        g = gaps[int(bad.argmax()) // w]
        raise AssertionError(
            f"sweep check failed: the rotations y^-rho u({g}, 0) mod "
            f"Phi_{rad}(y) do not close at rho = {rad} for M={M}, gap {g}")
    N = np.zeros((n, M + w), dtype=np.int64)
    N[:, :M].reshape(n, rad, w)[:] = A.reshape(rad, n, w).transpose(1, 0, 2)
    N[:, M:M + w - 1] = N[:, :w - 1]
    blocks = N.reshape(n, -1, w)
    pre = np.maximum.accumulate(blocks, axis=2).reshape(n, -1)
    suf = np.maximum.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1]
    return np.maximum(suf.reshape(n, -1)[:, :M], pre[:, w - 1:w - 1 + M])


def _largest_power_dividing(k: int, p: int) -> int:
    d = 1
    while k % (d * p) == 0:
        d *= p
    return d


def long_division_quotient(k: int, m: CycloModulus
                           ) -> tuple[IntPoly, int, int, int, InverseCase]:
    """(V, d, scale, bound, case) of the shift k = i - j from the paper's
    formulas: V = (N - c)/(x^d - 1) by exact long division (_quotient)."""
    sh = m.shape
    if isinstance(sh, PrimePower):
        p = sh.p
        case, scale, bound = InverseCase.PRIME_POWER, p, p - 1
        d = _largest_power_dividing(k, p)
    else:
        p, s, q, t = sh.p, sh.s, sh.q, sh.t
        if k % p ** s == 0:
            case, scale, bound = InverseCase.P_DIVIDES_SHIFT, q, q - 1
            d = p ** s * _largest_power_dividing(k, q)
        elif k % q ** t == 0:
            case, scale, bound = InverseCase.Q_DIVIDES_SHIFT, p, p - 1
            d = q ** t * _largest_power_dividing(k, p)
        else:
            case, scale, bound = InverseCase.COPRIME, 1, p - 1
            d = _largest_power_dividing(k, p) * _largest_power_dividing(k, q)
    return _quotient(m.M, case, d), d, scale, bound, case


@functools.lru_cache(maxsize=256)
def _quotient(M: int, case: InverseCase, d: int) -> IntPoly:
    """(N - c)/(x^d - 1) by long division, the numerator N built by
    inflating prime-power cyclotomic polynomials. Keyed by M, not by the
    modulus, so the cache keeps no modulus alive."""
    m = make_modulus(M)
    if case is InverseCase.PRIME_POWER:
        num = m.poly - m.shape.p
    elif case is InverseCase.COPRIME:
        num = m.poly - 1
    else:
        p, s, q, t = m.shape.p, m.shape.s, m.shape.q, m.shape.t
        if case is InverseCase.Q_DIVIDES_SHIFT:
            p, s, q, t = q, t, p, s
        # Phi_{q^t}(x^{p^s}) - q, with p and q swapped for Q_DIVIDES_SHIFT
        num = IntPoly((1,) * q).inflate(q ** (t - 1) * p ** s) - q
    return exact_div(num, IntPoly.monomial(d) - 1)


def fold_quotient(v: IntPoly, k: int, d: int, j: int, m: CycloModulus
                  ) -> RingElement:
    """u = -x^{M-j} V(x^{k/d}) mod Phi_M. Exponents are folded mod M before
    reduce, so a large k/d stays cheap."""
    M = m.M
    folded = [0] * M
    for e, c in enumerate(v.coeffs):
        folded[(e * (k // d) + M - j) % M] -= c
    return reduce(IntPoly(folded), m)


def construct_by_long_division(i: int, j: int, m: CycloModulus
                               ) -> tuple[RingElement, int, int, InverseCase]:
    """(u, scale, bound, case) of x^i - x^j from the paper's formulas.

    u = -x^{M-j} V(x^{k/d}) mod Phi_M with V = (N - c)/(x^d - 1) and
    k = i - j (long_division_quotient, then fold_quotient).
    """
    k = i - j
    v, d, scale, bound, case = long_division_quotient(k, m)
    return fold_quotient(v, k, d, j, m), scale, bound, case


class RatPoly:
    """Dense polynomial with exact rational coefficients.

    Fraction keeps every coefficient in lowest terms with a positive
    denominator, which is the canonical form relied on by scale-minimality
    checks.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(Fraction(c) for c in coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        self.coeffs = coeffs[:end]

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def denominator_lcm(self) -> int:
        """lcm of the lowest-terms denominators; 1 for the zero polynomial."""
        out = 1
        for c in self.coeffs:
            out = out * c.denominator // math.gcd(out, c.denominator)
        return out

    def scaled_by(self, c) -> RatPoly:
        return RatPoly(tuple(x * c for x in self.coeffs))

    def to_int_poly(self) -> IntPoly:
        if any(c.denominator != 1 for c in self.coeffs):
            raise InexactDivision("rational coefficients are not integral")
        return IntPoly(tuple(int(c) for c in self.coeffs))

    def __repr__(self) -> str:
        return f"RatPoly({[str(c) for c in self.coeffs]})"


def _frac_divmod(a: list[Fraction], b: list[Fraction]):
    # a, b trimmed coefficient lists over Q, b nonzero
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    if len(r) - 1 < db:
        return [], r
    q = [Fraction(0)] * (len(r) - db)
    for d in range(len(r) - 1, db - 1, -1):
        c = r[d]
        if not c:
            continue
        qc = c / lead
        q[d - db] = qc
        for i in range(db + 1):
            r[d - db + i] -= qc * b[i]
    while r and not r[-1]:
        r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def fraction_bezout(a: IntPoly, f: IntPoly) -> tuple[int, IntPoly, RatPoly]:
    """Resultant and Bezout coefficients of a against f, over Q.

    Returns (r, s, st) with r = res(a, f) a nonzero integer,
    s*a = r (mod f) with deg s < deg f over Z, and st = s/r the unique
    rational cofactor with st*a = 1 (mod f).

    Computed by the extended Euclidean algorithm over Q, tracking the
    resultant through the remainder chain. Requires deg a < deg f and
    gcd(a, f) = 1 over Q; a nontrivial gcd raises NotCoprime.
    """
    if a.is_zero():
        raise NotCoprime("a vanishes mod f, no Bezout relation exists")
    if not a.degree < f.degree:
        raise ValueError("fraction_bezout requires deg(a) < deg(f)")

    deg_a = len(a.coeffs) - 1
    deg_f = len(f.coeffs) - 1

    r0 = [Fraction(c) for c in f.coeffs]
    r1 = [Fraction(c) for c in a.coeffs]
    s0: list[Fraction] = []
    s1 = [Fraction(1)]
    res_acc = Fraction(1)

    while len(r1) - 1 > 0:
        q, r2 = _frac_divmod(r0, r1)
        if not r2:
            raise NotCoprime("gcd(a, f) is nonconstant; f is not irreducible")
        # res(A, B) = (-1)^(dA*dB) * lc(B)^(dA - dR) * res(B, R)
        d0, d1, d2 = len(r0) - 1, len(r1) - 1, len(r2) - 1
        res_acc *= Fraction(-1) ** (d0 * d1) * r1[-1] ** (d0 - d2)
        # cofactor recurrence s2 = s0 - q*s1
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for iq, cq in enumerate(q):
            if cq:
                for isx, cs in enumerate(s1):
                    prod[iq + isx] += cq * cs
        s2 = [x - y for x, y in itertools.zip_longest(s0, prod, fillvalue=Fraction(0))]
        while s2 and not s2[-1]:
            s2.pop()
        r0, r1, s0, s1 = r1, r2, s1, s2

    c = r1[0]  # nonzero constant: last element of the remainder chain
    res_f_a = res_acc * c ** (len(r0) - 1)
    r_frac = Fraction(-1) ** (deg_a * deg_f) * res_f_a
    if r_frac.denominator != 1:
        raise AssertionError("resultant of integer polynomials must be integral")
    r = int(r_frac)

    st = RatPoly(tuple(x / c for x in s1))
    s = st.scaled_by(r).to_int_poly()

    # defensive exactness check: s*a - r must vanish mod f
    _, rem = divrem(s * a - r, f)
    if not rem.is_zero():
        raise AssertionError("Bezout identity verification failed")
    return r, s, st


def _trim(v: list[int]) -> list[int]:
    while v and not v[-1]:
        v.pop()
    return v


def bezout_image(a: tuple[int, ...], f: tuple[int, ...], ell: int):
    """res(a, f) and the Bezout cofactor s mod one prime ell, by the EEA
    over F_ell on Python ints: the image that the library's batched
    _bezout_images gives at ell.

    a and f are ascending coefficient tuples with len(a) < len(f), and ell
    does not divide lc(a)*lc(f). Returns (r, s) with r = res(a, f) mod ell
    and s, of length deg f, the residues of the integral cofactor with
    s*a = r (mod f), or (0, None) when ell | r, where the remainder chain
    dies early.
    """
    if not a[-1] % ell or not f[-1] % ell:
        raise ValueError(f"{ell} divides lc(a)*lc(f)")
    n = len(f) - 1
    r0, r1 = [c % ell for c in f], [c % ell for c in a]
    s0, s1 = [], [1]
    acc = 1
    while len(r1) > 1:
        # r0 = q*r1 + rem and s0 - q*s1 in one pass over the quotient terms,
        # reduced mod ell once at the end
        d0, d1 = len(r0) - 1, len(r1) - 1
        inv = pow(r1[-1], -1, ell)
        s0 += [0] * (d0 - d1 + len(s1) - len(s0))
        for e in range(d0 - d1, -1, -1):
            qc = r0[e + d1] % ell * inv % ell
            r0[e:e + d1] = [x - qc * y for x, y in zip(r0[e:e + d1], r1)]
            s0[e:e + len(s1)] = [x - qc * y
                                 for x, y in zip(s0[e:e + len(s1)], s1)]
        rem = _trim([x % ell for x in r0[:d1]])
        if not rem:
            return 0, None
        # res(A, B) = (-1)^(dA*dB) * lc(B)^(dA - dR) * res(B, R)
        acc = acc * (-1) ** (d0 * d1) * pow(r1[-1], d0 - len(rem) + 1, ell) % ell
        r0, r1, s0, s1 = r1, rem, s1, _trim([x % ell for x in s0])
    # r1 is the nonzero constant c with s1*a = c (mod f), and res(r0, c) = c^deg r0
    c = r1[0]
    r = acc * pow(c, len(r0) - 1, ell) * (-1) ** ((len(a) - 1) * n) % ell
    t = r * pow(c, -1, ell) % ell
    return r, [x * t % ell for x in s1] + [0] * (n - len(s1))


def randomized_expansion_matmul(k: int, m: CycloModulus, trials: int,
                                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The random g of expansion.randomized_expansion_check for (trials,
    seed), zero rows dropped, and their products x^k g as the integer
    matmul of the window of R_M (columns k .. k + phi - 1 mod M) with
    them: the library's former route. Returns (gs, products), row t of
    products the coefficients of x^k gs[t] mod Phi_M.

    The g are drawn as the check draws them, in blocks of _UNIT_BLOCK // M
    trials: each block's rows below trials // 2 ternary, then its rows at
    or past trials // 2 in [-10, 10]."""
    k %= m.M
    win = reduction_matrix(m).entries[:, (k + np.arange(m.phi)) % m.M]
    rng = np.random.default_rng(seed)
    half, step = trials // 2, max(1, _UNIT_BLOCK // m.M)
    blocks = []
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        ternary = max(0, min(hi, half) - lo)
        blocks.append(rng.integers(-1, 2, size=(ternary, m.phi)))
        blocks.append(rng.integers(-10, 11, size=(hi - lo - ternary, m.phi)))
    gs = np.concatenate(blocks)
    gs = gs[np.abs(gs).max(axis=1) > 0]
    return gs, (win.astype(np.int64) @ gs.T).T


def expansion_by_matrix(m: CycloModulus):
    """(per_k, max_factor, witness_k, witness_g) of
    expansion.max_expansion_factor from the full R_M: each window's
    largest row L1 from prefix sums over the columns of R_M, and the
    witness of witness_k from R_M's window of it. The library's former
    route."""
    entries, csum = _matrix_prefix_sums(m)
    M, phi = m.M, m.phi
    inner = (csum[phi:] - csum[:M - phi + 1]).max(axis=1)
    wrapped = (csum[M] - csum[M - phi + 1:M] + csum[1:phi]).max(axis=1)
    per_k = tuple(np.concatenate([inner, wrapped]).tolist())
    wk = witness_exponent(m)
    if wk is None:
        wk = per_k.index(max(per_k))
    factor, g = _factor_by_matrix(wk, m, entries, csum)
    return per_k, factor, wk, g


def monomial_factors_by_matrix(m: CycloModulus):
    """(factor, witness coefficients) of x^k for k = 0 .. M - 1, as
    expansion.monomial_expansion_factor returns them, from R_M's window of
    each k: the first row of largest L1 and its signs, checked by
    ring_mul(monomial_reduce(k), g). The library's former route."""
    entries, csum = _matrix_prefix_sums(m)
    return [_factor_by_matrix(k, m, entries, csum) for k in range(m.M)]


def _matrix_prefix_sums(m: CycloModulus):
    """R_M's entries and csum, csum[c] the sum of columns 0 .. c - 1 of
    |R_M|, so that the row L1 norms of a window are a difference."""
    entries = reduction_matrix(m).entries
    csum = np.zeros((m.M + 1, m.phi), dtype=np.int32)
    np.cumsum(np.abs(entries.T), axis=0, dtype=np.int32, out=csum[1:])
    return entries, csum


def _factor_by_matrix(k: int, m: CycloModulus, entries, csum):
    M, phi = m.M, m.phi
    hi = k + phi
    row_l1 = csum[min(hi, M)] - csum[k]
    if hi > M:
        row_l1 = row_l1 + csum[hi - M]
    row = int(row_l1.argmax())
    cols = (k + np.arange(phi)) % M
    g = RingElement(m, tuple(np.sign(entries[row, cols]).tolist()))
    factor = int(row_l1[row])
    assert ring_mul(monomial_reduce(k, m), g).max_norm() == factor
    return factor, g.coeffs


def random_subset_norm_per_trial(j: int, m: CycloModulus, trials: int,
                                 rng: np.random.Generator) -> bool:
    """structure.random_subset_norm_check as the library ran it before its
    masks were drawn in blocks: one q-bit mask per trial, its subset of the
    stride family summed densely, stopping at the first sum of max-norm
    above 1."""
    cols = _stride_family(j, m)
    for _ in range(trials):
        mask = rng.integers(0, 2, size=len(cols)).astype(bool)
        total = cols[mask].sum(axis=0)
        if total.size and np.abs(total).max() > 1:
            return False
    return True


def ntt_rows_by_inverse_tables(a: tuple[int, ...], m: CycloModulus,
                               primes) -> np.ndarray:
    """The rows t of ntt.ntt_images at one block of primes, before their
    reduction mod Phi_M, by the library's former inverse transform: a
    second set of stage tables, gathered at w^-1 (each exponent of
    ntt._plan negated mod M) from the powers of the roots w, run on the
    row that holds s(w^e) M^-1 at the unit e itself. Nothing is cached."""
    M = m.M
    P = np.array(primes, dtype=np.int64)[:, None]
    pw = ntt._power_rows(m, P)
    stages = ntt._plan(m)
    forward = [(ntt._limbs(pw[:, dft]), pw[:, twiddle])
               for dft, twiddle in stages]
    inverse = [(ntt._limbs(pw[:, -dft % M]), pw[:, -twiddle % M])
               for dft, twiddle in stages]
    units = np.flatnonzero(np.gcd(np.arange(M), M) == 1)
    X = np.zeros((len(primes), 1, M), dtype=np.int64)
    X[:, 0, :len(a)] = _residues(a, P)
    vals = ntt._transform(X, forward, P)[:, 0, units]
    _, rest = ntt._all_but_one(vals, P)
    if (len(a) - 1) * m.phi % 2:
        rest = (P - rest) % P
    minv = np.array([pow(M, -1, ell) for ell in primes],
                    dtype=np.int64)[:, None]
    V = np.zeros((len(primes), 1, M), dtype=np.int64)
    V[:, 0, units] = rest * minv % P
    return ntt._transform(V, inverse, P)[:, 0]
