"""Cyclotomic moduli Phi_M(x) for M = p^s or M = p^s q^t, with reduction.

A CycloModulus validates the shape of M, carries Phi_M(x) once, as a
read-only int8 row (poly builds the IntPoly from it), and is immutable.

Every reduction mod Phi_M rests on one identity. With y = x^M',
M' = M/rad(M), Phi_M(x) is Phi_p(y) or Phi_pq(y), so 1 - x^M = Phi_M(x) D(y)
with D = 1 - y for p^s and D = (1 - y^p)(1 - y^q)/(1 - y) for p^s q^t.
Both shapes then rest on one cofactor E, E = 1 - y at p^s and
E = (1 - y^p)(1 - y^q) = (1 - y) D at p^s q^t, whose product with a row is
a subtraction a factor (_times_cofactor). As E = -Phi_1(y) at p^s and
Phi_1^2 Phi_p Phi_q(y) at pq, while y^rad - 1 = Phi_1 Phi_p (Phi_1 Phi_p
Phi_q Phi_pq at pq), y^rad - 1 divides v E exactly when Phi_rad(y)
divides v: the product with E mod x^M - 1 has the kernel Phi_M Z[x], as
the product with D does. So a row is 0 mod Phi_M exactly when its product
with E is 0 mod x^M - 1, the zero test of a constructed inverse's
residual (scaled_inverse.check_gap_block). For p^s
the remainder is one subtraction: v (1 - y) = r (1 - y) with r_(p-1) = 0,
so r is the prefix sum of that product, r_k = v_k - v_(p-1), read on the
(p, M') view of each row. For p^s q^t the remainder r has degree below
phi_pq, so r E has degree at most pq, and v E mod y^pq - 1 is r E but at
y^0, where its top term r_(phi_pq - 1) y^pq wraps. That term is
-(v D)_(pq-1) = -(sum v[pq-p:pq] - sum v[pq-q-p:pq-q]), one window sum of
v (1 - y^q). With it added back, the product is r E below y^pq, and
prefix sums over the residue classes mod p, then mod q, divide E out from
the low end. All of it runs on coefficient-major columns at the radical:
each subsequence v[b::M'] of each row is one column, reduced mod Phi_rad.
_prefix_sums runs each prefix sum as one accumulate on narrow columns and
as whole-row adds on wide ones.

_reduce_rows folds a batch of rows mod x^M - 1 and reduces them, by the
subtraction or by the product with E and the prefix sums; _monomial_rows
reduces unit rows in blocks, the route of every x^k. An exhaustive sweep
(scaled_inverse.norm_profile) reduces each subsequence once, at the
radical, and takes the norms of its rotations with no second reduction:
in closed form at a prime radical, by exact division by y at a two-prime
one.

Integers are exact. Rows are int64 when every step provably fits, and
object arrays of Python ints, exact at any size, otherwise (_as_rows).
With |v| <= b after folding mod x^M - 1, no entry exceeds 2b for p^s
(v_k - v_(p-1), and v (1 - y) in the zero test), nor 4pq^2 b for p^s q^t:
|v (1 - y^p)| <= 2b and |v E| <= 4b, the entry at y^0 with the wrapped
term added back is at most (4 + 2p) b, the prefix sums of q terms mod p
stay below (4q + 2p) b, and those of p - 1 terms after them below
(p - 1)(4q + 2p) b < 4pq^2 b, with p < q. Synthetic division by Phi_M
(long_division_rows) is the independent check of R_M (kron_check,
verify).

make_modulus refuses M above MAX_MODULUS before any factorization, and keeps
a bounded cache of the moduli it built. The tables built per modulus, the
constructive route's case cores (scaled_inverse._case_core) and the NTT's
block tables (ntt._block_tables), share one bounded cache (_cached), keyed
by tuples of integers, so it keeps no modulus alive. reduction_matrix and
kron_check refuse an R_M of more than MAX_MATRIX_CELLS cells before any
allocation (the expansion factors ask reduction_matrix only for R_rad).
"""
from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (MatrixTooLarge, ModulusMismatch, ModulusTooLarge,
                     NotApplicable, UnsupportedModulus)
from .poly import IntPoly, _int64_row, _magnitude, kron_mul

# Largest supported M. Up to here trial division takes at most 2^10 steps
# and Phi_M has at most 2^20 coefficients; a prime M near 2^61 would need
# about 10^9 trial divisions.
MAX_MODULUS = 2 ** 20

# Entries of unit rows that _monomial_rows reduces in one block (2 MiB).
_UNIT_BLOCK = 2 ** 18

# The tables that _cached has built, keyed by a kind and integers, least
# recently used first: ("core", M, d) for a case core, a -Q row of fewer
# than M int64 entries (8 MiB at most, at M = MAX_MODULUS), and
# ("ntt", M, *primes) for a block's NTT tables, fewer than ntt._NTT_BLOCK
# int64 entries (8 MiB) for a block of two or more primes. At most
# _TABLE_ENTRIES entries and _TABLE_BYTES bytes of arrays are kept over
# both kinds, so the ceiling holds two of the largest of either; an entry
# above it alone is built, used and not kept. The cores of every divisor
# of a few moduli up to 2187 take under 1 MB, and point's generic route at
# M = 35 or 63 one block of tables of 8 or 19 KB.
_TABLE_ENTRIES = 256
_TABLE_BYTES = 2 ** 24
_table_cache: OrderedDict = OrderedDict()
_table_lock = threading.Lock()


def _cached(key: tuple, build):
    """The table of key, a tuple of integers led by its kind, built by
    build() on a miss and then read from the cache. build returns the table
    and the numpy arrays it holds, which are made read-only and counted
    against _TABLE_BYTES. build runs outside the lock, so two threads that
    miss the same key at once both build the same table."""
    with _table_lock:
        entry = _table_cache.get(key)
        if entry is not None:
            _table_cache.move_to_end(key)
            return entry[0]
    table, arrays = build()
    for x in arrays:
        x.setflags(write=False)
    with _table_lock:
        _table_cache[key] = table, sum(x.nbytes for x in arrays)
        size = sum(n for _, n in _table_cache.values())
        while len(_table_cache) > _TABLE_ENTRIES or size > _TABLE_BYTES:
            size -= _table_cache.popitem(last=False)[1][1]
    return table


@dataclass(frozen=True)
class PrimePower:
    p: int
    s: int


@dataclass(frozen=True)
class TwoPrime:
    p: int
    s: int
    q: int
    t: int


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
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


@dataclass(frozen=True, slots=True)
class CycloModulus:
    """Validated cyclotomic modulus carrying Phi_M, immutable.

    poly_row, the only copy of Phi_M, holds its phi + 1 coefficients as a
    read-only int8 array (they lie in {-1, 0, 1}), the numerator the
    constructive inverses start from; poly builds the IntPoly from it when
    read. Equality and hashing go by value (the row is left out, as M
    determines it).
    """

    M: int
    shape: PrimePower | TwoPrime
    phi: int
    radical: int = field(repr=False)
    inflation: int = field(repr=False)
    poly_row: np.ndarray = field(repr=False, compare=False)

    @property
    def poly(self) -> IntPoly:
        return IntPoly(self.poly_row.tolist())


@lru_cache(maxsize=64)
def make_modulus(M: int) -> CycloModulus:
    """Build the modulus for M = p^s or p^s q^t; UnsupportedModulus otherwise.

    M above MAX_MODULUS raises ModulusTooLarge before M is factorized.
    Phi_rad is built in numpy, as ones(p) or as Phi_pq from int64 prefix
    sums, and checked to be monic of degree phi / M' with every coefficient
    in {-1, 0, 1} before it is narrowed to int8 and written to every M'-th
    entry of poly_row (Phi_M(x) = Phi_rad(x^M')); each cached modulus so
    holds about phi bytes.
    """
    if M < 2:
        raise UnsupportedModulus(f"M={M} is below 2")
    if M > MAX_MODULUS:
        raise ModulusTooLarge(
            f"M={M} exceeds the supported ceiling M <= {MAX_MODULUS}")
    factors = _factorize(M)
    if len(factors) == 1:
        (p, s), = factors
        shape = PrimePower(p, s)
        phi = (p - 1) * p ** (s - 1)
        radical, inflation = p, p ** (s - 1)
        base = np.ones(p, dtype=np.int8)
    elif len(factors) == 2:
        (p, s), (q, t) = factors
        shape = TwoPrime(p, s, q, t)
        phi = (p - 1) * (q - 1) * p ** (s - 1) * q ** (t - 1)
        radical, inflation = p * q, p ** (s - 1) * q ** (t - 1)
        # Phi_pq = (1 - x)(1 - x^pq)/((1 - x^p)(1 - x^q)) has degree < pq: the
        # series cut at x^pq, by prefix sums over residues mod p, then mod q
        base = np.zeros(p * q, dtype=np.int64)
        base[:2] = 1, -1
        base = base.reshape(q, p).cumsum(axis=0).reshape(p, q).cumsum(axis=0)
        base = base.ravel()
    else:
        raise UnsupportedModulus(
            f"M={M} has {len(factors)} distinct prime factors; only p^s and "
            f"p^s q^t are supported")
    deg = phi // inflation
    if not (base[0] == base[deg] == 1 and not base[deg + 1:].any()
            and base.min() >= -1 and base.max() <= 1):
        raise AssertionError(f"Phi_{M} is not monic of degree phi = {phi} "
                             f"with constant term 1 and coefficients in "
                             f"{{-1, 0, 1}}")
    poly_row = np.zeros(phi + 1, dtype=np.int8)
    poly_row[::inflation] = base[:deg + 1]
    poly_row.setflags(write=False)
    return CycloModulus(M, shape, phi, radical, inflation, poly_row)


@dataclass(frozen=True)
class RingElement:
    """Fully reduced element of Z[x]/Phi_M(x): a length-phi coefficient vector.

    The coefficients are trusted to be reduced ints, as every construct
    builds one; element() is the entry point for untrusted input, checked
    and reduced through IntPoly.
    """

    modulus: CycloModulus
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.modulus.phi:
            raise ValueError("coefficient vector length must equal phi(M)")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def max_norm(self) -> int:
        return max(map(abs, self.coeffs), default=0)

    def to_poly(self) -> IntPoly:
        return IntPoly(self.coeffs)

    def _require_same(self, other):
        if self.modulus != other.modulus:
            raise ModulusMismatch(
                f"elements of M={self.modulus.M} and M={other.modulus.M}")

    def __add__(self, other) -> RingElement:
        self._require_same(other)
        return RingElement(self.modulus,
                           tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other) -> RingElement:
        self._require_same(other)
        return RingElement(self.modulus,
                           tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> RingElement:
        return RingElement(self.modulus, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.modulus, tuple(c * other for c in self.coeffs))
        if isinstance(other, RingElement):
            return ring_mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return str(self.to_poly())


def element(m: CycloModulus, coeffs) -> RingElement:
    """RingElement from any coefficient sequence (reduced if necessary)."""
    return reduce(IntPoly(coeffs), m)


def _as_rows(V, m: CycloModulus, headroom: int = 1) -> np.ndarray:
    """V (a sequence or 2-D array) as 2-D rows: int64 when the module's bound
    holds for headroom * max|V| * (folds mod x^M - 1), else object."""
    A = _int64_row(V)
    if A is None:
        A = np.asarray(V, dtype=object)
    if A.ndim == 1:
        A = A[None]
    big = _magnitude(A) if A.size else 0
    folds = -(-A.shape[1] // m.M) or 1
    return A.astype(_rows_dtype(m, headroom * folds * big), copy=False)


def _rows_dtype(m: CycloModulus, big: int):
    """int64 when the module's bound holds for rows of max|v| <= big, folded
    mod x^M - 1, through every step of the reduction; object otherwise."""
    sh = m.shape
    growth = 2 if isinstance(sh, PrimePower) else 4 * sh.p * sh.q ** 2
    return np.int64 if big * growth < 2 ** 63 else object


def _times_one_minus(X: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """out = X (1 - y^s) mod y^n - 1, with y one step down axis 0 of X
    (length n). Returns out."""
    np.subtract(X[s:], X[:-s], out=out[s:])
    np.subtract(X[:s], X[-s:], out=out[:s])
    return out


def _times_cofactor(A: np.ndarray, m: CycloModulus) -> np.ndarray:
    """Each length-M row of A times E(y) mod x^M - 1, E = 1 - y at p^s and
    (1 - y^p)(1 - y^q) at p^s q^t, coefficient-major: a new C-ordered
    (rad, n, M') array whose [a, r, b] is coefficient a M' + b of row r's
    product. A row is 0 mod Phi_M exactly when its product is 0."""
    X = A.reshape(A.shape[0], m.radical, m.inflation).transpose(1, 0, 2)
    out = np.empty(X.shape, dtype=X.dtype)
    if isinstance(m.shape, PrimePower):
        return _times_one_minus(X, 1, out)
    W = _times_one_minus(X, m.shape.p, np.empty_like(out))
    return _times_one_minus(W, m.shape.q, out)


def _reduce_rows(V, m: CycloModulus) -> np.ndarray:
    """The (n, phi) remainders mod Phi_M of the rows of V (see _as_rows),
    read mod x^M - 1: exponents fold mod M first. At M = p^s each folded
    row gives r_k = v_k - v_(p-1) by one subtraction on its (p, M') view.
    At p^s q^t its product with E (_times_cofactor), on coefficient-major
    columns at the radical, the subsequences v[b::M'] as the columns, is
    divided by E from the low end by prefix sums (see the module
    docstring)."""
    M, rad, phi = m.M, m.radical, m.phi
    A = _as_rows(V, m)
    n, L = A.shape
    if L != M:
        folds = -(-L // M) or 1
        A = np.concatenate([A, np.zeros((n, folds * M - L), A.dtype)], axis=1)
        A = A.reshape(n, folds, M).sum(axis=1)
    Y = A.reshape(n, rad, m.inflation)
    if isinstance(m.shape, PrimePower):
        # r_k = v_k - v_(p-1) on the (n, p, M') view: one subtraction
        return (Y[:, :-1] - Y[:, -1:]).reshape(n, phi)
    p, q = m.shape.p, m.shape.q
    # F = v E mod y^pq - 1 is r E below y^pq but at y^0, where r E's top
    # term r_(phi-1) y^pq wraps: add back (v D)_(pq-1) = -r_(phi-1), the
    # sum of v (1 - y^q) over y^(pq-p) .. y^(pq-1). F is new and C-ordered,
    # so every reshape below is a view and the prefix sums run in place,
    # as whole-row adds over contiguous rows
    F = _times_cofactor(A, m)
    F[0] += (Y[:, rad - p:] - Y[:, rad - q - p:rad - q]).sum(axis=1)
    # divide by 1 - y^p, then by 1 - y^q: prefix sums over residue classes
    _prefix_sums(F.reshape((q, p) + F.shape[1:]))
    _prefix_sums(F[:(p - 1) * q].reshape((p - 1, q) + F.shape[1:]))
    return F[:(p - 1) * (q - 1)].transpose(1, 0, 2).reshape(n, phi)


# Rows X[k] of at least this many entries are prefix-summed by whole-row
# adds, narrower ones by one np.add.accumulate down axis 0. Measured on a
# 2-core x86 host (numpy 2.4): a row add costs about 1.3 us, nearly
# whatever its width, and accumulate about 5 ns an entry, as it runs one
# inner loop per column. On (K, width) blocks they break even near width
# 500 for K = 37, 300 for K = 13 and 150 for K = 7. So the single rows of
# a construct or a product (31 entries a row at M = 1147: accumulate 7 us,
# row adds 50 us) take accumulate, and sweep blocks of hundreds of columns
# (143: 13 rows of 704, row adds 14 us, accumulate 38 us) take row adds.
_WIDE_SLAB = 256


def _prefix_sums(X: np.ndarray) -> np.ndarray:
    """X[k] += X[k - 1] for k = 1, 2, ...: prefix sums down axis 0, in
    place, by whole-row adds or one accumulate as the width of a row X[k]
    decides (_WIDE_SLAB). Returns X."""
    if X[0].size < _WIDE_SLAB:
        return np.add.accumulate(X, axis=0, out=X)
    for k in range(1, X.shape[0]):
        X[k] += X[k - 1]
    return X


def reduce(a: IntPoly, m: CycloModulus) -> RingElement:
    """Unique representative of a mod Phi_M with degree < phi(M), equal to
    the long-division remainder; exponents fold mod M first."""
    return RingElement(m, tuple(_reduce_rows(a.coeffs, m)[0].tolist()))


def monomial_reduce(k: int, m: CycloModulus) -> RingElement:
    """x^k mod Phi_M for any integer k; the exponent is normalized mod M."""
    return RingElement(m, tuple(_monomial_rows([k % m.M], m)[0].tolist()))


def _monomial_rows(ks, m: CycloModulus) -> np.ndarray:
    """x^k mod Phi_M for each exponent of ks (normalized mod M): one reduced
    row each, from _reduce_rows over blocks of unit rows. A block holds at
    most about _UNIT_BLOCK entries, so the reduction's temporaries stay
    O(_UNIT_BLOCK + M) however many exponents are asked for."""
    ks = np.asarray(ks, dtype=np.int64).ravel() % m.M
    out = np.empty((ks.size, m.phi), dtype=np.int64)
    step = max(1, _UNIT_BLOCK // m.M)
    for lo in range(0, ks.size, step):
        blk = ks[lo:lo + step]
        units = np.zeros((blk.size, m.M), dtype=np.int64)
        units[np.arange(blk.size), blk] = 1
        out[lo:lo + blk.size] = _reduce_rows(units, m)
    return out


def monomial_diff(i: int, j: int, m: CycloModulus) -> RingElement:
    """x^i - x^j mod Phi_M."""
    xi, xj = _monomial_rows([i % m.M, j % m.M], m)
    return RingElement(m, tuple((xi - xj).tolist()))


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product in Z[x]/Phi_M: the Kronecker product row (poly.kron_mul),
    reduced by _reduce_rows."""
    a._require_same(b)
    m = a.modulus
    return RingElement(m, tuple(
        _reduce_rows(kron_mul(a.coeffs, b.coeffs), m)[0].tolist()))


@dataclass(frozen=True)
class BlockRanges:
    """Column ranges of R_pq = (I | B1 | B2 | B3), half-open."""

    identity: tuple[int, int]
    b1: tuple[int, int]
    b2: tuple[int, int]
    b3: tuple[int, int]

    def as_dict(self):
        return {"identity": list(self.identity), "b1": list(self.b1),
                "b2": list(self.b2), "b3": list(self.b3)}


@dataclass(frozen=True)
class ReductionMatrix:
    """phi(M) x M integer matrix; column j is x^j mod Phi_M."""

    modulus: CycloModulus
    entries: np.ndarray
    blocks: BlockRanges | None

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[:, j].tolist())

    def to_csv(self) -> str:
        return "\n".join(",".join(map(str, row))
                         for row in self.entries.tolist())

    def to_json_obj(self) -> dict:
        return {
            "M": self.modulus.M,
            "phi": self.modulus.phi,
            "entries": self.entries.tolist(),
            "blocks": self.blocks.as_dict() if self.blocks else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


# Ceiling of M phi, the cells of R_M, that reduction_matrix and kron_check
# accept; above it they raise MatrixTooLarge before any allocation. The
# smallest power of two that keeps M = 2187 (3.2e6 cells), chosen when the
# bench's `expansion 2187` built R_M; expansion now builds only R_rad (and
# is refused by its cells), so the largest R_M the bench builds is
# `verify 1024 --suite matrix`'s (5.2e5 cells, 37 MB peak RSS). Measured
# on a 2-core host at M = 2039 (4.16e6 cells, just below it): `verify
# --suite expansion` 16 s, `verify --suite matrix` 1.5 s and 46 MB peak
# RSS, `matrix --format json` 3.2 s and 43 MB, pretty `matrix` 2.3 s,
# `expansion` 0.5 s.
MAX_MATRIX_CELLS = 2 ** 22


def check_matrix_cells(m: CycloModulus) -> None:
    """Raise MatrixTooLarge when R_M has more than MAX_MATRIX_CELLS cells."""
    cells = m.M * m.phi
    if cells > MAX_MATRIX_CELLS:
        raise MatrixTooLarge(
            f"R_M of M={m.M} has M*phi = {cells} cells, above the ceiling "
            f"{MAX_MATRIX_CELLS}")


def reduction_matrix(m: CycloModulus) -> ReductionMatrix:
    """Materialize R_M = R_rad kron I_M' (x^(aM' + b) = y^a x^b), stored as
    int8; entries lie in {-1, 0, 1}, asserted on each block of R_rad's
    columns (_monomial_rows) before it is narrowed. Raises MatrixTooLarge
    before any allocation (check_matrix_cells)."""
    check_matrix_cells(m)
    rad = make_modulus(m.radical)
    base = np.empty((rad.M, rad.phi), dtype=np.int8)
    step = max(1, _UNIT_BLOCK // rad.M)
    for lo in range(0, rad.M, step):
        cols = _monomial_rows(range(lo, min(rad.M, lo + step)), rad)
        if np.abs(cols).max() > 1:
            raise AssertionError(f"R_{rad.M} entry outside {{-1, 0, 1}}")
        base[lo:lo + len(cols)] = cols
    entries = np.kron(base.T, np.eye(m.inflation, dtype=np.int8))
    entries.setflags(write=False)
    blocks = None
    sh = m.shape
    if isinstance(sh, TwoPrime) and sh.s == 1 and sh.t == 1:
        p, q, phi = sh.p, sh.q, m.phi
        blocks = BlockRanges(identity=(0, phi), b1=(phi, phi + p - 1),
                             b2=(phi + p - 1, phi + q), b3=(phi + q, m.M))
    return ReductionMatrix(m, entries, blocks)


def long_division_rows(m: CycloModulus) -> np.ndarray:
    """x^k mod Phi_M for k = 0 .. M - 1 by synthetic division, as an
    (M, phi) int8 array, row k the remainder of x^k: the independent route
    to the columns of R_M (kron_check, verify), read from the coefficients
    of Phi_M alone. Rows below phi are the unit rows; above, row k is
    x row(k - 1) - lead Phi_M, lead the top entry of row(k - 1), one step
    of long division. The step runs on one int64 row, against Phi_M's int8
    row widened to int64 once (int8 there is slower), range-checked before
    it is narrowed: every entry of R_M lies in {-1, 0, 1}, and a remainder
    entry outside int8 raises OverflowError, so the narrow storage can
    hide no disagreement. Phi_M's coefficients lie in {-1, 0, 1}, so the
    step from a checked row stays below 2^8 in magnitude."""
    M, phi = m.M, m.phi
    out = np.zeros((M, phi), dtype=np.int8)
    out[np.arange(phi), np.arange(phi)] = 1
    low = m.poly_row[:phi].astype(np.int64)
    row = np.zeros(phi, dtype=np.int64)
    row[-1] = 1
    for k in range(phi, M):
        lead = row[-1]
        row[1:] = row[:-1]
        row[0] = 0
        row -= lead * low
        if row.min() < -128 or row.max() > 127:
            raise OverflowError(f"x^{k} mod Phi_{M} has an entry outside int8")
        out[k] = row
    return out


def kron_check(m: CycloModulus) -> bool:
    """Whether R_M, built as R_rad kron I_M', equals long division of every
    x^k by Phi_M (long_division_rows); needs a non-squarefree M. Raises
    MatrixTooLarge before any work (check_matrix_cells)."""
    if m.inflation == 1:
        raise NotApplicable(f"M={m.M} is squarefree")
    check_matrix_cells(m)
    return np.array_equal(reduction_matrix(m).entries.T, long_division_rows(m))
