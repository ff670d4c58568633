"""Cyclotomic moduli Phi_M(x) for M = p^s or M = p^s q^t, with reduction.

A CycloModulus validates the shape of M and carries Phi_M(x). The M
reduction-matrix columns (x^j mod Phi_M) are built lazily, on the first
call that needs them (monomial_reduce, reduction_matrix, expansion), by a
multiply-by-x recurrence; after that, monomial reduction is an O(1) lookup
and the matrix columns form a code path independent of Euclidean long
division. Reduction, ring products and the constructive inverses never
build the columns.

make_modulus refuses M above MAX_MODULUS before any factorization, and keeps
a bounded cache of the moduli it built.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ModulusMismatch, ModulusTooLarge, NotApplicable,
                     UnsupportedModulus)
from .poly import IntPoly, exact_div

# Largest supported M. Up to here trial division takes at most 2^10 steps
# and Phi_M has at most 2^20 coefficients; a prime M near 2^61 would need
# about 10^9 trial divisions.
MAX_MODULUS = 2 ** 20


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


class CycloModulus:
    """Validated cyclotomic modulus carrying Phi_M; the reduction-matrix
    columns are built on first use."""

    __slots__ = ("M", "shape", "phi", "poly", "radical", "inflation",
                 "_column_cache", "_tail")

    def __init__(self, M, shape, phi, poly, radical, inflation):
        self.M = M
        self.shape = shape
        self.phi = phi
        self.poly = poly
        self.radical = radical
        self.inflation = inflation
        # nonzero coefficients of Phi_M below its leading term, for division
        self._tail = tuple((i, c) for i, c in enumerate(poly.coeffs[:-1]) if c)
        self._column_cache = None

    @property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """All M columns x^j mod Phi_M, j = 0..M-1 (M * phi slots)."""
        if self._column_cache is None:
            self._column_cache = self._build_columns()
        return self._column_cache

    def _build_columns(self):
        phi = self.phi
        # x^phi mod Phi_M as a length-phi vector (Phi_M is monic)
        top = [-c for c in self.poly.coeffs[:phi]]
        cols = []
        cur = [0] * phi
        cur[0] = 1
        for _ in range(self.M):
            cols.append(tuple(cur))
            carry = cur[phi - 1]
            cur = [0] + cur[:phi - 1]
            if carry:
                for i, c in enumerate(top):
                    if c:
                        cur[i] += carry * c
        return tuple(cols)

    def __eq__(self, other):
        return isinstance(other, CycloModulus) and self.M == other.M

    def __hash__(self):
        return hash(self.M)

    def __repr__(self):
        return f"CycloModulus(M={self.M}, shape={self.shape}, phi={self.phi})"


@lru_cache(maxsize=64)
def make_modulus(M: int) -> CycloModulus:
    """Build the modulus for M = p^s or p^s q^t; UnsupportedModulus otherwise.

    M above MAX_MODULUS raises ModulusTooLarge before M is factorized.
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
        poly = IntPoly((1,) * p).inflate(p ** (s - 1))
        radical, inflation = p, p ** (s - 1)
    elif len(factors) == 2:
        (p, s), (q, t) = factors
        shape = TwoPrime(p, s, q, t)
        phi = (p - 1) * (q - 1) * p ** (s - 1) * q ** (t - 1)
        phi_p = IntPoly((1,) * p)
        phi_q = IntPoly((1,) * q)
        x_pq_minus_1 = IntPoly.monomial(p * q) - 1
        phi_pq = exact_div(x_pq_minus_1, IntPoly((-1, 1)) * phi_p * phi_q)
        inflation = p ** (s - 1) * q ** (t - 1)
        poly = phi_pq.inflate(inflation)
        radical = p * q
    else:
        raise UnsupportedModulus(
            f"M={M} has {len(factors)} distinct prime factors; only p^s and "
            f"p^s q^t are supported")
    m = CycloModulus(M, shape, phi, poly, radical, inflation)
    assert m.poly.coeffs[-1] == 1 and m.poly.coeffs[0] == 1
    assert m.poly.degree == phi
    return m


@dataclass(frozen=True)
class RingElement:
    """Fully reduced element of Z[x]/Phi_M(x): a length-phi coefficient vector."""

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


def _rem_vector(vec: list[int], m: CycloModulus) -> list[int]:
    # in-place Euclidean remainder by the monic Phi_M; vec length <= M
    phi = m.phi
    for d in range(len(vec) - 1, phi - 1, -1):
        c = vec[d]
        if c:
            vec[d] = 0
            for i, fc in m._tail:
                vec[d - phi + i] -= c * fc
    vec = vec[:phi]
    vec.extend([0] * (phi - len(vec)))
    return vec


def reduce(a: IntPoly, m: CycloModulus) -> RingElement:
    """Unique representative of a mod Phi_M with degree < phi(M).

    Exponents are first folded mod M (valid since Phi_M divides x^M - 1),
    then one Euclidean division by the monic Phi_M finishes the job. The
    result equals the plain long-division remainder.
    """
    coeffs = a.coeffs
    if len(coeffs) > m.M:
        folded = [0] * m.M
        for e, c in enumerate(coeffs):
            if c:
                folded[e % m.M] += c
        vec = folded
    else:
        vec = list(coeffs)
    return RingElement(m, tuple(_rem_vector(vec, m)))


def monomial_reduce(k: int, m: CycloModulus) -> RingElement:
    """x^k mod Phi_M for any integer k; the exponent is normalized mod M."""
    return RingElement(m, m._columns[k % m.M])


def monomial_diff(i: int, j: int, m: CycloModulus) -> RingElement:
    """x^i - x^j mod Phi_M."""
    return monomial_reduce(i, m) - monomial_reduce(j, m)


def ring_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product in Z[x]/Phi_M."""
    a._require_same(b)
    return reduce(a.to_poly() * b.to_poly(), a.modulus)


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
        return tuple(int(c) for c in self.entries[:, j])

    def to_csv(self) -> str:
        return "\n".join(",".join(str(int(c)) for c in row)
                         for row in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "M": self.modulus.M,
            "phi": self.modulus.phi,
            "entries": [[int(c) for c in row] for row in self.entries],
            "blocks": self.blocks.as_dict() if self.blocks else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def reduction_matrix(m: CycloModulus) -> ReductionMatrix:
    """Materialize R_M. Entries of supported shapes all lie in {-1, 0, 1},
    so the two-prime case is stored with 8-bit entries; correctness never
    relies on the narrow storage."""
    dtype = np.int8 if isinstance(m.shape, TwoPrime) else np.int64
    entries = np.array(m._columns, dtype=dtype).T
    entries.setflags(write=False)
    blocks = None
    sh = m.shape
    if isinstance(sh, TwoPrime) and sh.s == 1 and sh.t == 1:
        p, q, phi = sh.p, sh.q, m.phi
        blocks = BlockRanges(identity=(0, phi), b1=(phi, phi + p - 1),
                             b2=(phi + p - 1, phi + q), b3=(phi + q, m.M))
    return ReductionMatrix(m, entries, blocks)


def kron_check(m: CycloModulus) -> bool:
    """Whether R_M equals R_rad(M) kron I_{M/rad(M)}; needs a non-squarefree M."""
    if m.inflation == 1:
        raise NotApplicable(f"M={m.M} is squarefree")
    base = reduction_matrix(make_modulus(m.radical)).entries.astype(np.int64)
    expect = np.kron(base, np.eye(m.inflation, dtype=np.int64))
    got = reduction_matrix(m).entries.astype(np.int64)
    return np.array_equal(got, expect)
