"""Exact dense polynomial arithmetic over Z and Q.

Polynomials are coefficient sequences in ascending degree: ``IntPoly([1, 0, 2])``
is 2x^2 + 1. Coefficients are Python ints, so everything is arbitrary
precision. The zero polynomial is the empty sequence and has degree -inf,
which keeps it distinct from nonzero constants (degree 0).

Products of two polynomials use signed Kronecker substitution: each factor
is packed into one Python int, the two ints are multiplied by CPython's
Karatsuba, and the coefficients are read back as digits. The digit width
comes from an exact bound on the product coefficients, so the result is
exact at any precision.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely between threads.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InexactDivision, NotCoprime, ZeroPolynomial

NEG_INF = float("-inf")


class IntPoly:
    """Dense univariate polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        self.coeffs = coeffs[:end]

    @staticmethod
    def monomial(k: int, c: int = 1) -> IntPoly:
        """c * x^k."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return IntPoly((0,) * k + (c,))

    @staticmethod
    def constant(c: int) -> IntPoly:
        return IntPoly((c,))

    @property
    def degree(self) -> int | float:
        """Index of the highest nonzero coefficient; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        return IntPoly(tuple(a + b for a, b in
                             itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        return IntPoly(tuple(a - b for a, b in
                             itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __rsub__(self, other) -> IntPoly:
        return (-self) + other

    def __mul__(self, other) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # Signed Kronecker substitution: evaluate both factors at X = 2^(8w),
        # multiply the two big ints, and read the product's coefficients back
        # as base-X digits. Every product coefficient lies in [-bound, bound];
        # adding bound to each gives digits in [0, 2 * bound], and w bytes
        # make X > 2 * bound, so no digit carries into the next.
        ma, mb = max(map(abs, a)), max(map(abs, b))
        bound = ma * mb * min(len(a), len(b))
        w = ((2 * bound).bit_length() + 7) // 8
        n = len(a) + len(b) - 1
        prod = _kron_pack(a, ma, w) * _kron_pack(b, mb, w)
        buf = (prod + bound * _repunit(n, w)).to_bytes(n * w, "little")
        return IntPoly([int.from_bytes(buf[k:k + w], "little") - bound
                        for k in range(0, n * w, w)])

    __rmul__ = __mul__

    def shift(self, k: int) -> IntPoly:
        """Multiply by x^k."""
        if self.is_zero():
            return self
        if k < 0:
            raise ValueError("negative shift")
        return IntPoly((0,) * k + self.coeffs)

    def evaluate(self, x0):
        """Evaluate at x0 (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def max_norm(self) -> int:
        """Largest absolute coefficient; 0 for the zero polynomial."""
        return max(map(abs, self.coeffs), default=0)

    def content(self) -> int:
        """Positive gcd of all coefficients."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no content")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def rev(self) -> IntPoly:
        """Reverse polynomial x^deg * p(1/x); rev(rev(p)) = p when p(0) != 0."""
        if self.is_zero():
            raise ZeroPolynomial("rev of the zero polynomial is undefined")
        return IntPoly(tuple(reversed(self.coeffs)))

    def inflate(self, m: int) -> IntPoly:
        """Substitute x -> x^m."""
        if m < 1:
            raise ValueError("inflation factor must be >= 1")
        if m == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return IntPoly(out)

    def scalar_exact_div(self, d: int) -> IntPoly:
        """Divide every coefficient by d, failing if any division is inexact."""
        if d == 0:
            raise ZeroDivisionError("scalar division by zero")
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r:
                raise InexactDivision(f"coefficient {c} not divisible by {d}")
            out.append(q)
        return IntPoly(out)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def _repunit(n: int, w: int) -> int:
    """1 + X + ... + X^(n-1) at X = 2^(8w)."""
    return int.from_bytes(b"\x01".ljust(w, b"\x00") * n, "little")


def _kron_pack(coeffs: tuple[int, ...], mag: int, w: int) -> int:
    """sum c_i X^i at X = 2^(8w), given mag = max |c_i| and 2 * mag < X.

    Each digit is packed as c_i + mag >= 0 in one bytes join, then the offset
    mag * (1 + X + ... + X^(n-1)) is taken off the whole number.
    """
    digits = b"".join((c + mag).to_bytes(w, "little") for c in coeffs)
    return int.from_bytes(digits, "little") - mag * _repunit(len(coeffs), w)


def divrem(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division over Z: a = q*b + r with deg r < deg b.

    Every leading-coefficient division along the way must be exact over the
    integers (always true for monic b), otherwise InexactDivision is raised.
    """
    if b.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if a.degree < b.degree:
        return IntPoly(), a
    lead = b.coeffs[-1]
    db = len(b.coeffs) - 1
    tail = [(i, c) for i, c in enumerate(b.coeffs[:-1]) if c]
    r = list(a.coeffs)
    q = [0] * (len(r) - db)
    for d in range(len(r) - 1, db - 1, -1):
        c = r[d]
        if not c:
            continue
        qc, rem = divmod(c, lead)
        if rem:
            raise InexactDivision(
                f"leading coefficient {c} not divisible by {lead}")
        q[d - db] = qc
        r[d] = 0
        for i, bc in tail:
            r[d - db + i] -= qc * bc
    return IntPoly(q), IntPoly(r)


def exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Return q with a = q*b exactly over Z; InexactDivision otherwise."""
    q, r = divrem(a, b)
    if not r.is_zero():
        raise InexactDivision(f"remainder {r!r} is nonzero")
    return q


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


def resultant_bezout(a: IntPoly, f: IntPoly) -> tuple[int, IntPoly, RatPoly]:
    """Resultant and Bezout coefficients of a against f.

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
        raise ValueError("resultant_bezout requires deg(a) < deg(f)")

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
