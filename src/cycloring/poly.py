"""Exact dense polynomial arithmetic over Z.

Polynomials are coefficient sequences in ascending degree: ``IntPoly([1, 0, 2])``
is 2x^2 + 1. Coefficients are Python ints, so everything is arbitrary
precision. The zero polynomial is the empty sequence and has degree -inf,
which keeps it distinct from nonzero constants (degree 0).

Products of two polynomials use signed Kronecker substitution (kron_mul,
shared with cyclotomic.ring_mul): each factor is packed into one Python
int, the two ints are multiplied by CPython's Karatsuba, and the
coefficients are read back as digits. The digit width comes from an exact
bound on the product coefficients, so the result is exact at any
precision. Digits of at most 8 bytes are packed and unpacked as byte views
of int64 rows; wider ones one Python int at a time.

The resultant and Bezout cofactor are computed mod 31-bit primes and
joined by the CRT up to twice the Hadamard bound (_multimodular: batches
of primes, dead primes, the CRT and the stop). The loop takes its primes
from root_primes(M), the primes ell = 1 (mod M) counting down from 2^31,
and its images from a kernel: here the batched EEA (_bezout_images), which
runs over a whole batch of primes at once on int64 rows, every entry below
2^31 and so every product of two below 2^62. It is the only EEA: a prime
whose remainders leave the batch's degree sequence is re-run in a batch of
its own. resultant_bezout runs the loop at root_primes(1), every prime
between 2^30 and 2^31, and certifies its pair by one exact division; the
generic scaled inverse (scaled_inverse.generic_scaled_inverse) runs it at
root_primes(M) on the images of this EEA or of the NTT (ntt), and
certifies its inverse by one ring product.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely between threads.
"""
from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import InexactDivision, NotCoprime, ZeroPolynomial

NEG_INF = float("-inf")


class IntPoly:
    """Dense univariate polynomial with integer coefficients.

    The coefficients are normalized to Python ints by operator.index: a
    float raises TypeError rather than being truncated, and a numpy
    integer becomes a Python int, exact at any size.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(map(operator.index, coeffs))
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
        return IntPoly(kron_mul(a, b).tolist())

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


def _int64_row(coeffs) -> np.ndarray | None:
    """coeffs as an int64 row, or None when some coefficient does not fit."""
    try:
        return np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        return None


def _magnitude(row: np.ndarray) -> int:
    # not abs(row).max(): in int64, abs(-2^63) wraps to -2^63
    return max(int(row.max()), -int(row.min()))


def _byte_pack(row: np.ndarray, mag: int, w: int) -> int:
    """_kron_pack of an int64 row with w <= 8: each digit c_i + mag, formed
    in uint64 (exact, as 0 <= c_i + mag < 2^(8w) <= 2^64), keeps its low w
    bytes in one byte view."""
    digits = row.astype("<u8") + np.uint64(mag)
    packed = digits.view(np.uint8).reshape(-1, 8)[:, :w].tobytes()
    return int.from_bytes(packed, "little") - mag * _repunit(row.size, w)


def kron_mul(a, b) -> np.ndarray:
    """Coefficients of the product of the nonempty coefficient sequences a
    and b (ascending degree), as an int64 row when its digits fit in 8
    bytes and an object row of Python ints otherwise.

    Signed Kronecker substitution: evaluate both factors at X = 2^(8w),
    multiply the two big ints, and read the product's coefficients back as
    base-X digits. Every product coefficient lies in [-bound, bound], bound
    = max|a| max|b| min(len a, len b); adding bound to each gives digits in
    [0, 2 bound], and w bytes make X > 2 bound, so no digit carries into
    the next. With w <= 8, 2 bound < 2^64: every digit is one uint64 word,
    and each coefficient, of size at most bound < 2^63, fits in int64, so
    packing and unpacking are byte views of whole rows (_byte_pack). Wider
    digits, or factors that do not fit in int64, take Python ints one
    coefficient at a time.
    """
    n = len(a) + len(b) - 1
    ra, rb = _int64_row(a), _int64_row(b)
    if ra is not None and rb is not None:
        ma, mb = _magnitude(ra), _magnitude(rb)
    else:
        ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = ma * mb * min(len(a), len(b))
    if not bound:
        return np.zeros(n, dtype=np.int64)
    # a factor that does not fit in int64 has a magnitude of at least 2^63,
    # so then bound >= 2^63 and w > 8
    w = ((2 * bound).bit_length() + 7) // 8
    if w > 8:
        prod = _kron_pack(a, ma, w) * _kron_pack(b, mb, w)
        buf = (prod + bound * _repunit(n, w)).to_bytes(n * w, "little")
        return np.array([int.from_bytes(buf[k:k + w], "little") - bound
                         for k in range(0, n * w, w)], dtype=object)
    prod = _byte_pack(ra, ma, w) * _byte_pack(rb, mb, w)
    buf = (prod + bound * _repunit(n, w)).to_bytes(n * w, "little")
    words = np.zeros((n, 8), dtype=np.uint8)
    words[:, :w] = np.frombuffer(buf, dtype=np.uint8).reshape(n, w)
    # digit - bound wraps mod 2^64 to the coefficient's two's complement
    return (words.view("<u8").ravel() - np.uint64(bound)).view(np.int64)


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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.18 * 10^23 with these bases."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    e = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^e, d odd
    d = (n - 1) >> e
    for b in _MR_BASES:
        # b^d, then e - 1 squarings: one of them must be -1 unless b^d = 1
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes of root_primes: 2^30 < ell < 2^31, so each image carries at
# least 30 bits and every product of two residues is below 2^62
_PRIME_FLOOR = 2 ** 30
_PRIME_BLOCK = 32


@functools.lru_cache(maxsize=256)
def _root_prime_block(M: int, b: int) -> tuple[int, ...]:
    """The primes ell = 1 (mod M) with _PRIME_FLOOR < ell < 2^31 of index
    b _PRIME_BLOCK .. (b + 1) _PRIME_BLOCK - 1, counting down from 2^31;
    fewer, or none, where the supply runs out. Blocks are asked for in
    order, so each call recurses at most one level."""
    if b == 0:
        n = (2 ** 31 - 2) // M * M + 1
    else:
        prev = _root_prime_block(M, b - 1)
        if len(prev) < _PRIME_BLOCK:
            return ()
        n = prev[-1] - M
    out = []
    while len(out) < _PRIME_BLOCK and n > _PRIME_FLOOR:
        if _is_prime(n):
            out.append(n)
        n -= M
    return tuple(out)


def root_primes(M: int):
    """The primes ell = 1 (mod M) counting down from 2^31, above 2^30; the
    iterator ends where that supply does. root_primes(1) is every prime
    between 2^30 and 2^31, from 2^31 - 1 down: about 4.8 10^7 of them."""
    for b in itertools.count():
        block = _root_prime_block(M, b)
        yield from block
        if len(block) < _PRIME_BLOCK:
            return


def _residues(coeffs, P: np.ndarray) -> np.ndarray:
    """coeffs mod each prime of the (k, 1) column P, as a (k, len) row block."""
    row = _int64_row(coeffs)
    if row is not None:
        return row % P
    return np.array([[c % ell for c in coeffs] for ell in P.ravel().tolist()],
                    dtype=np.int64)


def _powers(x: np.ndarray, e: int, P: np.ndarray) -> np.ndarray:
    """x^e mod P, entry by entry, for (k, 1) columns; e = -1 gives inverses
    of units."""
    return np.array([pow(c, e, ell) for c, ell in
                     zip(x.ravel().tolist(), P.ravel().tolist())],
                    dtype=np.int64)[:, None]


def _bezout_images(a: tuple[int, ...], f: tuple[int, ...], primes):
    """res(a, f) and the Bezout cofactor s mod each prime ell of primes,
    none dividing lc(a)*lc(f), by one EEA over F_ell for all of them at once.

    a and f are ascending coefficient tuples with len(a) < len(f). Returns
    one image per prime, in order: (r, s) with r = res(a, f) mod ell and s,
    of length deg f, the residues of the integral cofactor with
    s*a = r (mod f); or (0, None) when ell | r, where the remainder chain
    dies early (a dead prime).

    The remainders and cofactors of all k primes are (k, deg f) int64 rows,
    and each quotient term is one numpy step over every prime. Entries are
    kept reduced below ell < 2^31, so a step x - qc*y lies in
    (-2^62, 2^31) and every product of two residues is below 2^62: all
    within int64. The batch shares one degree sequence. Primes whose
    remainder drops a degree that the rest of the batch keeps are abnormal:
    they leave the batch and are run again, from the start, as a batch of
    their own. The primes at the batch's largest degree always stay, so
    each such sub-batch is smaller than its parent, and a batch of one
    prime never drops one. When every remainder of the batch vanishes at
    once, each prime is dead.
    """
    k, n = len(primes), len(f) - 1
    out = [None] * k
    live = np.arange(k)
    P = np.array(primes, dtype=np.int64)[:, None]
    # remainder rows hold n + 1 entries and cofactor rows n, zero above the
    # degrees d0, d1 of R0, R1 and the length l1 of S1 tracked here
    R0, R1 = _residues(f, P), np.zeros((k, n + 1), np.int64)
    R1[:, :len(a)] = _residues(a, P)
    S0, S1 = np.zeros((k, n), np.int64), np.zeros((k, n), np.int64)
    S1[:, 0] = 1
    d0, d1, l1 = n, len(a) - 1, 1
    acc = np.ones_like(P)
    while d1 > 0:
        # R0 = q*R1 + rem and S0 - q*S1, one quotient term at a time; R1's
        # leading term is included, so it clears R0's
        inv = _powers(R1[:, d1:d1 + 1], -1, P)
        for e in range(d0 - d1, -1, -1):
            qc = R0[:, e + d1:e + d1 + 1] * inv % P
            R0[:, e:e + d1 + 1] = (R0[:, e:e + d1 + 1] - qc * R1[:, :d1 + 1]) % P
            S0[:, e:e + l1] = (S0[:, e:e + l1] - qc * S1[:, :l1]) % P
        top = d1 - 1
        if not R0[:, top].all():
            # the degree of each remainder, -1 for a zero one
            nonzero = R0[:, top::-1] != 0
            deg = np.where(nonzero.any(axis=1), top - nonzero.argmax(axis=1), -1)
            top = int(deg.max())
            if top < 0:
                for t in live.tolist():
                    out[t] = 0, None
                return out
            keep = deg == top
            if not keep.all():
                for t, img in zip(live[~keep].tolist(), _bezout_images(
                        a, f, P[~keep, 0].tolist())):
                    out[t] = img
                live, P, R0, R1, S0, S1, acc = (X[keep] for X in (
                    live, P, R0, R1, S0, S1, acc))
        # res(A, B) = (-1)^(dA*dB) * lc(B)^(dA - dR) * res(B, R)
        acc = acc * _powers(R1[:, d1:d1 + 1], d0 - top, P) % P
        if d0 * d1 % 2:
            acc = (P - acc) % P
        R0, R1, S0, S1 = R1, R0, S1, S0
        d0, d1, l1 = d1, top, d0 - d1 + l1
    # R1 is the nonzero constant c with S1*a = c (mod f), and res(R0, c) = c^deg R0
    c = R1[:, :1]
    r = acc * _powers(c, d0, P) % P
    if (len(a) - 1) * n % 2:
        r = (P - r) % P
    s = S1 * (r * _powers(c, -1, P) % P) % P
    for t, rt, st in zip(live.tolist(), r[:, 0].tolist(), s.tolist()):
        out[t] = rt, st
    return out


def resultant_bezout(a: IntPoly, f: IntPoly) -> tuple[int, IntPoly]:
    """Resultant and integral Bezout cofactor of a against f.

    Returns (r, s) with r = res(a, f) a nonzero integer and s*a = r (mod f)
    over Z, deg s < deg f. Requires deg a < deg f; a zero a or a common
    factor of a and f raises NotCoprime.

    Multimodular: r and s are found mod 31-bit primes ell (counting down
    from 2^31 - 1, skipping ell | lc(a)*lc(f)) and joined by the CRT into
    symmetric residues. Every |s_i| and |r| is a Sylvester minor, at most
    the Hadamard bound H = |a|_2^deg f * |f|_2^deg a, so the primes stop
    once their product passes 2H. They come in batches, each as many
    primes as that stop still needs, and _bezout_images runs one EEA over a
    whole batch in int64 numpy rows (every entry below 2^31, every product
    below 2^62), re-running the primes whose degree sequence leaves the
    batch's as a smaller batch of their own. Primes with ell | r are
    skipped, and a batch that comes short of 2H for them is followed by
    another; once the skipped primes alone pass 2H, r = 0 and NotCoprime is
    raised (_multimodular). The result is certified by one exact division
    of s*a - r by f. The primes are those of root_primes(1).
    """
    if a.is_zero():
        raise NotCoprime("a vanishes mod f, no Bezout relation exists")
    if not a.degree < f.degree:
        raise ValueError("resultant_bezout requires deg(a) < deg(f)")
    ac, fc = a.coeffs, f.coeffs
    lead = ac[-1] * fc[-1]
    r, s = _multimodular(
        _hadamard_need(ac, fc), len(fc) - 1,
        (ell for ell in root_primes(1) if lead % ell),
        lambda batch: _bezout_images(ac, fc, batch))
    s = IntPoly(s)
    if not divrem(s * a - r, f)[1].is_zero():
        raise AssertionError("Bezout identity verification failed")
    return r, s


def _hadamard_need(ac: tuple[int, ...], fc: tuple[int, ...]) -> int:
    """(2H)^2 for the coefficient tuples of a and f, deg a < deg f: every
    |s_i| and |r| of res(a, f) and its cofactor s is a Sylvester minor, at
    most the Hadamard bound H = |a|_2^deg f * |f|_2^deg a."""
    return (4 * sum(c * c for c in ac) ** (len(fc) - 1)
            * sum(c * c for c in fc) ** (len(ac) - 1))


def _multimodular(need: int, n: int, primes, images) -> tuple[int, list]:
    """(r, s), s of length n, joined by the CRT from their images mod the
    primes, in symmetric residues: the one multimodular loop, for any
    kernel (resultant_bezout's and the generic scaled inverse's).

    primes is an iterator of distinct primes; images(batch) gives, for a
    list of them, (r, s) mod each prime in order, or (0, None) for a prime
    dividing r (a dead prime). need is (2H)^2, H a bound on |r| and every
    |s_i|. Primes come in batches, each as many as the product of the live
    primes still needs to pass 2H; a batch that comes short of it for its
    dead primes is followed by another, and once the dead primes alone
    pass 2H, r = 0 and NotCoprime is raised. Nothing is certified here.
    """
    r, s, mod, dead = 0, [0] * n, 1, 1
    while mod * mod <= need:
        batch, prod = [], mod
        while prod * prod <= need:
            batch.append(next(primes))
            prod *= batch[-1]
        for ell, (rl, sl) in zip(batch, images(batch)):
            if sl is None:
                dead *= ell
                if dead * dead > need:
                    raise NotCoprime(
                        "gcd(a, f) is nonconstant; f is not irreducible")
                continue
            # CRT: the new value is congruent to the old mod `mod` and to
            # the image mod ell
            inv = pow(mod % ell, -1, ell)
            r += mod * ((rl - r) * inv % ell)
            s = [x + mod * ((y - x) * inv % ell) for x, y in zip(s, sl)]
            mod *= ell
    half = mod // 2
    return (r - mod if r > half else r,
            [x - mod if x > half else x for x in s])
