"""The generic route's images (r, s) mod primes ell = 1 (mod M), by the NTT.

At a prime ell = 1 (mod M) with a primitive M-th root w, Phi_M splits
over F_ell into the factors x - w^e, e a unit mod M. So for a of degree
deg a < phi:

  r = res(a, Phi_M) = (-1)^(deg a phi) prod_e a(w^e)       (mod ell)
  s(w^e) = r / a(w^e) = (-1)^(deg a phi) prod_{e' != e} a(w^e')

and s, of degree < phi, is the integral cofactor with s a = r (mod Phi_M)
reduced mod ell. The sign (-1)^(deg a phi) is always +1: phi is even for
M >= 3, and at M = 2 (phi = 1) a is a constant, so the images are the
products alone (poly._bezout_images keeps its sign, which resultant_bezout
needs when deg f is odd).

ntt_images takes the values a(w^e) from one length-M number-theoretic
transform (NTT) of a, forms every product of all the values but one by a
product tree (so no modular inverse is taken), and takes one inverse NTT
of the length-M row that holds them at the units, zero elsewhere: that
gives a polynomial t of degree < M with t(w^e) = s(w^e) at every unit e,
so s = t mod Phi_M (one _reduce_rows). The inverse NTT is the forward one
with its input reindexed by e -> -e mod M and scaled by M^-1 (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 8): t_n = M^-1 sum_e
s(w^e) w^(-e n) is the forward transform of the row that holds s(w^e)
M^-1 at column -e mod M, so one set of tables, at the roots w, serves
both transforms.

The transform is mixed-radix (Cooley-Tukey): M = N1 N2 splits into N1
transforms of length N2, a twiddle by w^(n1 e2) and N2 transforms of
length N1. The radices are groups of M's prime factors (_radices), each
stage a direct DFT, so a radix-r stage costs O(r) per entry: O(M sum r)
per prime, against the O(phi^2) of the EEA (poly._bezout_images), which
the generic route keeps where it is cheaper (ntt_wins). Every row is a
(k, M) int64 row block, one row per prime of the batch, entries reduced
below ell < 2^31; _mulmod gives the int64 bound of each stage.

The primes are poly.root_primes(M), ell = 1 (mod M) between 2^30 and
2^31. The generic route (scaled_inverse.generic_scaled_inverse) supplies
them, skips those dividing lc(a) as it does for the EEA, joins the images
by the CRT (poly._multimodular) and certifies the inverse; it prices the
work before it starts (scaled_inverse.check_generic_cost). The tables of
a block of primes (each stage's DFT matrix and twiddles at the roots w,
M^-1 mod each prime, and the units and their negatives mod M) depend on M
and the primes alone, so they are built once and kept in the bounded
table cache that the case cores share (cyclotomic._cached, through
_block_tables).
"""
from __future__ import annotations

import itertools

import numpy as np

from .cyclotomic import (CycloModulus, PrimePower, _cached, _reduce_rows,
                         make_modulus)
from .poly import _residues

# Largest radix of one stage: prime factors are grouped, smallest first,
# while their product stays at most this. A stage costs about as much in
# whole-row passes (a transpose, the twiddle, three reductions) as in its
# 2 r multiply-adds per entry, so mid-sized radices do best. Measured on a
# 2-core x86 host at M = 1024, ntt_images of 100 primes (of 5): radices
# up to 4 took 57 ms (3.0 ms), up to 8 53 (2.9), up to 16 52 (1.7), up to
# 32 61 (3.2), up to 64 83 (4.0).
_RADIX = 16

# Entries of the rows and tables of one block of primes in ntt_images
# (8 MiB); on a 2-core host 2^18 to 2^22 ran within 30% of each other at
# M = 2057 and 1024 (300 primes), 2^20 the fastest
_NTT_BLOCK = 2 ** 20

# _mulmod's limbs: W = W1 2^16 + W0 with W0 < 2^16 and W1 < 2^15
_LIMB = 16


def _prime_factors(m: CycloModulus) -> tuple[int, ...]:
    sh = m.shape
    return (sh.p,) if isinstance(sh, PrimePower) else (sh.p, sh.q)


def _radices(m: CycloModulus) -> tuple[int, ...]:
    """M's prime factors, with multiplicity, grouped smallest first into
    stage radices of at most _RADIX (a larger prime is a radix alone)."""
    sh = m.shape
    factors = ([sh.p] * sh.s if isinstance(sh, PrimePower)
               else [sh.p] * sh.s + [sh.q] * sh.t)
    out = [1]
    for f in factors:
        if out[-1] * f <= _RADIX:
            out[-1] *= f
        else:
            out.append(f)
    return tuple(r for r in out if r > 1)


def ntt_cost(m: CycloModulus) -> int:
    """M sum(radices): the multiply-adds per prime of one transform."""
    return m.M * sum(_radices(m))


def _root(ell: int, M: int) -> int:
    """A primitive M-th root of unity mod the prime ell = 1 (mod M)."""
    factors = _prime_factors(make_modulus(M))
    for g in itertools.count(2):
        w = pow(g, (ell - 1) // M, ell)
        if all(pow(w, M // p, ell) != 1 for p in factors):
            return w


def _plan(m: CycloModulus) -> list:
    """The exponent tables of the length-M transform.

    Stage t has radix N1 = radices[t] and splits a length N = N1 N2 (N2
    the product of the later radices): its DFT matrix is w^((M/N1) e1 n1)
    and its twiddles w^((M/N) n1 e2), held as exponents mod M so that one
    gather from a prime's powers of w gives the stage's table.
    """
    stages, M, N = [], m.M, m.M
    for N1 in _radices(m):
        N2 = N // N1
        n1 = np.arange(N1)
        stages.append(((M // N1) * (np.outer(n1, n1) % N1),
                       (M // N) * (np.outer(n1, np.arange(N2)) % N)))
        N = N2
    return stages


def _power_rows(m: CycloModulus, P: np.ndarray) -> np.ndarray:
    """(k, M) rows: row t holds w^j mod ell for j < M, w = _root(ell) and
    ell = P[t, 0]; by doubling, each step a product of residues < 2^62."""
    M = m.M
    pw = np.empty((P.shape[0], M), dtype=np.int64)
    pw[:, 0] = 1
    step = np.array([_root(ell, M) for ell in P[:, 0].tolist()],
                    dtype=np.int64)[:, None]
    done = 1
    while done < M:
        n = min(done, M - done)
        pw[:, done:done + n] = pw[:, :n] * step % P
        step = step * step % P
        done += n
    return pw


def _mulmod(W: tuple, X: np.ndarray, P: np.ndarray,
            left: bool = True) -> np.ndarray:
    """W @ X (X @ W when not left) mod P for residues below ell < 2^31, W
    given as its limbs (W0, W1), W = W1 2^16 + W0. With a radix N1 < 2^15
    (the inner dimension): W1 @ X < N1 2^46, W0 @ X < N1 2^47, and
    (W1 @ X mod P) 2^16 + W0 @ X < (N1 + 1) 2^47 < 2^63, all in int64."""
    def mul(w):
        return np.matmul(w, X) if left else np.matmul(X, w)
    out = mul(W[1])
    out %= P
    out <<= _LIMB
    out += mul(W[0])
    out %= P
    return out


def _limbs(W: np.ndarray) -> tuple:
    return W & (2 ** _LIMB - 1), W >> _LIMB


def _transform(X: np.ndarray, tables: list, P: np.ndarray) -> np.ndarray:
    """DFT of each length-N row of X (k, B, N) at the root of its prime
    (row block t, ell = P[t]): out[.., e] = sum_n X[.., n] w_N^(n e).

    With N = N1 N2, n = n1 + N1 n2 and e = N2 e1 + e2: the N1 inner
    transforms of length N2 run over n2 (the later stages), then the
    twiddle w_N^(n1 e2), then the length-N1 DFT over n1, whose output
    [e1, e2] is already in the order of e. Residues stay below ell."""
    k, B, N = X.shape
    dft, twiddle = tables[0]
    N1 = dft[0].shape[-1]
    if N1 == N:
        # out[b, e] = sum_n X[b, n] W[n, e], W symmetric
        return _mulmod(dft, X, P[:, :, None], left=False)
    N2 = N // N1
    Y = X.reshape(k, B, N2, N1).transpose(0, 1, 3, 2).reshape(k, B * N1, N2)
    Y = _transform(Y, tables[1:], P).reshape(k, B, N1, N2)
    Y *= twiddle[:, None]
    Y %= P[:, :, None, None]
    return _mulmod((dft[0][:, None], dft[1][:, None]), Y,
                   P[:, :, None, None]).reshape(k, B, N)


def ntt_images(a: tuple[int, ...], m: CycloModulus, primes):
    """res(a, Phi_M) and the Bezout cofactor s mod each prime ell = 1
    (mod M) of primes, in the format of poly._bezout_images: (r, s) per
    prime, s of length phi, or (0, None) when ell | r (a dead prime).

    a is the ascending coefficient tuple of a nonzero element, len(a) <=
    phi. See the module docstring for the method. The primes run in
    blocks of about _NTT_BLOCK table and row entries.
    """
    radices = _radices(m)
    # per prime: the DFT matrices and their limbs, the twiddles, and about
    # ten length-M rows of powers, transforms and reduction
    width = 3 * sum(r * r for r in radices) + m.M * (len(radices) + 10)
    step = max(1, _NTT_BLOCK // width)
    return [img for lo in range(0, len(primes), step)
            for img in _block_images(a, m, primes[lo:lo + step])]


def _block_images(a: tuple[int, ...], m: CycloModulus, primes):
    """ntt_images of one block of primes."""
    M = m.M
    P = np.array(primes, dtype=np.int64)[:, None]
    k = P.shape[0]
    tables, minv, units, negated = _block_tables(m, primes)
    X = np.zeros((k, 1, M), dtype=np.int64)
    X[:, 0, :len(a)] = _residues(a, P)
    vals = _transform(X, tables, P)[:, 0, units]
    prod, rest = _all_but_one(vals, P)
    # t(w^e) = s(w^e) at the units and 0 elsewhere: t_n = M^-1 sum_e
    # s(w^e) w^(-e n), the forward transform of s(w^e) M^-1 at column -e
    V = np.zeros((k, 1, M), dtype=np.int64)
    V[:, 0, negated] = rest * minv % P
    t = _transform(V, tables, P)[:, 0]
    s = _reduce_rows(t, m) % P
    return [(rl, sl) if rl else (0, None)
            for rl, sl in zip(prod[:, 0].tolist(), s.tolist())]


def _block_tables(m: CycloModulus, primes) -> tuple:
    """(tables, minv, units, negated) of a block of primes: each stage's
    DFT matrix, as its limbs, and twiddles, gathered at the exponents of
    _plan from the powers of the primes' roots w (_power_rows); the column
    of M^-1 mod each prime; the units e mod M; and -e mod M for each.
    Built once per (M, primes) and then read from the table cache
    (cyclotomic._cached, key ("ntt", M, *primes))."""
    def build():
        P = np.array(primes, dtype=np.int64)[:, None]
        pw = _power_rows(m, P)
        tables = [(_limbs(pw[:, dft]), pw[:, twiddle])
                  for dft, twiddle in _plan(m)]
        minv = np.array([pow(m.M, -1, ell) for ell in primes],
                        dtype=np.int64)[:, None]
        units = np.flatnonzero(np.gcd(np.arange(m.M), m.M) == 1)
        negated = -units % m.M
        arrays = [minv, units, negated] + [
            x for (lo, hi), twiddle in tables for x in (lo, hi, twiddle)]
        return (tables, minv, units, negated), arrays
    return _cached(("ntt", m.M, *primes), build)


def _all_but_one(vals: np.ndarray, P: np.ndarray):
    """The product of each row of vals (k, n) mod P, and for each entry
    the product of all the others in its row, by a product tree: no
    inverse is taken, so a zero value gives no trouble."""
    k, n = vals.shape
    size = 1 << max(0, (n - 1).bit_length())
    level = np.ones((k, size), dtype=np.int64)
    level[:, :n] = vals
    levels = [level]
    while level.shape[1] > 1:
        level = level[:, 0::2] * level[:, 1::2] % P
        levels.append(level)
    prod = level
    out = np.ones_like(prod)
    for level in reversed(levels[:-1]):
        # each child gets its parent's outside product times its sibling
        down = np.empty_like(level)
        down[:, 0::2] = out * level[:, 1::2] % P
        down[:, 1::2] = out * level[:, 0::2] % P
        out = down
    return prod, out[:, :n]


# The NTT's cost M sum(radices) per prime against the EEA's phi^2, compared
# unweighted. Measured on a 2-core x86 host (numpy 2.4), dense elements, 100
# primes: the EEA's time over the NTT's was 55.7 at M = 2057 (phi^2 /
# ntt_cost 38.6), 34 at 1147 (15.0), 14 at 1024 (7.1), 3.2 at 2045 (3.2),
# 1.5 at 1011 (1.3) and 2.9 at 35 (1.4), but 0.56 at 1018 (0.50) and, at a
# prime M (one radix M, ratio just below 1), 1.16 at 101, 0.68 at 257, 0.49
# at 509 and 0.37 at 1021. So the NTT wins about where its cost is the
# smaller, and the EEA keeps every prime M.
def ntt_wins(m: CycloModulus) -> bool:
    """Whether the generic route takes the NTT kernel at m: its cost
    M sum(radices) (ntt_cost) below the EEA's phi^2, and every radix below
    2^15 (_mulmod's int64 bound)."""
    return max(_radices(m)) < 2 ** 15 and ntt_cost(m) < m.phi ** 2
