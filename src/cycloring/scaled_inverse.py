"""Scaled inverses of x^i - x^j in Z[x]/Phi_M(x).

Two routes are provided. The generic route works for any nonzero ring
element: it takes the integral resultant/Bezout pair (r, s), computed mod
31-bit primes = 1 (mod M) and joined by the CRT, and divides out
gcd(r, cont(s)), which provably yields the inverse with the minimal
positive scale. The images at each prime come from the NTT (ntt) or, where
that costs more (every prime M), from the batched EEA (poly); one ring
product certifies the result for both. A route whose cost is above
MAX_GENERIC_COST is refused (GenericTooLarge) before any work. The
constructive route covers a = x^i - x^j only. With k = i - j and
d = gcd(k, M) it returns u = -x^{M-j} Q(x^{k/d}) mod Phi_M,
Q = (N(x) - scale)/(x^d - 1), where N, the scale and the guaranteed
coefficient bound come from the paper's case table (_case), keyed by d:

  case             N(x)                scale  bound
  PRIME_POWER      Phi_M               p      p-1
  P_DIVIDES_SHIFT  Phi_{q^t}(x^{p^s})  q      q-1
  Q_DIVIDES_SHIFT  Phi_{p^s}(x^{q^t})  p      p-1
  COPRIME          Phi_M               1      p-1

PRIME_POWER is the case of M = p^s. For M = p^s q^t the case is
P_DIVIDES_SHIFT when p^s | d, Q_DIVIDES_SHIFT when q^t | d, and COPRIME
otherwise. The constant the paper subtracts from N is N(1), which is the
scale in every row. Q comes from the stride recurrence
Q_e = Q_{e-d} - (N - scale)_e, a prefix sum over each residue class mod d,
with no long division; the route is orders of magnitude faster than the
generic one. Q depends on d only, so its case core (case, scale, bound,
-Q) is built once per (M, d), by one cumulative sum down the columns of
the (-1, d) view of N - scale and the exactness check of its top row, and
kept in the table cache that it shares with the NTT's block tables
(cyclotomic._cached, bounded by entries and bytes over both kinds, keyed
by integers, so it holds no modulus). One routine, _construct, builds
one gap per row, a range of consecutive gaps or an array of gaps, at one
shift j or at one shift per row, as int64 rows: each group of gaps that
share d reads its core from the cache, and one write through the flat
index r M + (e a - j) mod M folds the exponents of every gap of the
group, a the first of k/d, k/d + M/d that is prime to M, so a d = k mod M.
The automorphism x -> x^a of Z[x]/Phi_M sends x^d - 1 to x^k - 1, so
-Q(x^a) is the inverse of x^k - 1 at the same scale, and as that inverse
is unique it has the remainder of the paper's -Q(x^{k/d}); as a is a
unit, no two exponents of a row collide. One reduction mod Phi_M follows.
A single construct is a range of one gap at one j; a sweep's blocks are
the representatives among up to _UNIT_BLOCK / (16 M) consecutive gaps, at
a shift per row (_chain_shifts, 0 at a prime radical). Entries stay below
M (q + 1) (the bound is derived in _case_core), and each reduction falls
back to Python ints when its own bound fails.

Every inverse is re-verified by an exact product before it is returned: a
generic one by a ring multiplication, a constructed one by check_gap_block,
the one check of every constructed inverse, one row per pair. It takes the
same block shape as _construct, one gap per row at one j or a j per row,
with a scale and a bound per row. As x is a unit, row r is the inverse of
x^i - x^j at the scale c exactly when (1 - x^g) u + c x^{-j} = 0 mod
Phi_M, g = i - j; it forms that residual modulo x^M - 1 and tests that its
product with E, (1 - y^p)(1 - y^q) or 1 - y at y = x^{M/rad}, is 0 mod
x^M - 1 (see cyclotomic), so no second reduction is needed. A block of one
row, a single construct's, forms it by two slice subtractions of u from
[u, 0], the second where x^g u wraps past x^M, and takes the row's norm
and dtype from one max/min pass; a taller block, a sweep's, reads x^g u as
windows of one padded buffer, at a stride for a range of gaps and through
an index for an array. The zero test, the bound test and the failure
messages are shared.

Exhaustive sweeps (norm_profile) construct only the gap inverses u(g, 0),
g <= M/2, and obtain every other pair by the gap-shift identity
u(i, j) = x^{-j} u(i - j, 0). The full cycle of M rotations of u(g, 0)
holds the pairs of gap g and, past j = M - g, those of gap M - g: with
j = j' + M - g, (x^j - x^{j'}) (-x^{-j} u(g, 0)) = (x^g - 1) u(g, 0) mod
x^M - 1, and gcd(M - g, M) = gcd(g, M), so both gaps share one row of the
case table. They work at the radical rad = M/M': as
Phi_M(x) = Phi_rad(y), y = x^{M'}, the norm of u(j + g, j) is the largest
of M' consecutive entries of the gap's rotation-norm row N_g,
N_g[s M' + b] the norm of y^{-s} times subsequence b of u(g, 0) mod
Phi_rad.

Of the gaps g <= M/2, a sweep constructs only one per orbit of the units
U1 = {a : a = 1 (mod rad)}, rep(h) = h mod gcd(h rad, M) (_orbits). For
a in U1, sigma_a: x -> x^a fixes y and sends u(g, 0) to u(a g, 0), and it
only permutes the subsequences and multiplies each by a power of y:
N_{ag}[t] = N_g[a^{-1} t mod M] (_gather_rows). So every gap's row is one
gather of its representative's, in the norms' own dtype, and for every
gap but the representative the automorphism is its certificate. At
M' = 1 (squarefree M) U1 is trivial, every gap is its own representative
and nothing is gathered. The sweep takes its gaps in blocks of
consecutive gaps; each block's representatives are built by one
_construct call and checked by one check_gap_block call, on the last
rows it computes, and the block's gaps gather from representatives of
this block or an earlier one. A representative
reduces each subsequence once, with no second reduction for its rotations.
At a prime radical p (every M = p^s) their norms take a closed form, O(M^2)
in all: the rotation of [r, 0] by y^{-rho} reduces mod Phi_p to its entries
less the one that lands at y^(p-1). At a two-prime radical the sweep steps
through them by exact division by y, y^{-1} r = (r - r_0 Phi_rad)/y, in
place in one buffer of the narrowest dtype that holds their written bound,
over only half of the cycle: Phi_M is palindromic, so x -> x^{-1} is a ring
automorphism, which sends u(g, 0) to -x^g u(g, 0); hence the coefficients
of x^{-j} u(g, 0) mod Phi_M, reversed, are those of -(x^{-(c0 - j)} u(g, 0)
mod Phi_M), c0 = -(phi - 1 + g), and the two have one norm. Each gap's
chain starts at its own shift (_chain_shifts) and takes ceil(rad/2) steps,
an arc of the cycle that covers it together with its mirror. The block's
one check takes the chain's last rotation as the pair at its own shift;
every step is exact for any integer rows, so a wrong start or step fails
it (see norm_profile). At a prime radical it takes the reduced rows, as
there is no chain. The sweep keeps one norm array, of which each gap's
norms are a view; the (i, j) rows are built only when read. A sweep whose
cost M^2 rad is above MAX_SWEEP_COST is refused (SweepTooLarge) before
any work.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import (_UNIT_BLOCK, CycloModulus, PrimePower, RingElement,
                         TwoPrime, _as_rows, _cached, _reduce_rows,
                         _rows_dtype, _times_cofactor, make_modulus, ring_mul)
from .errors import (BadRange, GenericTooLarge, NotApplicable, SweepTooLarge,
                     ZeroElement)
from .ntt import ntt_cost, ntt_images, ntt_wins
from .poly import (IntPoly, _bezout_images, _hadamard_need, _magnitude,
                   _multimodular, exact_div, root_primes)


class InverseCase(enum.Enum):
    GENERIC = "generic"
    PRIME_POWER = "prime_power"
    COPRIME = "coprime"
    P_DIVIDES_SHIFT = "p_divides_shift"
    Q_DIVIDES_SHIFT = "q_divides_shift"


@dataclass(frozen=True)
class ScaledInverse:
    """Result record: u with a*u = scale (mod Phi_M).

    bound is the guaranteed max-norm bound when a constructive route
    produced u, None for the generic route. Both routes return the smallest
    achievable scale (see generic_scaled_inverse and
    construct_scaled_inverse).
    """

    u: RingElement
    scale: int
    bound: int | None
    case: InverseCase

    @property
    def norm(self) -> int:
        return self.u.max_norm()


def generic_scaled_inverse(a: RingElement) -> ScaledInverse:
    """Scaled inverse of any nonzero element, via resultant and Bezout.

    The pair (r, s), r = res(a, Phi_M) and an integral s with
    s*a = r (mod Phi_M), is joined by the CRT up to twice the Hadamard
    bound 2H (poly._multimodular) from its images mod the primes
    ell = 1 (mod M) of poly.root_primes(M), skipping those that divide
    lc(a) (the EEA needs lc(a) to be a unit mod ell; the NTT does not, but
    one supply serves both). The images come from one of two kernels,
    whichever ntt.ntt_wins picks: the NTT (ntt.ntt_images) where its cost
    M sum(radices) is below the EEA's phi^2, and the batched EEA
    (poly._bezout_images) elsewhere, which keeps every prime M. The route
    is priced first (check_generic_cost) and refused with GenericTooLarge
    above MAX_GENERIC_COST, before any allocation, and when the primes run
    out before their product passes 2H.

    With g = gcd(r, cont(s)), signed like r, u = s/g is the scaled inverse
    with scale r/g > 0, and that scale is minimal. Let c0 be the minimal
    scale and a*u0 = c0; then gcd(c0, cont(u0)) = 1, or dividing both by a
    common prime would give a smaller scale. In the domain Z[x]/Phi_M any
    integral pair with a*s = r, r != 0, has c0*s = r*u0, so c0 | r (c0
    divides r*cont(u0) and is prime to cont(u0)), and with k = r/c0,
    s = k*u0. Hence |g| = |k| * gcd(c0, cont(u0)) = |k| and r/g = c0.

    One exact ring product certifies the result, whichever kernel ran and
    whatever pair the CRT gave: g divides r and every s_i, so a*u = scale
    with scale > 0 is a*s = r with r != 0 (multiply by g), which is all the
    proof above needs. So u is a true scaled inverse and its scale the
    minimal one, with no check of (r, s) itself; a wrong image, a
    mis-joined CRT or too few primes fail that one product.
    """
    if a.is_zero():
        raise ZeroElement("the zero element has no scaled inverse")
    m = a.modulus
    ac, fc = a.to_poly().coeffs, m.poly.coeffs
    need = _hadamard_need(ac, fc)
    check_generic_cost(m, need)
    images = ((lambda batch: ntt_images(ac, m, batch)) if ntt_wins(m)
              else (lambda batch: _bezout_images(ac, fc, batch)))
    r, s = _multimodular(need, m.phi, _route_primes(m, ac[-1]), images)
    g = (math.gcd(r, *s) or 1) * (1 if r > 0 else -1)
    si = ScaledInverse(RingElement(m, tuple(x // g for x in s)), r // g,
                       None, InverseCase.GENERIC)
    if si.scale < 1 or ring_mul(a, si.u).coeffs != (
            (si.scale,) + (0,) * (m.phi - 1)):
        raise AssertionError(
            f"generic inverse failed a*u = {si.scale} for M={m.M}")
    return si


def _route_primes(m: CycloModulus, lead: int):
    """root_primes(M) without the primes dividing lead = lc(a), then
    GenericTooLarge where the supply ends."""
    yield from (ell for ell in root_primes(m.M) if lead % ell)
    raise GenericTooLarge(
        f"the primes ell = 1 (mod {m.M}) between 2^30 and 2^31 run out "
        f"before their product passes twice the Hadamard bound")


# Ceiling of generic_cost that generic_scaled_inverse accepts, about 20 s
# on a 2-core host: the gap (1951, 1691) at the prime M = 2039 (EEA) costs
# 1.9e9 and takes 10 s, (1951, 1691) at 2057 (NTT) 2.4e8 and 1.3 s; the
# gap (5, 0) at M = 65537 costs 4.8e12 (its first EEA batch alone would
# hold 4.4 GB) and is refused.
MAX_GENERIC_COST = 2 ** 32


def generic_cost(m: CycloModulus, bits: int) -> int:
    """O(1) cost of the generic route at m when 2H has `bits` bits: its
    k = ceil(bits / 30) primes (each above 2^30) cost the kernel that
    ntt.ntt_wins picks, M sum(radices) (ntt.ntt_cost) or phi^2 each, and
    the CRT of their phi + 1 residues takes k steps of up to k words
    each."""
    k = -(-bits // 30)
    return k * (ntt_cost(m) if ntt_wins(m) else m.phi ** 2) + m.phi * k * k


def check_generic_cost(m: CycloModulus, need: int) -> None:
    """Raise GenericTooLarge when the generic route at m, with need =
    (2H)^2 (poly._hadamard_need), costs above MAX_GENERIC_COST."""
    bits = (need.bit_length() + 1) // 2
    cost = generic_cost(m, bits)
    if cost > MAX_GENERIC_COST:
        raise GenericTooLarge(
            f"generic inverse at M={m.M} needs {bits}-bit CRT images and "
            f"costs {cost}, above the ceiling {MAX_GENERIC_COST}")


def _comb(n: int, w: int) -> np.ndarray:
    """1 + x^w + ... + x^((n - 1) w) as an int64 row."""
    row = np.zeros((n - 1) * w + 1, dtype=np.int64)
    row[::w] = 1
    return row


def _case(d: int, m: CycloModulus):
    """The paper's case table at d = gcd(k, M) of a shift k = i - j,
    0 < k < M.

    Returns (case, N, scale, bound), N as a coefficient row, int8 for
    Phi_M and int64 for the combs:

      case             N(x)                scale  bound
      PRIME_POWER      Phi_M               p      p-1
      P_DIVIDES_SHIFT  Phi_{q^t}(x^{p^s})  q      q-1
      Q_DIVIDES_SHIFT  Phi_{p^s}(x^{q^t})  p      p-1
      COPRIME          Phi_M               1      p-1

    For M = p^s q^t the shift is P_DIVIDES_SHIFT when p^s | d,
    Q_DIVIDES_SHIFT when q^t | d (never both, since d < M), COPRIME
    otherwise; scale = N(1) in every row. Phi_M is the modulus's read-only
    row; Phi_{q^t}(x^{p^s}) is the comb 1 + y + ... + y^(q-1) at
    y = x^{M/q}, and Phi_{p^s}(x^{q^t}) the comb of p terms at y = x^{M/p}.
    """
    sh = m.shape
    if isinstance(sh, PrimePower):
        return InverseCase.PRIME_POWER, m.poly_row, sh.p, sh.p - 1
    p, q, M = sh.p, sh.q, m.M
    if d % p ** sh.s == 0:
        return InverseCase.P_DIVIDES_SHIFT, _comb(q, M // q), q, q - 1
    if d % q ** sh.t == 0:
        return InverseCase.Q_DIVIDES_SHIFT, _comb(p, M // p), p, p - 1
    return InverseCase.COPRIME, m.poly_row, 1, p - 1


def _case_core(d: int, m: CycloModulus):
    """(case, scale, bound, -Q) of the gaps k with gcd(k, M) = d: the row
    of the case table at d (_case) and -Q, Q = (N - scale)/(x^d - 1), as a
    read-only int64 row. Built once per (M, d) and then read from the
    table cache (cyclotomic._cached, key ("core", M, d)), for a single pair
    and for a sweep's blocks alike.

    N - scale, padded with zeros to whole rows of d, becomes -Q by one
    cumulative sum down the columns of its (-1, d) view: the stride
    recurrence Q_e = Q_{e-d} - (N - scale)_e, negated, is a prefix sum over
    each residue class mod d. The division is exact, so the recurrence
    continued past deg Q must give d zeros: the last row holds the d top
    entries, and a nonzero one raises AssertionError as the entry is built.
    int64 is exact: |N - scale| <= scale + 1 <= q + 1 (p + 1 for p^s), and
    each prefix sum adds at most M such terms, so |Q| <= M (q + 1).
    """
    def build():
        case, num, scale, bound = _case(d, m)
        n = len(num)
        neg = np.zeros(-(-n // d) * d, dtype=np.int64)
        neg[:n] = num
        neg[0] -= scale
        cols = neg.reshape(-1, d)
        np.add.accumulate(cols, axis=0, out=cols)
        if cols[-1].any():
            raise AssertionError(
                f"(N - c)/(x^{d} - 1) is not exact for M={m.M}, "
                f"case {case.value}")
        negq = neg[:n - d].copy()
        return (case, scale, bound, negq), [negq]
    return _cached(("core", m.M, d), build)


def _construct(gaps, j, m: CycloModulus):
    """The constructive inverses of x^(j+k) - x^j for each gap k of gaps,
    one gap per row (a range of consecutive gaps or an array), unreduced.
    j is one shift for every row, 0 <= j < j + k < M, or an array of one
    shift per row, 0 <= j_r < M, in which case row r is x^{-j_r} u(k, 0) (a
    pair of gap M - k when j_r + k >= M, see norm_profile).

    Returns (table, acc): table[r] = (case, scale, bound) of gap gaps[r],
    and row r of the (len(gaps), M) int64 block acc is -x^{-j} Q(x^a)
    mod x^M - 1 for k = gaps[r], j its shift, d = gcd(k, M) and a the
    first of k/d, k/d + M/d that is prime to M; reducing it mod Phi_M gives
    u. (case, scale, bound) and -Q depend on d only, and each group of gaps
    that share d reads them from one _case_core call.

    The unit a exists: gcd(k/d, M/d) = 1, so a prime of M that divides
    M/d divides neither candidate; as d < M, at most one prime of M does
    not divide M/d, and it divides at most one of two candidates that
    differ by M/d. So a d = k mod M, and as sigma_a: x -> x^a is an
    automorphism of Z[x]/Phi_M, -Q(x^a) is the inverse of
    sigma_a(x^d - 1) = x^k - 1 at the scale of -Q; as the inverse at a
    given scale is unique, it has the remainder of the paper's
    -Q(x^{k/d}). The coefficient e of -Q goes to x^{(e a - j) mod M} of its
    row, and as a is a unit, e -> e a mod M is injective, so one write
    through the flat index r M + (e a - j) mod M of the block fills every
    row of the group with no collisions. int64 is exact here: every folded
    entry is one entry of -Q, at most M (q + 1) (_case_core). The caller's
    _reduce_rows picks its own dtype (_as_rows) and falls back to Python
    ints when its bound fails.
    """
    M = m.M
    shifts = np.full(len(gaps), j).tolist()
    groups = {}
    for r, k in enumerate(gaps):
        d = math.gcd(k, M)
        a = k // d
        if math.gcd(a, M) > 1:
            a += M // d
        groups.setdefault(d, []).append((r, a, -shifts[r], r * M))
    table = [None] * len(gaps)
    acc = np.zeros(len(gaps) * M, dtype=np.int64)
    for d, steps in groups.items():
        case, scale, bound, negq = _case_core(d, m)
        # fold -x^{-j} Q(x^a) mod x^M - 1 into each row r of the group:
        # coefficient e of -Q goes to x^((e a - j) mod M), flat index
        # r M + (e a - j) mod M, and no two exponents of a row collide
        rows, a, off, start = np.array(steps).T[:, :, None]
        for r in rows.ravel().tolist():
            table[r] = (case, scale, bound)
        idx = np.arange(len(negq)) * a
        idx += off
        idx %= M
        idx += start
        acc[idx] = negq
    return table, acc.reshape(-1, M)


def construct_scaled_inverse(i: int, j: int, m: CycloModulus) -> ScaledInverse:
    """Constructive inverse of x^i - x^j mod Phi_M, 0 <= j < i < M.

    _construct builds u from the paper's case table, as the range of the
    one gap i - j at j, from the case core of d = gcd(i - j, M), cached
    after the first pair of that d (_case_core), reduced here once;
    check_gap_block checks (x^i - x^j) * u = scale exactly, with the norm
    bound, on the same range, a block of one, before u is returned.

    The scale is minimal. It is 1, or a prime p (or q) with the bound
    scale - 1, which check_gap_block checks; a nonzero u with every
    |coefficient| below a prime scale has content prime to it, so no
    smaller scale works.
    """
    if not 0 <= j < i < m.M:
        raise BadRange(f"need 0 <= j < i < M, got i={i}, j={j}, M={m.M}")
    gap = range(i - j, i - j + 1)
    [(case, scale, bound)], acc = _construct(gap, j, m)
    U = _reduce_rows(acc, m)
    check_gap_block(m, gap, U, scale, bound, j)
    return ScaledInverse(RingElement(m, tuple(U[0].tolist())), scale, bound,
                         case)


@dataclass(frozen=True)
class ProfileRow:
    i: int
    j: int
    scale: int
    norm: int
    case: InverseCase


# Ceiling of sweep_cost that norm_profile accepts; a sweep above it raises
# SweepTooLarge before any allocation. Measured on a 2-core host, one
# process each: the costliest sweeps below it are those of a large M at a
# small radical, where each gap's gather and window maxima at length M
# dominate: 2^14 = 16384 (5.4e8) takes 1.2 s at 162 MB, and 2 3^8 = 13122
# (1.03e9) 0.9 s at 116 MB. The costliest rotation chain, at the
# two-prime radical 1007 = 19 53 (1.02e9), M' = 1, half a cycle a gap,
# takes 0.24 s in process, 2057 0.12 s, 2187 0.02 s and the prime
# M = 1021 (1.06e9) 0.013 s. The price M^2 rad is at least four times the
# chain's entry count; the ceiling is kept, so the same moduli are
# accepted and refused.
MAX_SWEEP_COST = 2 ** 30


def sweep_cost(M: int, rad: int) -> int:
    """O(1) cost of norm_profile at M with radical rad: at most floor(M/2)
    gaps of M' subsequences, each taken through ceil(rad/2) steps of
    length phi_rad by the chain at a two-prime radical, about
    M rad phi / 4 entries, at most about M^2 rad / 4. The price is M^2 rad,
    as it was when the sweep took all M - 1 gaps through whole cycles. It
    is unchanged now that the sweep constructs one gap per orbit of the
    units = 1 (mod rad) and gathers the others, and so is MAX_SWEEP_COST,
    so the same moduli are accepted and refused; a price that counts the
    orbits is left open. A prime radical's closed form costs O(M^2) in
    all, and is priced the same."""
    return M * M * rad


def check_sweep_cost(m: CycloModulus) -> None:
    """Raise SweepTooLarge when the sweep of m costs above MAX_SWEEP_COST."""
    cost = sweep_cost(m.M, m.radical)
    if cost > MAX_SWEEP_COST:
        raise SweepTooLarge(
            f"sweep of M={m.M} costs M^2 rad = {cost}, above the ceiling "
            f"{MAX_SWEEP_COST}")


@dataclass(frozen=True, eq=False)
class NormProfile:
    """Exhaustive (i, j) sweep of the constructive inverses for one modulus.

    gaps[g - 1] = (scale, case, norms) for the gap g = i - j, with norms[j]
    the max-norm of u(j + g, j), 0 <= j < M - g. pairs() reads gaps in the
    order of a plain `for i: for j < i` sweep, and rows is built from it
    each time it is read. flagged is always empty, as every constructed
    scale is minimal (see construct_scaled_inverse).
    """

    modulus: CycloModulus
    gaps: tuple
    case_max: dict
    flagged: tuple[ProfileRow, ...] = ()

    def pairs(self):
        """(i, j, scale, norm, case) of every pair, one at a time, in
        `for i: for j < i` order."""
        gaps = [None] + [(scale, case, norms.tolist())
                         for scale, case, norms in self.gaps]
        for i in range(1, self.modulus.M):
            for j in range(i):
                scale, case, norms = gaps[i - j]
                yield i, j, scale, norms[j], case

    @property
    def rows(self) -> tuple[ProfileRow, ...]:
        return tuple(ProfileRow(*pair) for pair in self.pairs())


def check_gap_block(m: CycloModulus, gaps, block: np.ndarray, scale,
                    bound, j=0) -> np.ndarray:
    """Batched exact check of one pair (i, j) per row of block.

    gaps holds one gap per row, the block shape of _construct: a range of
    consecutive gaps or an array. j is one shift for every row or an array
    of one shift per row: row r is the pair (i, j) = ((j_r + gaps[r]) mod
    M, j_r). scale and bound are ints or per-row arrays. Row r must be a
    reduced u with (x^i - x^j) * u = scale (mod Phi_M) and
    max-norm(u) <= bound. As x is a unit, that is (1 - x^g) u + scale x^{-j}
    = 0 with g = gaps[r], formed per row in Z[x]/(x^M - 1); it is 0 mod
    Phi_M exactly when its product with E, (1 - y^p)(1 - y^q) or 1 - y at
    y = x^{M/rad}, is 0 mod x^M - 1 (see cyclotomic), so no division is
    needed. A block of one row forms the residual by slice subtractions,
    taller blocks from one padded buffer, read at a stride for a range and
    through an index for an array (see the module docstring).
    Returns the row norms; raises AssertionError naming M and (i, j) of the
    first pair that fails, and ValueError when gaps is not len(block) gaps
    or a range of step other than 1.
    """
    M, phi = m.M, m.phi
    n = block.shape[0]
    if len(gaps) != n or isinstance(gaps, range) and gaps.step != 1:
        raise ValueError(f"need {n} consecutive gaps or an array of {n} "
                         f"gaps, got {gaps}")
    # headroom: |(1 - x^g) u + scale x^{-j}| <= (2 + scale) max|u| for u != 0
    most = scale if isinstance(scale, int) else int(scale.max())
    shifts = np.asarray(j)
    if n == 1:
        # one row: the norm and the dtype from one max/min pass, and
        # (1 - x^g) u + scale x^{-j} from two slice subtractions, x^g u
        # wrapping mod x^M - 1 when g + phi > M; most is the row's scale
        g0 = int(gaps[0])
        norms = np.array([_magnitude(block)])
        u = block[0].astype(_rows_dtype(m, (2 + most) * int(norms[0])),
                            copy=False)
        res = np.zeros((1, M), dtype=u.dtype)
        res[0, :phi] = u
        res[0, g0:g0 + phi] -= u[:M - g0]
        if g0 + phi > M:
            res[0, :g0 + phi - M] -= u[M - g0:]
        res[0, -int(shifts.ravel()[0]) % M] += most
    else:
        norms = None
        rows = _as_rows(block, m, 2 + most)
        # row r of pad is [u_r, u_r], so the length-M window of the flat
        # view starting at column M - e of row r is x^e u_r mod x^M - 1;
        # rows are 2M apart, so for consecutive gaps, whose exponent grows
        # by one per row, x^g u reads at the stride 2M - 1, and for any
        # other gaps through one index per entry. The strided read is a
        # view, the index a copy: at M' = 1, where every sweep block is a
        # range, the index alone made norm_profile(35) and (143) 2 to 4%
        # slower (9.6 against 26.7 us for the 71 x 143 block)
        pad = np.zeros((n + 1, 2 * M), dtype=rows.dtype)
        pad[:n, :phi] = rows
        pad[:n, M:M + phi] = rows
        if isinstance(gaps, range):
            sg = 2 * M - 1
            shifted = pad.ravel()[M - gaps.start:M - gaps.start + n * sg]
            shifted = shifted.reshape(n, sg)[:, :M]
        else:
            starts = np.arange(M, (2 * n + 1) * M, 2 * M) - gaps
            shifted = pad.ravel()[starts[:, None] + np.arange(M)]
        # the negated residual times x^{-j}: (1 - x^g) u + scale x^{-j}
        res = pad[:n, M:] - shifted
        res[np.arange(n), -shifts % M] += np.asarray(scale, dtype=res.dtype)
    res = _times_cofactor(res, m)
    if res.any():
        r = int(res.any(axis=(0, 2)).argmax())
        what = f"(x^i - x^j)*u != {int(np.broadcast_to(scale, (n,))[r])}"
    else:
        if norms is None:
            norms = np.abs(block).max(axis=1)
        over = norms > bound
        if not over.any():
            return norms
        r = int(over.argmax())
        what = (f"norm {int(norms[r])} > bound "
                f"{int(np.broadcast_to(bound, (n,))[r])}")
    jr = int(np.broadcast_to(shifts, (n,))[r])
    raise AssertionError(f"batched check failed: {what} for M={M}, "
                         f"(i, j)=({(jr + int(gaps[r])) % M}, {jr})")


def _chain_dtype(bound: int) -> np.dtype:
    """The narrowest signed dtype holding -(bound + 1): int8, int16, int32
    or int64, and object (Python ints) from 2^63 on. Every entry of
    absolute value at most bound, and its abs, fits it."""
    return np.min_scalar_type(-(bound + 1))


def _next_rotation(B: np.ndarray, rho: int, tail: np.ndarray) -> None:
    """One step of the rotation chain, in place. The window
    B[:, rho:rho + phi] holds remainder rows r mod Phi_rad, and tail the
    coefficients 1 .. phi of Phi_rad. As Phi_rad is monic with
    Phi_rad(0) = 1, y^{-1} r = (r - r_0 Phi_rad)/y, which has degree below
    phi: the shift down by one place is the next window, which holds
    r_1 .. r_{phi-1} and a zero, so only r_0 tail is subtracted there. The
    product takes B's memory order ("A"), so the subtraction runs in it."""
    B[:, rho + 1:rho + 1 + len(tail)] -= np.multiply(B[:, rho:rho + 1], tail,
                                                     order="A")


def _half_cycle(rad: int) -> int:
    """The rotations the chain takes of each row at a two-prime radical
    rad: ceil(rad/2) + 1, enough for an arc and its mirror to cover the
    cycle (see _chain_shifts)."""
    return (rad + 1) // 2 + 1


def _rotation_norms(R0: np.ndarray, rad_m: CycloModulus):
    """(A, last) for the remainder rows R0 mod Phi_rad; big is max|R0|.

    A[rho, k] is the max-norm of y^{-rho} R0[k] mod Phi_rad, for every
    rho < rad at a prime radical and for the _half_cycle(rad) = L first at
    a two-prime one. Its entries are at most 2p big at a two-prime radical
    pq, as 2p bounds the expansion factor of a monomial mod Phi_pq
    (expansion.closed_form_max, checked by verify's expansion suite), and
    2 big at a prime radical. The rows are held in the narrowest dtype that
    holds that written bound (_chain_dtype), in which every exact result
    fits, so nothing wraps.

    At a prime radical p there is no chain, and last is None.
    S = [R0, 0] represents R0 mod Phi_p as well; y^{-rho} S mod y^p - 1 has
    the entries S[k + rho mod p], and as Phi_p = 1 + y + ... + y^(p-1), its
    remainder is those entries less S[c], c = rho - 1 mod p, the one at
    y^(p-1). So A[rho] = max(max S - S[c], S[c] - min S), for every rho
    from one roll.

    At a two-prime radical the rotations follow one from the next
    (_next_rotation) in one buffer B, R_rho = B[:, rho:rho + phi], with no
    copy for the shift: L - 1 = ceil(rad/2) steps, and last is
    R_{L-1}, the rows of the block's one check (see norm_profile). big is
    read from R0 itself, so the dtype holds the chain of any integer rows,
    right or wrong.

    B (S at a prime radical) is column-major when 4 rows >= phi, so that
    the inner loops of each step run down its rows, and row-major
    otherwise. Measured on sweep blocks (2-core x86 host, numpy 2.4),
    column-major takes 0.05 of the row-major time at 3888 = 2^4 3^5 (2592
    rows of 2 entries) and 0.64 at 143 (114 rows of 120), about the same
    near 4 rows = phi (299: 54 rows of 264), and 4 times as long at 1003
    (16 rows of 928).
    """
    rows, phi = R0.shape
    rad, sh = rad_m.M, rad_m.shape
    prime = isinstance(sh, PrimePower)
    dt = _chain_dtype((2 if prime else 2 * sh.p) * _magnitude(R0))
    steps = 0 if prime else _half_cycle(rad) - 1
    B = np.zeros((rows, rad if prime else steps + phi), dtype=dt,
                 order="F" if 4 * rows >= phi else "C")
    B[:, :phi] = R0
    if prime:
        # B = [R0, 0] is S
        C = np.roll(B, 1, axis=1)   # C[:, rho] = S[:, rho - 1 mod p]
        A = np.maximum(B.max(axis=1)[:, None] - C, C - B.min(axis=1)[:, None])
        return A.T, None
    tail = rad_m.poly_row[1:].astype(dt)
    A = np.empty((steps + 1, rows), dtype=dt)
    for rho in range(steps):
        np.abs(B[:, rho:rho + phi]).max(axis=1, out=A[rho])
        _next_rotation(B, rho, tail)
    last = B[:, steps:]
    np.abs(last).max(axis=1, out=A[steps])
    return A, last


def _chain_shifts(m: CycloModulus, gaps):
    """The shifts j_g at which a sweep constructs the gaps g of gaps (a
    range or an array), as an array over gaps: 0 at a prime radical, and
    at a two-prime radical rad the start of the arc of L = _half_cycle(rad)
    rotations that the chain takes.

    With w = M', the chain of the rows at shift j = rho w takes the
    rotations t in [j, j + L w) (see norm_profile), and the mirror
    t -> c0 + w - 1 - t, c0 = -(phi - 1 + g) mod M, sends that arc to
    [a, a + L w), a = c0 + w - j - L w. The two cover Z_M exactly when
    (a - j) mod M lies in [M - L w, L w]. Write c0 + w - L w = q w + r0 mod
    M, 0 <= r0 < w; then (a - j) mod M = ((q - 2 rho) mod rad) w + r0,
    which lies there when (q - 2 rho) mod rad is one of
    rad - L = floor(rad/2) - 1 and the next integer, both at most L - 1.
    One of the two has the parity of q, so rho = (q - that) / 2 mod rad,
    whatever the parity of rad: no fixed point of the mirror is needed.
    """
    M, w, rad = m.M, m.inflation, m.radical
    if isinstance(m.shape, PrimePower):
        return np.zeros(len(gaps), dtype=np.int64)
    L = _half_cycle(rad)
    q = (w - L * w - (m.phi - 1) - np.asarray(gaps)) % M // w
    low = rad - L
    return (q - low - (q - low) % 2) // 2 % rad * w


def _norm_rows(m: CycloModulus, rad_m: CycloModulus, gaps, table: list,
               acc: np.ndarray, j) -> np.ndarray:
    """The rotation-norm rows N_g of the gaps g of gaps (a range or an
    array), before their window maxima.

    (table, acc) is _construct(gaps, j, m), j = _chain_shifts(m, gaps).
    Checks the block by one check_gap_block call on the last rows it
    computes: every row of acc, reduced, at its shift j at a prime radical,
    and at a two-prime one the chain's last rotation, at the shift
    j + (L - 1) M' mod M, which certifies the start as well. Returns N, in
    the dtype of the rotations (_rotation_norms), N[r, s M' + b] the
    max-norm of y^{-s} R_b mod Phi_rad, R_b subsequence b of u(g, 0),
    g = gaps[r]; the window of M' entries from column c holds the norms
    of x^{-c} u(g, 0) (_window_maxima). See norm_profile.
    """
    M, w, rad, phi = m.M, m.inflation, m.radical, m.phi
    n = len(gaps)
    # row r w + b of R0 is the remainder mod Phi_rad of the subsequence
    # acc[r, b::w] of gap gaps[r]
    R0 = _reduce_rows(acc.reshape(n, rad, w).transpose(0, 2, 1)
                      .reshape(-1, rad), rad_m)

    def interleaved(R):
        # coefficient a w + b of row r is coefficient a of row r w + b of R
        return R.reshape(n, w, -1).transpose(0, 2, 1).reshape(n, phi)

    _, scales, bounds = zip(*table)
    scales, bounds = np.array(scales), np.array(bounds)
    A, last = _rotation_norms(R0, rad_m)
    L = len(A)
    # the chain's last rotation is x^{-j_r - (L-1) w} u(g, 0)
    end, shift = (R0, j) if last is None else (last, (j + (L - 1) * w) % M)
    check_gap_block(m, gaps, interleaved(end), scales, bounds, shift)
    # H[r, s w + b] is the max-norm of y^{-s} R0[r w + b] mod Phi_rad, the
    # rotation t = j_r + s w + b of gap gaps[r]
    H = A.reshape(L, n, w).transpose(1, 0, 2).reshape(n, L * w)
    if last is None:
        return H
    # row r of N2 holds rotation t at column t or t + M: the arc,
    # t = j_r + k for k < span = L w, then t = j_r + k for the other k
    # from its mirror c0 + w - 1 - t, c0 = -(phi - 1 + g), which is
    # arc offset top_r - (k - span), top_r = (c0 + w - 1 - 2 j_r - span)
    # mod M; the cover keeps every such offset in [0, span)
    span = L * w
    N2 = np.zeros((n, 2 * M), dtype=H.dtype)
    tops = (w - phi - span - np.asarray(gaps) - 2 * j) % M
    for r, (jr, top) in enumerate(zip(j.tolist(), tops.tolist())):
        N2[r, jr:jr + span] = H[r]
        N2[r, jr + span:jr + M] = H[r, top + span - M + 1:top + 1][::-1]
    return N2[:, :M] + N2[:, M:]


def _window_maxima(N: np.ndarray, w: int) -> np.ndarray:
    """W[r, c] = max(N[r, c], ..., N[r, c + w - 1]), columns mod M, for
    the rotation-norm rows N (_norm_rows, _gather_rows): the max-norm of
    x^{-c} u(g, 0). For w = M' = 1 the window is one entry, and W is N.

    By doubling: after the pass of span s, entry t holds the maximum over
    [t, t + 2s), and the last span S, the largest power of two up to w,
    gives the window as two overlapping spans, [c, c + S) and
    [c + w - S, c + w). Each pass is one np.maximum over the rows, about
    log2(w) in all; the prefix and suffix maxima of blocks of w, one
    accumulate along each row, took three to five times as long on sweep
    blocks (2 cores, numpy 2.4), 97 against 24 us at 16384.
    """
    if w == 1:
        return N
    n, M = N.shape
    # t wraps mod M: the window of c reads t = c .. c + w - 1
    P = np.empty((n, M + w - 1), dtype=N.dtype)
    P[:, :M] = N
    P[:, M:] = N[:, :w - 1]
    span = 1
    while 2 * span <= w:
        P = np.maximum(P[:, :-span], P[:, span:])
        span *= 2
    return np.maximum(P[:, :M], P[:, w - span:w - span + M])


def _orbits(M: int, rad: int, half: int):
    """(rep, v) over the gaps h = 1 .. half, as arrays: rep[h - 1] the
    representative of h's orbit under the units U1 = {a mod M : a = 1
    (mod rad)}, and v[h - 1] a unit of U1 with v h = rep (mod M).

    U1 = {1 + k rad : 0 <= k < M'} (every such a is prime to M, as every
    prime of M divides rad), so the orbit of h is h plus the multiples of
    h rad mod M, the class of h mod D = gcd(h rad, M), and rep = h mod D
    is its least member. rep > 0: for a prime p of M with p^e || h,
    e < v_p(M), p^(e+1) divides D, so D does not divide h. rep <= M/2:
    rep = h when D = M, and rep < D <= M/2 otherwise. A unit does not
    change gcd(h rad, M), so every gap of an orbit has the same D and rep.

    v comes from walking U1 from every representative at once, at M' > 1
    only (at M' = 1 every orbit is one gap, and v = 1): the gap a^{-1} rep
    takes v = a, and a representative v = 1. The inverse of a = 1 + x,
    x = k rad, is the finite sum 1 - x + x^2 - ..., as x^E = 0 (mod M)
    once rad^E is.
    """
    h = np.arange(1, half + 1)
    rep = h % np.gcd(h * rad, M)
    v = np.ones(M, dtype=np.int64)
    if M > rad:
        units = np.arange(1, M, rad)
        x, inverse = units - 1, np.ones_like(units)
        power = rad
        while power % M:
            inverse = (1 - x * inverse) % M
            power *= rad
        own = h[rep == h]
        v[np.outer(own, inverse) % M] = units
        v[own] = 1
    return rep, v[1:half + 1]


def _orbit_plan(m: CycloModulus):
    """(rep, v, slot, below) over the gaps h = 1 .. floor(M/2) of m: rep
    and v of _orbits (v as int32, see _gather_rows), slot[h - 1] the row of
    rep(h) among the representatives' rows, and below[h] the number of
    representatives among the gaps 1 .. h, from below[0] = 0.
    Built once per M and then read from the table cache
    (cyclotomic._cached, key ("orbits", M)), like the case cores."""
    def build():
        rep, v = _orbits(m.M, m.radical, m.M // 2)
        below = np.zeros(m.M // 2 + 1, dtype=np.int32)
        np.cumsum(rep == np.arange(1, m.M // 2 + 1), out=below[1:])
        slot = below[rep] - 1
        v = v.astype(np.int32)
        return (rep, v, slot, below), [rep, v, slot, below]
    return _cached(("orbits", m.M), build)


def _gather_rows(held: np.ndarray, slots: np.ndarray, v: np.ndarray,
                 w: int) -> np.ndarray:
    """The rotation-norm rows N_h (see _norm_rows) of the gaps h with
    v h = rep (mod M), v = 1 (mod rad), one per entry of slots and v,
    gathered from their representatives' rows, held[k] the doubled row
    [N_rep, N_rep] of the representative in slot k: N_h[t] = N_rep[v t mod
    M].

    Let a = v^{-1}, so h = a rep, and y = x^{M'}. sigma_a: x -> x^a fixes
    y (a M' = M' mod M) and, as x^M = 1 mod Phi_M, sends x^b to
    y^e x^(ab mod M'), e = (ab mod M) // M': subsequence b of u(rep, 0)
    becomes subsequence ab mod M' of sigma_a(u(rep, 0)) = u(h, 0) (the
    inverse at a scale is unique), times y^e. So N_h[s M' + (ab mod M')] =
    N_rep[((s - e) mod rad) M' + b], and that index is v t mod M for
    t = s M' + (ab mod M'), as v M' = M' and v ab = b (mod M). Through the
    (rad, M') view, v t mod M = s M' + (v c mod M) for column c, less M
    at most once, which the doubled row absorbs: one base per column plus
    s M', an index of one block's entries, and a gather in the rows' own
    dtype.
    """
    M = held[0].size // 2
    # int32 is exact: v c < M M' = M^2 / rad <= 2^28 and the slots' offsets
    # below M^2 <= 2^30 / rad under MAX_SWEEP_COST
    base = v.astype(np.int32, copy=False)[:, None] * np.arange(
        w, dtype=np.int32)
    base -= base // M * M
    base += slots.astype(np.int32, copy=False)[:, None] * (2 * M)
    return held.take(base[:, None, :] + np.arange(0, M, w, dtype=np.int32)[
        :, None]).reshape(len(v), M)


def _first_pairs(W: np.ndarray, lo: int, M: int) -> np.ndarray:
    """One key per row of W, the window norms of the gaps g = lo + r (see
    norm_profile): top M^2 + (M^2 - 1 - (i M + j)), top the row's largest
    norm and (i, j) the first pair in `for i: for j < i` order to reach it,
    so the larger key wins on the norm first and on the pair after.

    Column c of row r holds the pair (c + g, c) of gap g for c < M - g,
    part one, and (c, c - M + g) of gap M - g after it, part two; in each
    part i M + j grows with c, so the first largest entry of each part is
    its first pair, and the row's key is the larger of the parts' keys.
    The rows are sheared, row r moved r columns to the right, so that part
    one ends at column M - lo in every row: one max and one argmax over
    each part. The zeros ahead of part one are below every norm of a
    nonzero inverse, so an argmax never stops on them.
    """
    n = len(W)
    sheared = np.zeros(n * (M + n + 1), dtype=W.dtype)
    sheared.reshape(n, M + n + 1)[:, :M] = W
    sheared = sheared[:n * (M + n)].reshape(n, M + n)
    one, two = sheared[:, :M - lo], sheared[:, M - lo:]
    MM, g = M * M, np.arange(lo, lo + n)
    # part one: column k is i = k + lo, i M + j = i (M + 1) - g
    key1 = (one.max(axis=1).astype(np.int64) * MM
            - one.argmax(axis=1) * (M + 1) + (MM - 1 - lo * (M + 1)) + g)
    # part two: column k is i = k + M - g, i M + j = i (M + 1) - M + g
    key2 = (two.max(axis=1).astype(np.int64) * MM
            - two.argmax(axis=1) * (M + 1) + g * M - 1)
    return np.maximum(key1, key2)


def _top_pair(key: int, M: int):
    """(top, i, j) of a key of _first_pairs."""
    top, first = divmod(key, M * M)
    return (top, *divmod(M * M - 1 - first, M))


def norm_profile(m: CycloModulus) -> NormProfile:
    """Sweep all 0 <= j < i < M; record per-gap norms and per-case maxima.

    Of the gaps g <= M/2 only one per orbit of the units
    U1 = {a : a = 1 (mod rad)} is constructed (_orbit_plan), as
    x^{-j_g} u(g, 0) at the shift j_g = _chain_shifts(m, gaps) where its
    rotations start (0 at a prime radical), the representatives of a block
    of consecutive gaps by one _construct call, each reduced once and
    checked by one check_gap_block call (see Certification). Every gap of
    the block then gathers its rotation norms from its representative's
    (_gather_rows), and every other pair of gap g follows by the gap-shift
    identity u(j + g, j) = x^{-j} u(g, 0).

    The gaps above M/2 are mirrors. The rotations x^{-j} u(g, 0) for
    M - g <= j < M are the pairs (j, j') of gap M - g, j' = j - M + g < g:
    (x^j - x^{j'}) (-x^{-j}) = x^{j'-j} - 1 = x^g - 1 mod x^M - 1, so
    (x^j - x^{j'}) (-x^{-j} u(g, 0)) = (x^g - 1) u(g, 0) = scale mod
    Phi_M. As gcd(M - g, M) = gcd(g, M), gap M - g has the case, scale and
    bound of gap g. In the domain Z[x]/Phi_M an element has at most one
    inverse at a given scale, so u(j, j') = -x^{-j} u(g, 0), whose norm is
    that of the rotation. Its scale is minimal as in
    construct_scaled_inverse: it is 1, or a prime whose bound, scale - 1,
    every rotation's norm is checked against. So the row of M rotation
    norms of gap g holds gap g in its first M - g entries and gap M - g in
    the g after them; at an even M the gap M/2 is its own mirror, and its
    pairs are stored once.

    The sweep works at the radical rad = M/M'. With y = x^{M'},
    Phi_M(x) = Phi_rad(y), so a row v reduces mod Phi_M as its M'
    subsequences S_b = v[b::M'] reduce mod Phi_rad(y). The rotation
    x^{-j} acc_g of the folded row of gap g has the subsequences
    y^{-rho} S_b, with rho M' + b running over the cyclic window [j, j + M').
    So the norm of u(j + g, j) is the maximum of N_g over that window, with
    N_g[rho M' + b] the max-norm of y^{-rho} S_b mod Phi_rad (_window_maxima,
    about log2(M') passes; for M' = 1 the window is one rotation). Each S_b
    of a representative is reduced once (_reduce_rows at the radical), which
    gives R0, the interleaved u(g, 0), and the norms of its rotations follow
    from R0 with no second reduction (_rotation_norms): at a prime radical
    p in the closed form max(max S - S[c], S[c] - min S), c = rho - 1 mod
    p, of the rotation of S = [R0, 0], and at a two-prime one by
    y^{-1} r = (r - r_0 Phi_rad)/y (_next_rotation), in place in one
    buffer. Gaps are stacked in blocks of _UNIT_BLOCK / 16 / M, whose
    arrays peak near _UNIT_BLOCK / 2 entries.

    Orbits. For a in U1, sigma_a: x -> x^a fixes y and sends u(g, 0) to
    u(a g mod M, 0), of the same case, scale and bound; it permutes the
    subsequences and multiplies each by a power of y, and the reduction
    mod Phi_rad(y) commutes with both, so N_{ag}[t] = N_g[a^{-1} t mod M].
    The representative of h, h mod gcd(h rad, M), is at most h (_orbits),
    so a block gathers only from representatives of this block or an
    earlier one. They are few where M' is large: 14 of the 8192 gaps
    g <= M/2 at 16384 = 2^14, 13 of 1093 at 2187, 31 of 6561 at
    13122 = 2 3^8, 10 of 62 at 125, 263 of 1028 at 2057 = 11^2 17; at
    M' = 1 every gap is its own, and nothing is gathered.

    Half cycle. The chain of a two-prime radical walks L = ceil(rad/2) + 1
    rotations of each representative, not rad. Phi_M is palindromic, so
    x -> x^{-1} is an automorphism of Z[x]/Phi_M; it sends
    (x^g - 1) u = scale to (x^g - 1) (-x^{-g} u') = scale, u' the image of
    u = u(g, 0), and as the inverse at a given scale is unique,
    u' = -x^g u. Reversing the phi coefficients of a remainder f is
    f -> x^(phi-1) f', so the remainder of x^{-j} u, reversed, is
    x^(phi-1) x^j u' = -x^{-(c0 - j)} u, with c0 = -(phi - 1 + g) mod M.
    Reversal sends subsequence b to subsequence M' - 1 - b, so
    N_g[t] = N_g[c0 + M' - 1 - t mod M]. The chain of gap g starts at the
    rotation t = j_g, a multiple of M', and takes the arc [j_g, j_g + L M');
    _chain_shifts picks j_g so that the arc and its mirror cover Z_M, at an
    even M too, where the mirror need have no fixed point. The other
    entries of N_g are read off the mirror.

    Certification. One check_gap_block call per block with representatives,
    on the last rows it computes, row r for representative g with that
    gap's own scale and bound; a failure names the first failing pair. At a
    prime radical it takes R0 as the pairs (j_g + g, j_g) (mod M), which
    proves that R0 is x^{-j_g} u(g, 0), with norm at most the bound; the
    rotations' norms then follow by the closed form, an identity mod Phi_p.
    At a two-prime radical it takes the chain's last rotation, interleaved
    back to length phi, as the pairs at its own shift j_g + (L - 1) M'.
    Each step is an integer identity whose result has degree below
    phi_rad, so it is the exact remainder of y^{-rho} R0 for any integer
    rows R0, right or wrong, and as y is a unit mod Phi_rad, a wrong entry
    of R0, or of any step, carries to a wrong last rotation, which fails
    the check. The mirrored norms are those of exact remainders, reversed
    and negated, and the gathered rows those of exact remainders permuted
    and rotated by sigma_a: the two automorphisms are proofs, and need no
    product of their own. As (x^{j+g} - x^j) x^{-j} u = (x^g - 1) u mod
    x^M - 1, every pair's product follows. Every representative's row N is
    checked against its bound, in N's own dtype, before it is narrowed or
    gathered: its largest entry is its largest window, and a gathered row
    has its representative's entries. A failure names the first pair of
    the row, in `for i: for j < i` order, to reach its largest norm.
    Integers are exact: |R_rho| <= 2p max|R0| at a two-prime radical, the
    largest expansion factor of a monomial mod Phi_pq (expansion, checked
    by verify's expansion suite), and the closed form's entries are at most
    2 max|R0|. The rotations are held in the narrowest dtype that holds
    that written bound (_chain_dtype: int8 to int64, Python ints from 2^63
    on), read from R0 itself, so it holds whether or not R0 is right. The
    check could not reveal a wrapped entry in full, as wrapped integer
    arithmetic is exact mod 2^bits, so exactness rests on that bound, which
    the tests check against the former chain on int64 rows.

    Cost: M' subsequences per representative; at a two-prime radical each
    takes ceil(rad/2) steps of length phi_rad, at most about M^2 rad / 4
    entries, and at a prime radical the closed form is O(M) a gap. Every
    gap takes a gather and its window maxima, O(M log M'). sweep_cost
    still prices the sweep at M^2 rad, and a sweep above MAX_SWEEP_COST
    raises SweepTooLarge before any work. The norm rows are written a block
    at a time into one (floor(M/2), M) array in the narrowest unsigned
    dtype of the largest bound of M's case table, made read-only before
    every gap's two views are cut from it. Each case maximum is the largest
    key (_first_pairs) over the gaps of the case, with cases in the order
    of their smallest gap.
    """
    check_sweep_cost(m)
    M, w = m.M, m.inflation
    rad_m = make_modulus(m.radical)
    # gaps per block: its arrays and temporaries, up to ten of M entries a
    # gap, peak at 0.5 to 0.65 _UNIT_BLOCK entries (traced at 35 to 2187)
    step = max(1, _UNIT_BLOCK // 16 // M)
    half = M // 2
    # every gap's rows in one array, allocated once, in the dtype of the
    # largest bound of M's case table (q - 1 at p^s q^t, p - 1 at p^s): a
    # row allocated per gap interleaves with the blocks' temporaries on the
    # heap and raises the peak RSS (178 against 162 MB at 16384)
    sh = m.shape
    top_bound = (sh.p if isinstance(sh, PrimePower) else sh.q) - 1
    norms = np.empty((half, M), dtype=np.min_scalar_type(top_bound))
    reps, mults, slot, below = _orbit_plan(m)
    if w > 1:
        # the doubled rotation-norm rows of the representatives, which
        # every gap of their orbits gathers from, row slot[h - 1] for gap h
        held = np.empty((int(below[-1]), 2, M), dtype=norms.dtype)
    # per gap g <= M/2: the index in kinds (case -> (index, scale)) of its
    # case, numbered in the order of their smallest gap, a representative,
    # and the key of its row (_first_pairs)
    kinds, kind_of = {}, np.empty(half, dtype=np.int64)
    keys = np.empty(half, dtype=np.int64)
    for lo in range(1, half + 1, step):
        block = range(lo, min(half + 1, lo + step))
        n = len(block)
        first, count = below[[lo - 1, lo - 1 + n]].tolist()
        count -= first
        if count:
            # the block's representatives: constructed, reduced, checked
            # and bound-checked here, the only gaps that are
            gs = block if count == n else np.flatnonzero(
                reps[lo - 1:lo - 1 + n] == block) + lo
            j = _chain_shifts(m, gs)
            entries, acc = _construct(gs, j, m)
            N = _norm_rows(m, rad_m, gs, entries, acc, j)
            kind_of[np.asarray(gs) - 1] = [
                kinds.setdefault(case, (len(kinds), scale))[0]
                for case, scale, _ in entries]
            bound = np.array([bound for _, _, bound in entries])
            # a row's largest entry is its largest window: the bound check
            # of every rotation, before any entry is narrowed
            over = N.max(axis=1) > bound
            if over.any():
                r = int(over.argmax())
                top, i, j = _top_pair(int(_first_pairs(
                    _window_maxima(N[r:r + 1], w), int(gs[r]), M)[0]), M)
                raise AssertionError(
                    f"sweep check failed: norm {top} > bound "
                    f"{int(bound[r])} for M={M}, (i, j)=({i}, {j})")
            if w > 1:
                # their slots are the next count rows of held
                held[first:first + count] = N[:, None]
        if w > 1:
            # every gap of the block, gathered from its representative's
            # row, the representatives' own rows too
            rep_rows = reps[lo - 1:lo - 1 + n] - 1
            kind_of[lo - 1:lo - 1 + n] = kind_of[rep_rows]
            N = _gather_rows(held, slot[lo - 1:lo - 1 + n],
                             mults[lo - 1:lo - 1 + n], w)
        W = _window_maxima(N, w)
        keys[lo - 1:lo - 1 + n] = _first_pairs(W, lo, M)
        # checked in N's own dtype above, so the narrowing hides nothing
        norms[lo - 1:lo - 1 + n] = W
    norms.setflags(write=False)
    cases = [(case, scale) for case, (_, scale) in kinds.items()]
    gaps = [None] * (M - 1)
    for g, k, row in zip(range(1, half + 1), kind_of.tolist(), norms):
        case, scale = cases[k]
        # gap M - g first, so that g = M/2 keeps its own pairs
        gaps[M - g - 1] = (scale, case, row[M - g:])
        gaps[g - 1] = (scale, case, row[:M - g])
    # each case's maximum: the largest key over its gaps (keys are
    # positive, so the zeros of the other cases never win)
    best = (keys * (kind_of == np.arange(len(kinds))[:, None])).max(axis=1)
    case_max = {case: _top_pair(key, M)
                for case, key in zip(kinds, best.tolist())}
    return NormProfile(m, tuple(gaps), case_max)


def alternative_coprime_form(m: CycloModulus) -> IntPoly:
    """Closed form of the inverse at the canonical near-tight pair.

    For i = M'(p-1), j = M'(p-2) with M' = p^(s-1) q^(t-1), this is
    Phi_pq + (p-1)(Phi_pq - 1)/(x - 1) - sum_{n=1}^{p-1} (x^{nq-p+2} - 1)/(x - 1),
    inflated by M'. Its constant coefficient is -(p-2), which exhibits the
    norm lower bound p-2 for the constructive inverse.
    """
    if not isinstance(m.shape, TwoPrime):
        raise NotApplicable(f"M={m.M} is not of two-prime shape")
    p, q = m.shape.p, m.shape.q
    phi_pq = make_modulus(p * q).poly
    out = phi_pq + (p - 1) * exact_div(phi_pq - 1, IntPoly((-1, 1)))
    for n in range(1, p):
        # (x^a - 1)/(x - 1) = 1 + x + ... + x^(a-1)
        out = out - IntPoly((1,) * (n * q - p + 2))
    return out.inflate(m.inflation)
