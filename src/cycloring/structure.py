"""Executable structure checks for the reduction of powers x^k mod Phi_pq.

Each function pairs a closed form with an independent brute-force oracle, so
the verification suite can confirm every structural fact about the columns
of the reduction matrix at desk scale: the 0/1 pattern of
(Phi_pq - 1)/(x - 1), the low-tail and Toeplitz-band column forms, the
180-degree rotation symmetry of the trailing columns, and the
all-zero / one-plus-one-minus row pattern behind subset-sum norm bounds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import (_UNIT_BLOCK, CycloModulus, RingElement, TwoPrime,
                         _monomial_rows, make_modulus, monomial_reduce)
from .errors import NotApplicable, OutOfRange, PatternViolation
from .poly import IntPoly, exact_div


@dataclass(frozen=True)
class DiophantineTable:
    """solvable[i] is True iff alpha*p + beta*q = i has a solution with
    alpha, beta >= 0, tabulated for 0 <= i < pq."""

    p: int
    q: int
    solvable: tuple[bool, ...]


@lru_cache(maxsize=8)
def solvable_table(p: int, q: int) -> DiophantineTable:
    """Brute-force table: try alpha = 0 .. i//p and test q | (i - alpha*p).
    Cached, so diff_quotient_coeffs and a caller that also reads the table
    (verify's lemmas suite) build it once."""
    sol = []
    for i in range(p * q):
        sol.append(any((i - alpha * p) % q == 0 for alpha in range(i // p + 1)))
    return DiophantineTable(p, q, tuple(sol))


def diff_quotient_coeffs(p: int, q: int) -> tuple[tuple[int, ...], DiophantineTable]:
    """Coefficient bits of (Phi_pq - 1)/(x - 1), cross-checked two ways.

    The polynomial-division route and the Diophantine brute force must agree
    bitwise: coefficient i is 0 exactly when alpha*p + beta*q = i is solvable
    in nonnegative integers.
    """
    m = make_modulus(p * q)
    quot = exact_div(m.poly - 1, IntPoly((-1, 1)))
    phi = m.phi
    bits = tuple(quot.coeffs[i] if i < len(quot.coeffs) else 0
                 for i in range(phi))
    table = solvable_table(p, q)
    expected = tuple(0 if table.solvable[i] else 1 for i in range(phi))
    if bits != expected:
        raise AssertionError(
            f"division bits and Diophantine bits disagree for (p,q)=({p},{q})")
    return bits, table


def low_tail_form(k: int, p: int, q: int) -> IntPoly:
    """Closed form of x^(phi+k) mod Phi_pq for 0 <= k <= p-1:
    x^(phi+k) - Phi_pq * (1 + x + ... + x^k)."""
    m = make_modulus(p * q)
    return IntPoly.monomial(m.phi + k) - m.poly * IntPoly((1,) * (k + 1))


def band_form(k: int, p: int, q: int) -> IntPoly:
    """Closed form of x^(phi+k) mod Phi_pq for p-1 <= k <= q-1:
    -x^(k-(p-1)) * (1 + x^q + ... + x^(q(p-2)))."""
    comb = IntPoly(tuple(1 if i % q == 0 else 0 for i in range(q * (p - 2) + 1)))
    return -comb.shift(k - (p - 1))


def high_monomial_form(k: int, p: int, q: int) -> RingElement:
    """x^(phi+k) mod Phi_pq via the applicable closed form, verified against
    direct monomial reduction. On the overlap k = p-1 both forms must agree."""
    if not 0 <= k <= q - 1:
        raise OutOfRange(f"k={k} outside [0, q-1]")
    m = make_modulus(p * q)
    forms = []
    if k <= p - 1:
        forms.append(low_tail_form(k, p, q))
    if k >= p - 1:
        forms.append(band_form(k, p, q))
    direct = monomial_reduce(m.phi + k, m)
    for f in forms:
        if f != direct.to_poly():
            raise AssertionError(
                f"closed form for k={k}, (p,q)=({p},{q}) does not match the "
                f"reduced monomial")
    return direct


def rev_symmetry_check(p: int, q: int) -> bool:
    """Slot-wise reversal of column phi+k equals column pq-1-k, for every
    0 <= k < pq - phi.

    Reversal here flips the full length-phi coefficient vector (columns may
    have zero leading slots), which is exactly the 180-degree rotation that
    carries the leading column block onto the trailing one.
    """
    m = make_modulus(p * q)
    ks = np.arange(p * q - m.phi)
    left = _monomial_rows(m.phi + ks, m)
    right = _monomial_rows(p * q - 1 - ks, m)
    return bool(np.array_equal(left[:, ::-1], right))


def _stride_family(j: int, m: CycloModulus) -> np.ndarray:
    """The column family x^(j+ip) mod Phi_pq for 0 <= i < q, one row per i.

    Raises NotApplicable unless M = pq is squarefree two-prime, and
    OutOfRange unless 0 <= j < p.
    """
    sh = m.shape
    if not (isinstance(sh, TwoPrime) and sh.s == 1 and sh.t == 1):
        raise NotApplicable(f"M={m.M} is not a squarefree two-prime modulus")
    if not 0 <= j < sh.p:
        raise OutOfRange(f"j={j} outside [0, p)")
    return _monomial_rows(j + sh.p * np.arange(sh.q), m)


class PatternClass(enum.Enum):
    ALL_ZERO = "all_zero"
    ONE_PLUS_ONE_MINUS = "one_plus_one_minus"


def residue_class_pattern(j: int, m: CycloModulus) -> tuple[PatternClass, ...]:
    """Classify each coefficient row over the column family {x^(j+ip)}_{0<=i<q}.

    For squarefree two-prime M, every row's coefficient multiset is either
    all zeros or all zeros with a single +1 and a single -1. Any other
    pattern raises PatternViolation with (j, row, multiset). This single
    classification implies the zero column-family sum, the at-most-two
    nonzeros per row, and the subset-sum norm bound of 1. Preconditions
    as for _stride_family.
    """
    cols = _stride_family(j, m)
    plus, minus = (cols == 1).sum(axis=0), (cols == -1).sum(axis=0)
    nonzero = (cols != 0).sum(axis=0)
    pair = (nonzero == 2) & (plus == 1) & (minus == 1)
    bad = np.flatnonzero(~pair & (nonzero != 0))
    if bad.size:
        row = int(bad[0])
        raise PatternViolation(j, row, cols[:, row].tolist())
    return tuple(PatternClass.ONE_PLUS_ONE_MINUS if f else
                 PatternClass.ALL_ZERO for f in pair.tolist())


def random_subset_norm_check(j: int, m: CycloModulus, trials: int,
                             rng: np.random.Generator) -> bool:
    """Randomized companion to the pattern classification: subset sums of the
    column family {x^(j+ip)}_i never exceed max-norm 1. Preconditions as for
    _stride_family, checked before any draw from rng.

    Each trial draws one mask of q bits. The masks are drawn in blocks of
    trials by one rng.integers(0, 2, (b, q)) call, which yields the same
    stream as b calls of q bits each, and each block's subset sums are
    taken over the family's nonzero entries alone (np.add.reduceat along
    each coefficient's run), in blocks of at most _UNIT_BLOCK entries. A
    failing block ends the check, so a run that fails may draw up to one
    block more than a trial at a time would.
    """
    cols = _stride_family(j, m)
    # the nonzeros of the family, coefficient by coefficient: entry t is
    # vals[t] = cols[fam[t], coef[t]]
    coef, fam = np.nonzero(cols.T)
    vals = cols[fam, coef]
    starts = np.flatnonzero(np.diff(coef, prepend=-1))
    step = max(1, _UNIT_BLOCK // max(1, vals.size))
    for lo in range(0, trials, step):
        masks = rng.integers(0, 2, size=(min(step, trials - lo), len(cols)))
        if vals.size and np.abs(np.add.reduceat(masks[:, fam] * vals, starts,
                                                axis=1)).max() > 1:
            return False
    return True


def inflated_pattern_check(m: CycloModulus, trials: int = 100,
                           rng: np.random.Generator | None = None) -> bool:
    """Subset-sum norm bound for inflated two-prime moduli.

    For M = p^s q^t and M' = M/(pq), sums over random subset families
    {I_k}_{k < M'} of x^((j+ip)M'+k) stay within max-norm 1, and each such
    monomial only occupies degrees congruent to k mod M', so distinct k do
    not interfere.
    """
    sh = m.shape
    if not isinstance(sh, TwoPrime):
        raise NotApplicable(f"M={m.M} is not of two-prime shape")
    if rng is None:
        rng = np.random.default_rng(0)
    mprime, phi = m.inflation, m.phi
    # every trial draws first (j, then M' masks of q bits), so the check
    # consumes the same randomness whether it passes or fails
    draws = [(int(rng.integers(0, sh.p)),
              rng.integers(0, 2, size=(mprime, sh.q)).astype(bool))
             for _ in range(trials)]
    # fam[i, a, k] is the coefficient of x^(a M' + k) in x^((j+ip)M'+k)
    # mod Phi_M; one j at a time keeps q * phi entries live
    fam = np.empty((sh.q, phi // mprime, mprime), dtype=np.int64)
    for j in range(sh.p):
        for k in range(mprime):
            cols = _monomial_rows((j + sh.p * np.arange(sh.q)) * mprime + k, m)
            cols = cols.reshape(sh.q, phi // mprime, mprime)
            fam[:, :, k] = cols[:, :, k]
            # support of x^((j+ip)M'+k) sits on degrees = k (mod M')
            cols[:, :, k] = 0
            if cols.any():
                return False
        for jj, mask in draws:
            if jj == j and np.abs(np.einsum("iak,ki->ak", fam, mask)).max() > 1:
                return False
    return True


def column_family_sum(j: int, m: CycloModulus) -> RingElement:
    """Sum of x^(j+ip) mod Phi_pq over i in [0, q); zero for every j.
    Preconditions as for _stride_family."""
    return RingElement(m, tuple(_stride_family(j, m).sum(axis=0).tolist()))
