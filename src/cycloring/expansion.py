"""Expansion factors of the monomials x^k in Z[x]/Phi_M(x).

The expansion factor of x^k is the maximum of ||x^k g||_inf / ||g||_inf over
nonzero g. Multiplying by x^k maps the basis monomial x^l to reduction-matrix
column (k + l) mod M, so the factor is the max-row-L1 norm of that windowed
column selection, k's window, and a row-sign-matched +-1 vector attains it.

Every factor is read at the radical. With y = x^M', M' = M/rad(M), Phi_M(x)
= Phi_rad(y) and x^(aM' + b) = y^a x^b, so R_M = R_rad kron I_M': row
c M' + b' of R_M holds row c of R_rad on the columns = b' (mod M'). For
k = a M' + b, row c M' + b' of k's window is then row c of R_rad's window
a + 1 when b' < b and of its window a when b' >= b, on the exponents
l = b' - b (mod M'). So the factor of x^k is pr[a] when b = 0 and
max(pr[a], pr[a + 1 mod rad]) otherwise, pr[a] the largest row L1 of
R_rad's window a, and a witness is one row of R_rad's window spread over
every M'-th coefficient: max_expansion_factor costs O(M) beyond R_rad, and
neither it nor monomial_expansion_factor nor randomized_expansion_check
without entries builds R_M. They are refused by R_rad's cells
(check_matrix_cells), which at a squarefree M are R_M's.

Every witness is re-verified as it is built: x^k g by one shifted
reduction (_shifted_products), whose max norm must be the factor. A seeded
randomized oracle provides an independent never-exceeds check: it reduces
x^k g for its random g a block of at most _UNIT_BLOCK entries at a time,
by one batched reduction per block, not through R_M. verify's expansion
suite reads the factors from R_M's windows (_factor at m itself), the
second route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import (_UNIT_BLOCK, CycloModulus, PrimePower, RingElement,
                         _reduce_rows, make_modulus, reduction_matrix)

DEFAULT_SEED = 1729


def _window(entries: np.ndarray, k: int, m: CycloModulus) -> np.ndarray:
    """Columns k .. k + phi - 1 (mod M) of R_M, given its entries, in
    their stored int8."""
    cols = (k + np.arange(m.phi)) % m.M
    return entries[:, cols]


def monomial_expansion_factor(k: int, m: CycloModulus) -> tuple[int, RingElement]:
    """Exact expansion factor of x^k together with a witness attaining it.

    The witness has coefficients in {-1, 0, 1}, sign-matched against the
    first row of maximal L1 norm in the windowed column matrix, in R_M's
    row order, and is read from R_rad (see the module docstring); the
    claimed factor is re-verified by one shifted reduction.
    """
    rad = make_modulus(m.radical)
    return _factor(k % m.M, m, rad, reduction_matrix(rad).entries)


def _factor(k: int, m: CycloModulus, base_m: CycloModulus,
            base: np.ndarray) -> tuple[int, RingElement]:
    """monomial_expansion_factor for 0 <= k < M, read from base, the
    reduction matrix of base_m: m's radical, or m itself (then from k's
    window of R_M).

    With n = M / base_m.M and k = a n + b, row c n + b' of k's window is
    row c of base's window a + 1 when b' < b and of window a otherwise
    (see the module docstring). For each c the rows b' < b come first,
    led by b' = 0, and then b' >= b, led by b' = b. So the first row of
    largest L1 in R_M's row order is the first largest among the rows c
    of windows a + 1 and a taken in turn (window a alone when b = 0), and
    it sits on every n-th exponent from b' - b mod n."""
    n = m.M // base_m.M
    a, b = divmod(k, n)
    shifts = (1, 0) if b else (0,)
    wins = np.stack([_window(base, a + s, base_m) for s in shifts], axis=1)
    # entries lie in {-1, 0, 1} (reduction_matrix), so abs cannot wrap
    row_l1 = np.abs(wins).sum(axis=2, dtype=np.int64).ravel()
    c, side = divmod(int(row_l1.argmax()), len(shifts))
    factor = int(row_l1.max())
    g = np.zeros(m.phi, dtype=np.int64)
    g[shifts[side] * (n - b)::n] = wins[c, side]
    return factor, _verified(k, m, factor, g)


def _verified(k: int, m: CycloModulus, factor: int,
              g: np.ndarray) -> RingElement:
    """The witness g, an int64 row of length phi with entries in
    {-1, 0, 1} (R_M's, its own signs), once ||x^k g||_inf = factor is
    re-verified by one shifted reduction."""
    if (np.abs(g).max() != 1
            or np.abs(_shifted_products(k, m, g[None])).max() != factor):
        raise AssertionError(
            f"expansion witness for k={k}, M={m.M} failed re-verification")
    return RingElement(m, tuple(g.tolist()))


@dataclass(frozen=True)
class ExpansionReport:
    """Per-k expansion factors of one modulus, with the maximum and witness."""

    modulus: CycloModulus
    per_k: tuple[int, ...]
    max_factor: int
    witness_k: int
    witness_g: RingElement


def closed_form_max(m: CycloModulus) -> int | None:
    """The provable max-over-k expansion factor, where one exists.

    2^s rings rotate coefficients, so the max is 1. Odd prime powers reach
    exactly 2. Two-prime moduli with odd p reach exactly 2p; for p = 2 the
    generic 2p row bound still holds but the witness construction needs
    q + p - 1 < phi(pq), which fails, and the true maximum is smaller
    (M = 6 gives 2), so no closed value is claimed.
    """
    sh = m.shape
    if isinstance(sh, PrimePower):
        return 1 if sh.p == 2 else 2
    if sh.p > 2:
        return 2 * sh.p
    return None


def witness_exponent(m: CycloModulus) -> int | None:
    """The exponent with a guaranteed maximal factor: (p-1)p^(s-1) for odd
    prime powers, (phi(pq)-1) * M/(pq) for two-prime moduli with odd p."""
    sh = m.shape
    if isinstance(sh, PrimePower):
        return None if sh.p == 2 else (sh.p - 1) * sh.p ** (sh.s - 1)
    if sh.p > 2:
        return ((sh.p - 1) * (sh.q - 1) - 1) * m.inflation
    return None


def max_expansion_factor(m: CycloModulus) -> ExpansionReport:
    """Sweep all k in [0, M) and report the maximal expansion factor.

    The factors are read at the radical (see the module docstring). For
    shapes with a provable closed-form maximum the sweep result is
    asserted against it, and the distinguished witness exponent must attain
    the maximum.
    """
    rad = make_modulus(m.radical)
    base = reduction_matrix(rad).entries
    N, phi = rad.M, rad.phi
    # Row c of csum is the sum of columns 0 .. c-1 of |R_rad|. Its entries
    # lie in {-1, 0, 1}, as reduction_matrix asserts, so csum is at most
    # rad <= 2^20 and exact in int32.
    csum = np.zeros((N + 1, phi), dtype=np.int32)
    np.cumsum(np.abs(base.T), axis=0, dtype=np.int32, out=csum[1:])
    # pr[a], the largest row L1 of window a: columns a .. a + phi - 1,
    # wrapping mod rad past a = rad - phi
    inner = (csum[phi:] - csum[:N - phi + 1]).max(axis=1)
    wrapped = (csum[N] - csum[N - phi + 1:N] + csum[1:phi]).max(axis=1)
    pr = np.concatenate([inner, wrapped])
    # per[a, b] is the factor of x^(a M' + b): pr[a] at b = 0, else the
    # larger of pr[a] and pr[a + 1 mod rad]
    per = np.empty((N, m.inflation), dtype=pr.dtype)
    per[:] = np.maximum(pr, np.roll(pr, -1))[:, None]
    per[:, 0] = pr
    per_k = tuple(per.ravel().tolist())
    max_factor = int(pr.max())

    expected = closed_form_max(m)
    if expected is not None and max_factor != expected:
        raise AssertionError(
            f"max expansion factor for M={m.M} is {max_factor}, expected "
            f"{expected}")
    wk = witness_exponent(m)
    if wk is not None and per_k[wk] != max_factor:
        raise AssertionError(
            f"witness exponent {wk} does not attain the maximum for M={m.M}")
    if wk is None:
        wk = int(per.argmax())
    factor, witness = _factor(wk, m, rad, base)
    if factor != max_factor:
        raise AssertionError(f"witness exponent {wk} for M={m.M} has factor "
                             f"{factor}, not the maximum {max_factor}")
    return ExpansionReport(m, per_k, max_factor, wk, witness)


def randomized_expansion_check(k: int, m: CycloModulus, trials: int,
                               seed: int = DEFAULT_SEED,
                               entries: np.ndarray | None = None) -> bool:
    """Independent oracle for one factor: random g (ternary and bounded
    integer coefficients) never exceed factor * ||g||_inf; the witness of
    the factor attains equality, re-verified as it is built. entries, when
    given, are R_M's (reduction_matrix), built once by a caller that checks
    many k, and the factor is read from k's window of them; otherwise it
    is read at the radical (monomial_expansion_factor)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k %= m.M
    if entries is None:
        factor, _ = monomial_expansion_factor(k, m)
    else:
        factor, _ = _factor(k, m, m, entries)
    for gs in _random_rows(m, trials, seed):
        norms = np.abs(gs).max(axis=1)
        keep = norms > 0
        gs, norms = gs[keep], norms[keep]
        out_norms = np.abs(_shifted_products(k, m, gs)).max(axis=1)
        if np.any(out_norms > factor * norms):
            return False
    return True


def _random_rows(m: CycloModulus, trials: int, seed: int):
    """The random g of randomized_expansion_check, in blocks of at most
    _UNIT_BLOCK // M rows, so that a block's products stay within
    _UNIT_BLOCK entries. Trials below trials // 2 are ternary and the rest
    bounded integers in [-10, 10]: each block draws its ternary rows, then
    its bounded ones, from the one generator of the seed, so each trial is
    drawn once."""
    rng = np.random.default_rng(seed)
    half, step = trials // 2, max(1, _UNIT_BLOCK // m.M)
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        mid = min(max(lo, half), hi)
        gs = np.empty((hi - lo, m.phi), dtype=np.int64)
        gs[:mid - lo] = rng.integers(-1, 2, size=(mid - lo, m.phi))
        gs[mid - lo:] = rng.integers(-10, 11, size=(hi - mid, m.phi))
        yield gs


def _shifted_products(k: int, m: CycloModulus, gs: np.ndarray) -> np.ndarray:
    """Row t is x^k gs[t] mod Phi_M, 0 <= k < M: each row of gs placed at
    the exponents k .. k + phi - 1 mod M, all reduced by one _reduce_rows."""
    rows = np.zeros((gs.shape[0], m.M), dtype=gs.dtype)
    rows[:, (k + np.arange(m.phi)) % m.M] = gs
    return _reduce_rows(rows, m)
