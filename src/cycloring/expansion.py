"""Expansion factors of the monomials x^k in Z[x]/Phi_M(x).

The expansion factor of x^k is the maximum of ||x^k g||_inf / ||g||_inf over
nonzero g. Multiplying by x^k maps the basis monomial x^l to reduction-matrix
column (k + l) mod M, so the factor is the max-row-L1 norm of that windowed
column selection, and a row-sign-matched +-1 vector attains it. Every factor
reported by the closed computation is re-verified through an actual ring
multiplication, and a seeded randomized oracle provides an independent
never-exceeds check: it reduces x^k g for its random g a block of at most
_UNIT_BLOCK entries at a time, by one batched reduction per block
(_shifted_products), not through R_M.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import (_UNIT_BLOCK, CycloModulus, PrimePower, RingElement,
                         _reduce_rows, monomial_reduce, reduction_matrix,
                         ring_mul)

DEFAULT_SEED = 1729


def _window(entries: np.ndarray, k: int, m: CycloModulus) -> np.ndarray:
    """Columns k .. k + phi - 1 (mod M) of R_M, given its entries, in
    their stored int8."""
    cols = (k + np.arange(m.phi)) % m.M
    return entries[:, cols]


def monomial_expansion_factor(k: int, m: CycloModulus) -> tuple[int, RingElement]:
    """Exact expansion factor of x^k together with a witness attaining it.

    The witness has coefficients in {-1, 0, 1}, sign-matched against a row
    of maximal L1 norm in the windowed column matrix; the claimed factor is
    re-verified by one ring multiplication.
    """
    k %= m.M
    return _factor_and_witness(k, m, _window(reduction_matrix(m).entries, k, m))


def _factor_and_witness(k: int, m: CycloModulus,
                        win: np.ndarray) -> tuple[int, RingElement]:
    """monomial_expansion_factor for 0 <= k < M, given the window of k."""
    # entries lie in {-1, 0, 1} (reduction_matrix), so abs cannot wrap
    row_l1 = np.abs(win).sum(axis=1, dtype=np.int64)
    row = int(row_l1.argmax())
    factor = int(row_l1[row])
    witness = RingElement(m, tuple(int(np.sign(c)) for c in win[row]))
    prod = ring_mul(monomial_reduce(k, m), witness)
    if witness.max_norm() != 1 or prod.max_norm() != factor:
        raise AssertionError(
            f"expansion witness for k={k}, M={m.M} failed re-verification")
    return factor, witness


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

    For shapes with a provable closed-form maximum the sweep result is
    asserted against it, and the distinguished witness exponent must attain
    the maximum.
    """
    M, phi = m.M, m.phi
    # Row c of cols is column c of R_M. Its entries lie in {-1, 0, 1}, as
    # reduction_matrix asserts, so csum[c], the sum of rows 0 .. c-1 of
    # |R_M|, is at most M <= 2^20 and exact in int32.
    entries = reduction_matrix(m).entries
    csum = np.zeros((M + 1, phi), dtype=np.int32)
    np.cumsum(np.abs(entries.T), axis=0, dtype=np.int32, out=csum[1:])
    # window of k: columns k .. k + phi - 1, wrapping mod M past k = M - phi
    inner = (csum[phi:] - csum[:M - phi + 1]).max(axis=1)
    wrapped = (csum[M] - csum[M - phi + 1:M] + csum[1:phi]).max(axis=1)
    per_k = tuple(int(v) for v in np.concatenate([inner, wrapped]))
    max_factor = max(per_k)
    del csum  # M * phi int32, not needed by the witness window below

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
        wk = int(np.argmax(per_k))
    factor, witness = _factor_and_witness(wk, m, _window(entries, wk, m))
    assert factor == max_factor
    return ExpansionReport(m, per_k, max_factor, wk, witness)


def randomized_expansion_check(k: int, m: CycloModulus, trials: int,
                               seed: int = DEFAULT_SEED,
                               entries: np.ndarray | None = None) -> bool:
    """Independent oracle for one factor: random g (ternary and bounded
    integer coefficients) never exceed factor * ||g||_inf, and the
    constructed witness attains equality. entries, when given, are R_M's
    (reduction_matrix), built once by a caller that checks many k."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k %= m.M
    if entries is None:
        entries = reduction_matrix(m).entries
    factor, witness = _factor_and_witness(k, m, _window(entries, k, m))
    for gs in _random_rows(m, trials, seed):
        norms = np.abs(gs).max(axis=1)
        keep = norms > 0
        gs, norms = gs[keep], norms[keep]
        out_norms = np.abs(_shifted_products(k, m, gs)).max(axis=1)
        if np.any(out_norms > factor * norms):
            return False
    attained = ring_mul(monomial_reduce(k, m), witness).max_norm()
    return attained == factor * witness.max_norm()


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
