"""Named property suites over one modulus, for the CLI verify command.

Each check pairs a computed quantity with an independent route to the same
value (closed form vs direct reduction, construction vs Bezout oracle,
reduction matrix vs long division) and reports pass/fail with witness data
on failure. Checks are wrapped so an exception inside one check fails that
check by name instead of aborting the run. Randomized checks draw from one
seeded generator, so a report is reproducible given (seed, trials); it is
built at the first draw, so a run that draws nothing (the matrix suite)
never imports numpy.random.
"""
from __future__ import annotations

import dataclasses
import functools
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import cyclotomic, expansion, scaled_inverse, structure
from .cyclotomic import PrimePower, TwoPrime, make_modulus
from .poly import IntPoly

DEFAULT_SEED = expansion.DEFAULT_SEED
DEFAULT_TRIALS = 1000
SUITE_NAMES = ("lemmas", "theorems", "matrix", "expansion")

# Entries of R_M in one part of the matrix suite's round trips. A part's
# entries are held several times over while it is checked (Python ints,
# text, the parsed lists and an int64 array): at M = 1024 a part's JSON
# round trip peaks at 4.0 MB traced and its CSV one at 1.1 MB, against
# 6.2 and 4.6 MB at parts of 2^18 entries.
_ROUNDTRIP_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[CheckResult, ...]
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    M: int
    seed: int
    trials: int
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> int:
        return sum(c.passed for s in self.suites for c in s.checks)

    @property
    def failed(self) -> int:
        return sum(not c.passed for s in self.suites for c in s.checks)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_obj(self) -> dict:
        return {
            "M": self.M,
            "seed": self.seed,
            "trials": self.trials,
            "suites": [
                {
                    "name": s.name,
                    "seconds": round(s.seconds, 6),
                    "checks": [
                        {"name": c.name,
                         "status": "pass" if c.passed else "fail",
                         **({"witness": c.witness} if c.witness else {})}
                        for c in s.checks
                    ],
                }
                for s in self.suites
            ],
            "totals": {"passed": self.passed, "failed": self.failed},
            "ok": self.all_passed,
        }


class _Collector:
    def __init__(self):
        self.results = []

    def run(self, name, fn):
        try:
            witness = fn()
        except Exception as exc:  # a failed check, not a crashed run
            self.results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            return
        if isinstance(witness, np.bool_):   # what numpy reductions return
            witness = bool(witness)
        if witness is None or witness is True:
            self.results.append(CheckResult(name, True))
        elif witness is False:
            self.results.append(CheckResult(name, False, "predicate returned false"))
        else:
            self.results.append(CheckResult(name, False, str(witness)))


def _expected_case(m, k):
    """(case, scale, bound) of the pairs with i - j = k."""
    sh = m.shape
    if isinstance(sh, PrimePower):
        return scaled_inverse.InverseCase.PRIME_POWER, sh.p, sh.p - 1
    if k % sh.p ** sh.s == 0:
        return scaled_inverse.InverseCase.P_DIVIDES_SHIFT, sh.q, sh.q - 1
    if k % sh.q ** sh.t == 0:
        return scaled_inverse.InverseCase.Q_DIVIDES_SHIFT, sh.p, sh.p - 1
    return scaled_inverse.InverseCase.COPRIME, 1, sh.p - 1


# ---------------------------------------------------------------- lemmas


def _suite_lemmas(m, rng, trials, long_division, matrix):
    col = _Collector()
    sh = m.shape

    if isinstance(sh, PrimePower):
        p, s = sh.p, sh.s
        col.run("value_at_one",
                lambda: m.poly.evaluate(1) == p)
        col.run("inflation_form",
                lambda: m.poly == IntPoly((1,) * p).inflate(p ** (s - 1)))
        if s > 1:
            col.run("kronecker_factorization",
                    lambda: np.array_equal(matrix().entries.T,
                                           long_division()))
        return col.results

    p, q = sh.p, sh.q
    rad = make_modulus(p * q)
    phi = rad.phi

    col.run("value_at_one",
            lambda: rad.poly.evaluate(1) == 1 and m.poly.evaluate(1) == 1)
    col.run("palindrome",
            lambda: rad.poly.rev() == rad.poly and m.poly.rev() == m.poly)

    # the bits of (Phi_pq - 1)/(x - 1), computed once and shared by four
    # checks; a computation that raises fails each of them by name
    bits = functools.cache(lambda: structure.diff_quotient_coeffs(p, q)[0])

    def quotient_bits():
        bits()
        return True

    col.run("quotient_bits_match_diophantine", quotient_bits)
    col.run("quotient_bits_multiples_of_p",
            lambda: all(bits()[t * p] == 0
                        for t in range(phi // p + 1) if t * p < phi))
    col.run("quotient_bits_below_q",
            lambda: all((bits()[i] == 0) == (i % p == 0)
                        for i in range(min(q, phi))))
    col.run("solvable_above_phi",
            lambda: all(structure.solvable_table(p, q).solvable[i]
                        for i in range(phi, p * q)))
    col.run("quotient_bits_complement",
            lambda: all(bits()[i] + bits()[phi - 1 - i] == 1
                        for i in range(phi)))

    def tail_forms():
        for k in range(q):
            structure.high_monomial_form(k, p, q)
        return True

    col.run("tail_columns_closed_form", tail_forms)
    # x^(phi+k) mod Phi_pq for 0 <= k < p, one batched reduction shared by
    # two checks; a reduction that raises fails each of them by name
    tail = functools.cache(
        lambda: cyclotomic._monomial_rows(phi + np.arange(p), rad))
    col.run("tail_columns_norm_one",
            lambda: (np.abs(tail()).max(axis=1) == 1).all())
    col.run("tail_row_signs",
            lambda: ((tail()[:-1, 0] == -1).all()
                     and (tail()[:-1, phi - 1] == 1).all()))
    col.run("rev_rotation_columns",
            lambda: structure.rev_symmetry_check(p, q))
    col.run("stride_sum_zero",
            lambda: all(structure.column_family_sum(j, rad).is_zero()
                        for j in range(p)))

    def patterns():
        for j in range(p):
            structure.residue_class_pattern(j, rad)
        return True

    col.run("stride_pattern_classes", patterns)
    col.run("stride_subset_norm",
            lambda: all(structure.random_subset_norm_check(
                j, rad, trials, rng()) for j in range(p)))
    if m.inflation > 1:
        col.run("inflated_subset_norm",
                lambda: structure.inflated_pattern_check(
                    m, max(10, trials // 10), rng()))
        col.run("kronecker_factorization",
                lambda: np.array_equal(matrix().entries.T, long_division()))
    return col.results


# ---------------------------------------------------------------- matrix


def _suite_matrix(m, rng, trials, long_division, matrix):
    col = _Collector()
    R = matrix()

    def long_division_agrees():
        # the long-division columns of a block of exponents against the
        # same columns of R_M and the batched reduction, as whole arrays;
        # a block holds at most _UNIT_BLOCK entries, as in _monomial_rows
        step = max(1, cyclotomic._UNIT_BLOCK // m.M)
        for lo in range(0, m.M, step):
            ks = range(lo, min(m.M, lo + step))
            want = long_division()[lo:lo + len(ks)]
            bad = ((R.entries[:, ks].T != want)
                   | (cyclotomic._monomial_rows(ks, m) != want)).any(axis=1)
            if bad.any():
                return f"column {ks[bad.argmax()]} disagrees with long division"
        return True

    col.run("columns_match_long_division", long_division_agrees)
    col.run("identity_block",
            lambda: np.array_equal(R.entries[:, :m.phi],
                                   np.eye(m.phi, dtype=np.int8)))
    # on the stored int8 entries: no wider copy, and no abs that can wrap
    col.run("entry_range",
            lambda: R.entries.min() >= -1 and R.entries.max() <= 1)
    col.run("negative_exponent_wraparound",
            lambda: cyclotomic.monomial_reduce(-1, m)
            == cyclotomic.monomial_reduce(m.M - 1, m)
            and cyclotomic.monomial_reduce(m.M, m)
            == cyclotomic.monomial_reduce(0, m))

    sh = m.shape
    if R.blocks is not None:
        p, q = sh.p, sh.q

        def band_columns():
            lo, hi = R.blocks.b2
            for c in range(lo, hi):
                k = c - m.phi
                want = structure.band_form(k, p, q)
                got = cyclotomic.monomial_reduce(c, m).to_poly()
                if want != got:
                    return f"band column {c} mismatch"
            return True

        col.run("block_band_columns", band_columns)

        def rotation_blocks():
            lo1, _ = R.blocks.b1
            lo3, hi3 = R.blocks.b3
            for k in range(hi3 - lo3):
                left = R.column(lo1 + k)
                right = R.column(m.M - 1 - k)
                if tuple(reversed(left)) != right:
                    return f"b3 column {m.M - 1 - k} is not the rotation of b1"
            return True

        col.run("block_rotation", rotation_blocks)

    # the round trips serialize R_M in parts of rows of at most
    # _ROUNDTRIP_ENTRIES entries, each part its own document, so no whole
    # document or its parse is held at once
    step = max(1, _ROUNDTRIP_ENTRIES // m.M)
    parts = [dataclasses.replace(R, entries=R.entries[lo:lo + step])
             for lo in range(0, m.phi, step)]

    def json_roundtrip():
        for part in parts:
            obj = json.loads(part.to_json())
            back = np.array(obj["entries"], dtype=np.int64)
            if not (obj["M"] == m.M and obj["phi"] == m.phi
                    and np.array_equal(back, part.entries)):
                return False
        return True

    col.run("json_roundtrip", json_roundtrip)

    def csv_roundtrip():
        return all(np.array_equal(
            np.loadtxt(io.StringIO(part.to_csv()), delimiter=",",
                       dtype=np.int64, ndmin=2), part.entries)
            for part in parts)

    col.run("csv_roundtrip", csv_roundtrip)
    return col.results


# ---------------------------------------------------------------- theorems


def _suite_theorems(m, rng, trials, long_division, matrix):
    col = _Collector()
    sh = m.shape

    def exhaustive():
        # the sweep keeps one record per gap g = i - j; case and scale
        # depend only on g, and gap g holds the norms of j = 0 .. M - g - 1
        gaps = scaled_inverse.norm_profile(m).gaps
        if len(gaps) != m.M - 1:
            return f"sweep has {len(gaps)} gaps, not M - 1 = {m.M - 1}"
        for g, (scale, case, norms) in enumerate(gaps, start=1):
            if len(norms) != m.M - g:
                return f"gap {g}: {len(norms)} pairs, not M - g = {m.M - g}"
            want, want_scale, bound = _expected_case(m, g)
            if case != want or scale != want_scale:
                return f"(i,j)=({g},0): case {case} scale {scale}"
            j = int(np.argmax(norms))
            if norms[j] > bound:
                return f"(i,j)=({g + j},{j}): norm {norms[j]} > bound {bound}"
        return True

    col.run("construction_exhaustive", exhaustive)

    if isinstance(sh, PrimePower):
        def tightness():
            si = scaled_inverse.construct_scaled_inverse(1, 0, m)
            return si.norm == sh.p - 1 and si.u.coeffs[0] == -(sh.p - 1)

        col.run("tightness_at_unit_gap", tightness)
    else:
        def near_tight():
            p = sh.p
            i = m.inflation * (p - 1)
            j = m.inflation * (p - 2)
            si = scaled_inverse.construct_scaled_inverse(i, j, m)
            alt = scaled_inverse.alternative_coprime_form(m)
            alt_vec = list(alt.coeffs) + [0] * (m.phi - len(alt.coeffs))
            const = alt.coeffs[0] if alt.coeffs else 0
            if const != -(p - 2):
                return f"alternative form constant {const} != -(p-2)"
            if si.norm < p - 2:
                return f"norm {si.norm} below p-2"
            if tuple(alt_vec) != si.u.coeffs:
                return "alternative form differs from constructed inverse"
            return True

        col.run("near_tight_witness", near_tight)

    def minimality():
        # the minimal scale of x^i - x^j = x^j (x^k - 1), k = i - j, depends
        # only on d = gcd(k, M), as the constructed one does (the case
        # table), so one generic inverse per proper divisor d of M covers
        # every pair; both inverses are unique, so u must agree as well
        for d in range(1, m.M):
            if m.M % d:
                continue
            con = scaled_inverse.construct_scaled_inverse(d, 0, m)
            gen = scaled_inverse.generic_scaled_inverse(
                cyclotomic.monomial_diff(d, 0, m))
            if con.scale != gen.scale:
                return (f"(i,j)=({d},0): constructed scale {con.scale}, "
                        f"minimal scale {gen.scale}")
            if con.u != gen.u:
                return f"(i,j)=({d},0): constructed and minimal u differ"
        return True

    col.run("scale_minimality", minimality)

    def bezout_sampled():
        # pair n of the `for i: for j < i` order is (i, j) with
        # n = i (i - 1) / 2 + j, found without listing the M^2/2 pairs
        pairs = m.M * (m.M - 1) // 2
        count = min(pairs, max(8, trials // 100))
        idx = rng().choice(pairs, size=count, replace=False)
        for n in map(int, idx):
            i = (1 + math.isqrt(1 + 8 * n)) // 2
            j = n - i * (i - 1) // 2
            con = scaled_inverse.construct_scaled_inverse(i, j, m)
            gen = scaled_inverse.generic_scaled_inverse(
                cyclotomic.monomial_diff(i, j, m))
            if con.scale % gen.scale:
                return f"(i,j)=({i},{j}): scales {con.scale} vs {gen.scale}"
            ratio = con.scale // gen.scale
            if con.u != ratio * gen.u:
                return f"(i,j)=({i},{j}): residues not proportional"
        return True

    col.run("bezout_agreement_sampled", bezout_sampled)
    return col.results


# ---------------------------------------------------------------- expansion


def _suite_expansion(m, rng, trials, long_division, matrix):
    col = _Collector()
    # one sweep over k, shared by three checks; a sweep that raises fails
    # each of them by name
    report = functools.cache(lambda: expansion.max_expansion_factor(m))

    def closed_form():
        sh = m.shape
        if isinstance(sh, TwoPrime) and report().max_factor > 2 * sh.p:
            return f"max factor {report().max_factor} above the 2p row bound"
        return True

    col.run("factor_closed_form", closed_form)

    def witness_attains():
        k = report().witness_k
        factor, _ = expansion._factor(k, m, m, matrix().entries)
        return factor == report().max_factor

    col.run("witness_attains_max", witness_attains)

    def randomized():
        ks = {int(k) for k in rng().integers(0, m.M, size=7)}
        ks.add(report().witness_k)
        per_k = max(1, trials // len(ks))
        seed = int(rng().integers(0, 2 ** 31))
        return all(expansion.randomized_expansion_check(
            k, m, per_k, seed, matrix().entries) for k in ks)

    col.run("randomized_never_exceeds", randomized)

    if m.inflation > 1:
        def inflation_consistency():
            # the report's factor at k M' is R_rad's window k (read at the
            # radical); R_M's window k M' must give the same
            r_m = matrix().entries
            for km in range(0, m.M, m.inflation):
                fm, _ = expansion._factor(km, m, m, r_m)
                if report().per_k[km] != fm:
                    return f"factor mismatch at k={km // m.inflation}"
            return True

        col.run("inflation_consistency", inflation_consistency)
    return col.results


_SUITES = {
    "lemmas": _suite_lemmas,
    "theorems": _suite_theorems,
    "matrix": _suite_matrix,
    "expansion": _suite_expansion,
}


def run_verify(M: int, suite: str = "all", trials: int = DEFAULT_TRIALS,
               seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the requested suites against M and collect a report.

    Raises ValueError for a suite other than "all" or one of SUITE_NAMES,
    for trials < 1 and for a negative seed, before the modulus is built.
    Before any suite runs, raises SweepTooLarge when the theorems suite is
    requested and its exhaustive sweep is above the ceiling (see
    norm_profile), and MatrixTooLarge when a requested suite builds an R_M
    above its ceiling (see reduction_matrix): the matrix and expansion
    suites, and the lemmas suite's kronecker_factorization for a
    non-squarefree M.
    """
    if suite != "all" and suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}: expected 'all' or one of "
                         f"{', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    m = make_modulus(M)
    names = SUITE_NAMES if suite == "all" else (suite,)
    if "theorems" in names:
        # refuse the theorems suite's exhaustive sweep before any suite runs
        scaled_inverse.check_sweep_cost(m)
    # R_M is built by the matrix and expansion suites, and by the lemmas
    # suite's kronecker_factorization when M is not squarefree; refuse it
    # up front too
    builds_matrix = {"matrix", "expansion"} | (
        {"lemmas"} if m.inflation > 1 else set())
    if builds_matrix & set(names):
        cyclotomic.check_matrix_cells(m)
    # one seeded generator, built at its first draw and shared by every
    # suite, so it draws as one built up front would; a run that draws
    # nothing never imports numpy.random
    rng = functools.cache(lambda: np.random.default_rng(seed))
    # the M remainders of x^k by long division, shared by the lemmas suite's
    # kronecker_factorization and the matrix suite's column check
    long_division = functools.cache(
        lambda: cyclotomic.long_division_rows(m))
    # R_M, built once and shared by the lemmas suite's
    # kronecker_factorization, the matrix suite and the expansion suite
    matrix = functools.cache(lambda: cyclotomic.reduction_matrix(m))
    suites = []
    for name in names:
        t0 = time.perf_counter()
        checks = _SUITES[name](m, rng, trials, long_division, matrix)
        suites.append(SuiteResult(name, tuple(checks), time.perf_counter() - t0))
    return VerifyReport(M, seed, trials, tuple(suites))
