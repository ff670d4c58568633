import dataclasses
import gc
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cycloring import (CycloModulus, InverseCase, PrimePower, RingElement,
                       TwoPrime, alternative_coprime_form,
                       construct_scaled_inverse, element,
                       generic_scaled_inverse, make_modulus, monomial_diff,
                       monomial_reduce, norm_profile, reduce, ring_mul)
from cycloring.cyclotomic import MAX_MODULUS
from cycloring.errors import (BadRange, SweepTooLarge, UnsupportedModulus,
                              ZeroElement)
from cycloring import cyclotomic, scaled_inverse
from cycloring.ntt import ntt_wins
from cycloring.poly import IntPoly, exact_div, root_primes
from cycloring.scaled_inverse import (MAX_SWEEP_COST, _case, check_gap_block,
                                      sweep_cost)
from cycloring.verify import run_verify
from oracles import (construct_by_long_division, fold_quotient,
                     fraction_bezout, long_division_quotient,
                     norm_profile_blocks, norm_profile_per_gap,
                     norm_profile_per_pair, norm_rows_by_division,
                     rotation_walk, window_maxima_by_blocks)


def supported_upto(limit):
    out = []
    for M in range(2, limit + 1):
        try:
            make_modulus(M)
        except UnsupportedModulus:
            continue
        out.append(M)
    return out


def two_prime_upto(limit):
    return [M for M in supported_upto(limit)
            if isinstance(make_modulus(M).shape, TwoPrime)]


def rotated_inverse(g, j, m):
    """x^{-j} u(g, 0) mod Phi_M, 0 < g < M, 0 <= j < M, from one construct:
    u(j + g, j) when j + g < M, else -u(j, j + g - M), the pair of gap
    M - g (see norm_profile)."""
    if j + g < m.M:
        return construct_scaled_inverse(j + g, j, m).u.coeffs
    return (-construct_scaled_inverse(j, j + g - m.M, m).u).coeffs


def one(m):
    return element(m, (1,) + (0,) * (m.phi - 1))


def representatives(m, upto=None):
    """The gaps g <= upto (default M/2) that represent their orbit under
    the units = 1 (mod rad), in order: the gaps a sweep constructs."""
    half = m.M // 2
    reps, _ = scaled_inverse._orbits(m.M, m.radical, half)
    return [g for g in range(1, (upto or half) + 1) if reps[g - 1] == g]


@pytest.fixture
def cold_cores():
    """An empty table cache (cyclotomic._cached), which holds the case
    cores of scaled_inverse._case_core, before the test and after it: a
    _case the test patches is reached, and no core built from it outlives
    the test."""
    cyclotomic._table_cache.clear()
    yield
    cyclotomic._table_cache.clear()


@pytest.fixture
def uncached_cores(cold_cores, monkeypatch):
    """A table cache that keeps no entry: every _construct in the test
    builds its cores from _case, patched or not."""
    monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 0)


def cached_cores():
    """The case cores in the table cache, least recently used first, as
    {(M, d): (case, scale, bound, -Q)}."""
    return {key[1:]: table
            for key, (table, _) in cyclotomic._table_cache.items()
            if key[0] == "core"}


# the generic route's image kernels, by the name scaled_inverse calls each by
KERNELS = {"ntt": "ntt_images", "eea": "_bezout_images"}


def route_through(mp, kernel, wrap):
    """Make the generic route take `kernel` (a key of KERNELS) and return
    wrap(r, s) of the pair its images join to, s as an IntPoly; returns
    the list of the kernel's calls, one per batch of primes."""
    mp.setattr(scaled_inverse, "ntt_wins", lambda m: kernel == "ntt")
    name = KERNELS[kernel]
    real, calls = getattr(scaled_inverse, name), []

    def images(*args):
        calls.append(args)
        return real(*args)

    join = scaled_inverse._multimodular

    def joined(need, n, primes, kernel_images):
        r, s = join(need, n, primes, kernel_images)
        r, s = wrap(r, IntPoly(s))
        return r, list(s.coeffs) + [0] * (n - len(s.coeffs))

    mp.setattr(scaled_inverse, name, images)
    mp.setattr(scaled_inverse, "_multimodular", joined)
    return calls


class TestGeneric:
    def test_worked_example_m4(self):
        m = make_modulus(4)
        si = generic_scaled_inverse(element(m, (-1, 1)))
        assert si.u.coeffs == (-1, -1)
        assert si.scale == 2
        assert si.case == InverseCase.GENERIC
        assert si.bound is None

    def test_unit(self):
        m = make_modulus(15)
        si = generic_scaled_inverse(one(m))
        assert si.u == one(m) and si.scale == 1

    @pytest.mark.parametrize("k", range(1, 15))
    def test_monomials_invert_with_scale_one(self, k):
        m = make_modulus(15)
        si = generic_scaled_inverse(monomial_reduce(k, m))
        assert si.scale == 1
        assert si.u == monomial_reduce(15 - k, m)

    def test_zero_element(self):
        m = make_modulus(15)
        with pytest.raises(ZeroElement):
            generic_scaled_inverse(element(m, (0,) * 8))

    def test_product_equals_scale(self):
        m = make_modulus(21)
        a = element(m, (3, -1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 5))
        si = generic_scaled_inverse(a)
        prod = ring_mul(a, si.u)
        assert prod.coeffs == (si.scale,) + (0,) * (m.phi - 1)

    def test_wrong_bezout_pair_is_caught(self, monkeypatch):
        # s + 1 is no Bezout partner, so the product check must fail,
        # whichever kernel gives the pair
        m = make_modulus(21)
        a = element(m, (3, -1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 5))
        for kernel in KERNELS:
            with monkeypatch.context() as mp:
                calls = route_through(mp, kernel, lambda r, s: (r, s + 1))
                with pytest.raises(AssertionError, match=r"^generic inverse "
                                   r"failed a\*u = \d+ for M=21$"):
                    generic_scaled_inverse(a)
                assert len(calls) == 1, kernel


    def test_zero_pair_is_caught(self, monkeypatch):
        # (0, 0) passes a*u = scale with scale 0: the certificate also
        # needs scale > 0, whichever kernel gives the pair
        m = make_modulus(21)
        a = element(m, (3, -1, 0, 2, 0, 0, 1, 0, 0, 0, 0, 5))
        for kernel in KERNELS:
            with monkeypatch.context() as mp:
                route_through(mp, kernel, lambda r, s: (0, IntPoly()))
                with pytest.raises(AssertionError, match=r"^generic inverse "
                                   r"failed a\*u = 0 for M=21$"):
                    generic_scaled_inverse(a)


def fraction_scaled_inverse(a):
    """(scale, u) from the rational cofactor st with st*a = 1 (mod Phi_M):
    the scale is the lcm of its lowest-terms denominators."""
    m = a.modulus
    _, _, st_ = fraction_bezout(a.to_poly(), m.poly)
    scale = st_.denominator_lcm()
    coeffs = st_.scaled_by(scale).to_int_poly().coeffs
    return scale, coeffs + (0,) * (m.phi - len(coeffs))


# (M, number of seeded dense elements): the Fraction oracle takes about 2 s
# per dense element at M=91
DENSE_DRAWS = [(15, 6), (21, 6), (35, 4), (63, 4), (91, 1)]


class TestGenericAgainstFractionOracle:
    """The multimodular route against the rational EEA it replaced."""

    @pytest.mark.parametrize("M,draws", DENSE_DRAWS)
    def test_dense_elements(self, M, draws):
        m = make_modulus(M)
        rng = random.Random(M)
        for _ in range(draws):
            a = element(m, [rng.randint(-5, 5) for _ in range(m.phi)])
            si = generic_scaled_inverse(a)
            assert (si.scale, si.u.coeffs) == fraction_scaled_inverse(a), M

    @pytest.mark.parametrize("M", [M for M, _ in DENSE_DRAWS])
    def test_every_gap(self, M):
        m = make_modulus(M)
        for k in range(1, M):
            a = monomial_diff(k, 0, m)
            si = generic_scaled_inverse(a)
            assert (si.scale, si.u.coeffs) == fraction_scaled_inverse(a), (M, k)


class TestScaleInvariance:
    """scale = r / gcd(r, cont(s)) is the same for every integral multiple
    (k*r, k*s) of the Bezout pair."""

    @pytest.mark.parametrize("k", [-1, 2, -6, 35, 2 ** 61 - 1, -(10 ** 40)])
    def test_multiple_of_pair_gives_same_inverse(self, k, monkeypatch):
        m = make_modulus(35)
        rng = random.Random(k)
        elements = [monomial_diff(5, 4, m), monomial_diff(7, 0, m),
                    element(m, [rng.randint(-5, 5) for _ in range(m.phi)])]
        want = [generic_scaled_inverse(a) for a in elements]
        for kernel in KERNELS:
            with monkeypatch.context() as mp:
                calls = route_through(mp, kernel,
                                      lambda r, s: (k * r, s * k))
                for a, si in zip(elements, want):
                    assert generic_scaled_inverse(a) == si, kernel
                assert len(calls) == len(elements), kernel


class TestOnePrimeSupply:
    """Both kernels take their primes from one supply: root_primes(M),
    without the primes that divide lc(a)."""

    @pytest.mark.parametrize("M", [21, 35])
    def test_both_kernels_share_the_supply(self, M, monkeypatch):
        m = make_modulus(M)
        supply = root_primes(M)
        first, second = next(supply), next(supply)
        # lc(a) = first, the top prime of the supply
        a = element(m, (1,) + (0,) * (m.phi - 2) + (first,))
        got = {}
        for kernel in KERNELS:
            with monkeypatch.context() as mp:
                calls = route_through(mp, kernel, lambda r, s: (r, s))
                generic_scaled_inverse(monomial_diff(5, 1, m))
                assert calls[0][-1][0] == first, kernel
                calls.clear()
                si = generic_scaled_inverse(a)
                sent = [ell for args in calls for ell in args[-1]]
                assert sent[0] == second and first not in sent, kernel
                got[kernel] = si
        assert got["ntt"] == got["eea"]


class TestPrimePower:
    def test_worked_example_m4(self):
        m = make_modulus(4)
        si = construct_scaled_inverse(1, 0, m)
        assert si.u.coeffs == (-1, -1)
        assert si.scale == 2 and si.bound == 1
        assert si.case == InverseCase.PRIME_POWER

    @pytest.mark.parametrize("M", [4, 8, 16, 9, 27, 25, 49, 121])
    def test_tightness_at_unit_gap(self, M):
        m = make_modulus(M)
        p = m.shape.p
        si = construct_scaled_inverse(1, 0, m)
        assert si.norm == p - 1
        assert si.u.coeffs[0] == -(p - 1)

    @pytest.mark.parametrize("i,j", [(1, 1), (0, 0), (3, 5), (9, -1), (10, 2)])
    def test_bad_range(self, i, j):
        m = make_modulus(9)
        with pytest.raises(BadRange):
            construct_scaled_inverse(i, j, m)

    @pytest.mark.parametrize("M,i,j", [(4, 1, 0), (9, 5, 2), (27, 20, 11),
                                       (25, 17, 2), (8, 6, 2), (121, 77, 11)])
    def test_matches_literal_formula(self, M, i, j):
        m = make_modulus(M)
        p, s = m.shape.p, m.shape.s
        k = i - j
        alpha = 0
        while k % p == 0:
            k //= p
            alpha += 1
        beta = (i - j) // p ** alpha
        v = exact_div(m.poly.inflate(beta) - p,
                      IntPoly.monomial(p ** alpha * beta) - 1)
        literal = reduce(-v.shift(M - j), m)
        assert construct_scaled_inverse(i, j, m).u == literal

    @pytest.mark.parametrize("M", [4, 9, 25, 27, 121])
    def test_core_quotient_equals_weighted_comb_sum(self, M):
        # (Phi_M - p)/(x^(p^a) - 1) written out as the staircase sum
        # sum_k (p-1-k) * sum_m x^(M'k + m p^a) with M' = p^(s-1)
        m = make_modulus(M)
        p, s = m.shape.p, m.shape.s
        mprime = p ** (s - 1)
        for alpha in range(s):
            quot = exact_div(m.poly - p, IntPoly.monomial(p ** alpha) - 1)
            acc = [0] * (m.phi - p ** alpha + 1)
            for k in range(p - 1):  # the k = p-1 band has weight zero
                for e in range(mprime * k, mprime * k + mprime, p ** alpha):
                    acc[e] += p - 1 - k
            assert quot == IntPoly(acc)


class TestTwoPrime:
    def test_coprime_case_m15(self):
        m = make_modulus(15)
        si = construct_scaled_inverse(2, 1, m)
        assert si.case == InverseCase.COPRIME
        assert si.scale == 1 and si.bound == 2
        assert si.u.to_poly() == IntPoly((-1, -1, 0, -1, 0, 0, -1))

    def test_p_divides_case_m15(self):
        m = make_modulus(15)
        si = construct_scaled_inverse(3, 0, m)
        assert si.case == InverseCase.P_DIVIDES_SHIFT
        assert si.scale == 5 and si.bound == 4
        v = exact_div(IntPoly((1, 1, 1, 1, 1)).inflate(3) - 5,
                      IntPoly.monomial(3) - 1)
        assert si.u == reduce(-v.shift(15), m)

    def test_q_divides_case_m15(self):
        m = make_modulus(15)
        si = construct_scaled_inverse(5, 0, m)
        assert si.case == InverseCase.Q_DIVIDES_SHIFT
        assert si.scale == 3 and si.bound == 2

    def test_small_even_modulus(self):
        m = make_modulus(6)
        si = construct_scaled_inverse(2, 0, m)
        assert si.case == InverseCase.P_DIVIDES_SHIFT
        assert si.scale == 3
        assert si.u.to_poly() == IntPoly((-1, -1))

    def test_case_dispatch_exhaustive_m45(self):
        m = make_modulus(45)
        for i in range(1, 45):
            for j in range(i):
                si = construct_scaled_inverse(i, j, m)
                k = i - j
                if k % 9 == 0:
                    assert si.case == InverseCase.P_DIVIDES_SHIFT
                    assert (si.scale, si.bound) == (5, 4)
                elif k % 5 == 0:
                    assert si.case == InverseCase.Q_DIVIDES_SHIFT
                    assert (si.scale, si.bound) == (3, 2)
                else:
                    assert si.case == InverseCase.COPRIME
                    assert (si.scale, si.bound) == (1, 2)

    @pytest.mark.parametrize("M", [6, 12, 18, 15, 45, 75, 21, 63, 33, 35, 2057])
    def test_near_tight_witness(self, M):
        m = make_modulus(M)
        p = m.shape.p
        i = m.inflation * (p - 1)
        j = m.inflation * (p - 2)
        si = construct_scaled_inverse(i, j, m)
        assert si.norm >= p - 2
        alt = alternative_coprime_form(m)
        assert alt.coeffs[0] == -(p - 2) if p > 2 else alt.coeffs[0] == 0
        padded = tuple(alt.coeffs) + (0,) * (m.phi - len(alt.coeffs))
        assert padded == si.u.coeffs

    def test_bad_range(self):
        with pytest.raises(BadRange):
            construct_scaled_inverse(15, 0, make_modulus(15))

    @pytest.mark.parametrize("M", [9, 35])
    def test_numpy_integer_pair(self, M):
        # NumPy integers pass the range check and construct as ints do
        m = make_modulus(M)
        for i, j in [(3, np.int64(0)), (np.int64(5), np.int64(2))]:
            assert (construct_scaled_inverse(i, j, m)
                    == construct_scaled_inverse(int(i), int(j), m))


class TestOracleEquivalence:
    @pytest.mark.parametrize("M", [15, 21, 16, 9])
    def test_exhaustive_small(self, M):
        m = make_modulus(M)
        for i in range(1, M):
            for j in range(i):
                con = construct_scaled_inverse(i, j, m)
                gen = generic_scaled_inverse(monomial_diff(i, j, m))
                assert con.scale == gen.scale, (i, j)
                assert con.u == gen.u, (i, j)


class TestLongDivisionOracle:
    """The table-driven construction against the paper's formulas by long
    division; the moduli cover all four cases, p = 2, s > 1 and t > 1."""

    @staticmethod
    def _check(m, pairs):
        for i, j in pairs:
            si = construct_scaled_inverse(i, j, m)
            assert (si.u, si.scale, si.bound, si.case) == \
                construct_by_long_division(i, j, m), (m.M, i, j)

    # 36 and 72 are p = 2, s > 1 with exponents e k/d that collide mod M;
    # fold_quotient sums them, the library folds by a unit and has none
    @pytest.mark.parametrize("M", [2, 4, 8, 9, 27, 6, 12, 18, 45, 75, 63, 100,
                                   36, 72])
    def test_every_pair(self, M):
        self._check(make_modulus(M), ((i, j) for i in range(1, M)
                                      for j in range(i)))

    @pytest.mark.parametrize("M", [200, 675, 1024, 1147, 2187])
    def test_seeded_pairs(self, M):
        rng = random.Random(M)
        pairs = []
        for _ in range(300):
            i = rng.randrange(1, M)
            pairs.append((i, rng.randrange(i)))
        self._check(make_modulus(M), pairs)

    @pytest.mark.parametrize("M", [323, 2057])
    def test_every_shift(self, M):
        # every shift k (which decides case, N, c and d) with a seeded j;
        # every (i, j) pair is out of reach here: 2057 has 2.1M of them, at
        # about 0.5 ms each. 323 also takes both extreme j.
        rng = random.Random(M)
        pairs = []
        for k in range(1, M):
            js = {rng.randrange(M - k)}
            if M == 323:
                js |= {0, M - 1 - k}
            pairs += [(j + k, j) for j in sorted(js)]
        self._check(make_modulus(M), pairs)

    @pytest.mark.parametrize("k", [729, 1458])
    def test_large_stride_every_j(self, k):
        # M = 2187 = 3^7: d = 729 is the largest stride the table reaches
        m = make_modulus(2187)
        v, d, scale, bound, case = long_division_quotient(k, m)
        assert d == 729
        for j in range(m.M - k):
            si = construct_scaled_inverse(j + k, j, m)
            assert (si.u, si.scale, si.bound, si.case) == \
                (fold_quotient(v, k, d, j, m), scale, bound, case), j

    @pytest.mark.parametrize("M,k", [(35, 3), (125, 25), (143, 13), (45, 9)])
    @pytest.mark.usefixtures("cold_cores")
    def test_inexact_division_is_caught(self, M, k, monkeypatch):
        # a table entry with the wrong c = scale leaves a nonzero remainder
        real = scaled_inverse._case

        def wrong_c(d, m):
            case, num, scale, bound = real(d, m)
            return case, num, scale + 1, bound

        monkeypatch.setattr(scaled_inverse, "_case", wrong_c)
        m = make_modulus(M)
        case = real(math.gcd(k, M), m)[0]
        with pytest.raises(AssertionError,
                           match=rf"^\(N - c\)/\(x\^\d+ - 1\) is not exact "
                                 rf"for M={M}, case {case.value}$"):
            construct_scaled_inverse(k + 1, 1, m)


class TestFoldByUnit:
    """_construct folds -Q by a unit multiplier a, a d = k mod M: the
    exponents e a - j mod M of one row are distinct, so each folded row
    is -Q, padded with zeros to M, in some order."""

    @pytest.mark.parametrize("M", [12, 18, 36, 72, 100])
    def test_rows_permute_padded_q(self, M):
        m = make_modulus(M)
        gaps = range(1, M)
        want = []
        for k in gaps:
            negq = scaled_inverse._case_core(math.gcd(k, M), m)[3]
            want.append(np.sort(np.concatenate(
                [negq, np.zeros(M - len(negq), dtype=np.int64)])))
        for j in range(M):
            _, acc = scaled_inverse._construct(gaps, np.full(M - 1, j), m)
            assert np.array_equal(np.sort(acc, axis=1), want), j


class TestModulusLifetime:
    """No CycloModulus of M built during a test outlives it. The instances
    of M alive at the start are left out: a parameter list built at
    collection may hold one after make_modulus's bounded cache has evicted
    it. So is the cached instance, which the test may build through
    make_modulus."""

    @staticmethod
    def _outliving(M, run, hold):
        """The instances of M built while run() runs that are alive after
        it, less make_modulus's cached one; hold builds an uncached instance
        first and holds it throughout, as such a parameter list would."""
        held = make_modulus.__wrapped__(M) if hold else None

        def alive():
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, CycloModulus) and o.M == M]

        # the list holds its instances, so their ids stay unique
        before = alive()
        ids = {id(o) for o in before}
        run()
        cached = make_modulus(M)
        assert held is None or id(held) in ids
        return [o for o in alive() if id(o) not in ids and o is not cached]

    @staticmethod
    def _constructs():
        # 2057 = 11^2 * 17: an uncached instance, freed after use
        m = make_modulus.__wrapped__(2057)
        rng = random.Random(2057)
        for _ in range(30):
            i = rng.randrange(1, m.M)
            construct_scaled_inverse(i, rng.randrange(i), m)

    @staticmethod
    def _generic_inverses():
        # the NTT's block tables share the constructs' table cache, keyed
        # by integers: an uncached 63 (NTT kernel) is freed after use
        m = make_modulus.__wrapped__(63)
        assert ntt_wins(m)
        for i, j in ((5, 1), (30, 2)):
            generic_scaled_inverse(monomial_diff(i, j, m))
        assert any(key[:2] == ("ntt", 63) for key in cyclotomic._table_cache)

    def test_constructs_keep_no_modulus_alive(self):
        assert self._outliving(2057, self._constructs, False) == []

    def test_generic_inverses_keep_no_modulus_alive(self):
        assert self._outliving(63, self._generic_inverses, False) == []

    @pytest.mark.parametrize("M, run", [(2057, "_constructs"),
                                        (63, "_generic_inverses")])
    def test_instance_held_from_the_start_is_left_out(self, M, run):
        assert self._outliving(M, getattr(self, run), True) == []


class TestNormProfile:
    def test_m35_full_sweep(self):
        # the coprime-case maximum over all (i, j) is p-1 = 4, attained only
        # at unit-gap pairs; restricted to j = 0 the maximum drops to p-2 = 3
        prof = norm_profile(make_modulus(35))
        norm, i, j = prof.case_max[InverseCase.COPRIME]
        assert norm == 4
        attaining = sorted((r.i, r.j) for r in prof.rows
                           if r.case == InverseCase.COPRIME and r.norm == 4)
        assert attaining == [(5, 4), (6, 5), (7, 6), (8, 7)]
        gap_only = max(r.norm for r in prof.rows
                       if r.case == InverseCase.COPRIME and r.j == 0)
        assert gap_only == 3

    def test_m33_full_sweep(self):
        prof = norm_profile(make_modulus(33))
        assert prof.case_max[InverseCase.COPRIME][0] == 2

    def test_prime_power_profile(self):
        prof = norm_profile(make_modulus(9))
        assert set(r.scale for r in prof.rows) == {3}
        assert prof.case_max[InverseCase.PRIME_POWER][0] == 2
        assert len(prof.rows) == 9 * 8 // 2

    @pytest.mark.parametrize("M", [9, 15, 21, 33, 35])
    def test_nothing_flagged(self, M):
        assert norm_profile(make_modulus(M)).flagged == ()

    @pytest.mark.parametrize("M", [2, 3, 4, 6, 8, 9, 12, 15, 16, 18, 25, 27,
                                   33, 35, 45, 50, 63, 75, 100])
    def test_matches_per_pair_sweep(self, M):
        # all four cases, p = 2, prime M, s > 1 and t > 1; at an even M the
        # gap M/2 is its own mirror, and its pairs are stored once
        m = make_modulus(M)
        got, want = norm_profile(m), norm_profile_per_pair(m)
        assert got.rows == want.rows
        assert list(got.case_max.items()) == list(want.case_max.items())
        assert got.flagged == want.flagged

    @pytest.mark.parametrize("M", supported_upto(80) + [125, 143])
    def test_case_max_matches_per_pair_loop(self, M):
        # the maxima built per gap equal a per-pair pass over the rows,
        # first pair in (i, j) order winning, with the same key order
        prof = norm_profile(make_modulus(M))
        want: dict = {}
        for r in prof.rows:
            best = want.get(r.case)
            if best is None or r.norm > best[0]:
                want[r.case] = (r.norm, r.i, r.j)
        assert list(prof.case_max.items()) == list(want.items())

    @pytest.mark.parametrize("M", [35, 45, 125, 143])
    def test_gap_rows_are_constructed_inverses(self, M, monkeypatch):
        # each block's representatives are checked by one call at per-row
        # shifts: the starts of their chains at a prime radical (j = 0),
        # and the chains' ends, (L - 1) M' further on, at a two-prime one;
        # one row per representative, each once, a range of gaps where
        # every gap of the block is one (all of 35 and 143, M' = 1). Every
        # row is x^{-j} u(g, 0) as the construction returns it
        m = make_modulus(M)
        calls = []
        real = scaled_inverse.check_gap_block

        def spy(m, gaps, block, scale, bound, j=0):
            assert len(gaps) == block.shape[0]
            calls.append((gaps, np.broadcast_to(j, len(gaps)).tolist(),
                          block.tolist()))
            return real(m, gaps, block, scale, bound, j)

        monkeypatch.setattr(scaled_inverse, "check_gap_block", spy)
        norm_profile(m)
        monkeypatch.setattr(scaled_inverse, "check_gap_block", real)
        prime = isinstance(m.shape, PrimePower)
        assert [g for gaps, _, _ in calls for g in gaps] == \
            representatives(m)
        assert all(isinstance(gaps, range) for gaps, _, _ in calls) == (
            m.inflation == 1)
        if prime:
            assert all(j == 0 for _, js, _ in calls for j in js)
        else:
            end = (scaled_inverse._half_cycle(m.radical) - 1) * m.inflation
            for gaps, js, _ in calls:
                starts = scaled_inverse._chain_shifts(m, gaps)
                assert js == ((starts + end) % M).tolist()
        for gaps, js, rows in calls:
            for g, j, row in zip(gaps, js, rows):
                assert tuple(row) == rotated_inverse(g, j, m), (g, j)


class TestOneCheckPerPair:
    """check_gap_block is the only check of a constructed inverse: a sweep
    constructs and checks each representative g <= M/2 of an orbit of the
    units = 1 (mod rad) once, on the last rows its block computes (the
    start of its rotations at a prime radical, the end of its chain at a
    two-prime one), and reduces each of its subsequences once; at M' > 1
    every gap g <= M/2 is gathered from exactly one representative, its
    own, and the gaps above M/2 are read off their rotations. At M' = 1
    every gap is its own representative and nothing is gathered."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(scaled_inverse, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scaled_inverse, name, spy)
        return calls

    def test_sweep_checks_each_gap_once(self, monkeypatch):
        # M = 35: every gap in one block
        self._blocks_checked_once(monkeypatch, 35, 1)

    @pytest.mark.parametrize("M, blocks", [(143, 1), (1024, 32)])
    def test_sweep_checks_each_block_once(self, monkeypatch, M, blocks):
        self._blocks_checked_once(monkeypatch, M, blocks)

    def _blocks_checked_once(self, monkeypatch, M, blocks):
        # the sweep takes the gaps g <= M/2 in `blocks` blocks, one window
        # pass each; one construct and one check per block that holds a
        # representative: the check reads the block's representatives, one
        # row each, at the construct's shifts at a prime radical and at
        # the chain's end shifts, (L - 1) M' further on, at a two-prime
        # one; together they cover every representative once. At M' > 1
        # every gap h is gathered once, in one call per block, from the
        # held row of its own representative rep, at a unit v = 1 (mod rad)
        # with v h = rep
        checks = self._count(monkeypatch, "check_gap_block")
        builds = self._count(monkeypatch, "_construct")
        windows = self._count(monkeypatch, "_window_maxima")
        gathers = self._count(monkeypatch, "_gather_rows")
        m = make_modulus(M)
        norm_profile(m)
        end = 0 if isinstance(m.shape, PrimePower) else (
            (scaled_inverse._half_cycle(m.radical) - 1) * m.inflation)
        assert len(windows) == blocks
        assert len(builds) == len(checks) <= blocks
        gaps = []
        for (ks, j, _), (_, g, block, scale, bound, j_) in zip(builds, checks):
            assert g is ks
            assert np.array_equal((j + end) % M, j_)
            assert block.shape[0] == len(scale) == len(bound) == len(g)
            gaps += list(g)
        reps = representatives(m)
        assert gaps == reps
        gathered = []
        for _, slots, v, w in gathers:
            assert w == m.inflation and np.all(v % m.radical == 1)
            for k, vh in zip(slots.tolist(), v.tolist()):
                # slot k holds the k-th representative
                gathered.append((reps[k] * pow(vh, -1, M) % M, reps[k]))
        assert len(gathers) == (blocks if m.inflation > 1 else 0)
        if gathers:
            assert [h for h, _ in gathered] == list(range(1, M // 2 + 1))
        reps_of, _ = scaled_inverse._orbits(M, m.radical, M // 2)
        assert all(reps_of[h - 1] == r for h, r in gathered)

    def test_sweep_reduces_each_gap_once(self, monkeypatch):
        # M' = 1: one subsequence per gap, its whole row
        self._reductions_checked_once(monkeypatch, 35)

    @pytest.mark.parametrize("M", [45, 125])
    def test_sweep_reduces_each_window_rotation_once(self, monkeypatch, M):
        self._reductions_checked_once(monkeypatch, M)

    def _reductions_checked_once(self, monkeypatch, M):
        # every _reduce_rows call of a sweep is at the radical, on rows of
        # length rad: the M' subsequences of each representative g <= M/2
        # once (every gap at M' = 1), at the shift its chain starts from,
        # in order, and nothing at length M; each block's rotations then
        # take ceil(rad/2) exact steps at a two-prime radical, at most
        # ceil(rad/2) + 2, and none at a prime one (a closed form)
        reductions = self._count(monkeypatch, "_reduce_rows")
        steps = self._count(monkeypatch, "_next_rotation")
        m = make_modulus(M)
        norm_profile(m)
        w, rad = m.inflation, m.radical
        assert all(mod.M == rad and V.shape[1] == rad
                   for V, mod in reductions)
        want = np.concatenate([
            scaled_inverse._construct(
                gap, scaled_inverse._chain_shifts(m, gap), m)[1][0]
            .reshape(rad, w).T
            for gap in (range(g, g + 1) for g in representatives(m))])
        assert np.array_equal(np.concatenate([V for V, _ in reductions]),
                              want)
        chains = 0 if isinstance(m.shape, PrimePower) else len(reductions)
        half = -(-rad // 2)
        assert [rho for _, rho, _ in steps] == list(range(half)) * chains
        assert len(steps) <= (half + 2) * chains

    def test_construct_checks_once(self, monkeypatch):
        checks = self._count(monkeypatch, "check_gap_block")
        reductions = self._count(monkeypatch, "_reduce_rows")
        builds = self._count(monkeypatch, "_construct")
        m = make_modulus(35)
        si = construct_scaled_inverse(9, 2, m)
        assert len(checks) == 1 and len(reductions) == 1
        # one range of one gap at j, the same block shape for both
        assert [args[:2] for args in builds] == [(range(7, 8), 2)]
        m_, gaps, block, scale, bound, j = checks[0]
        assert (gaps, j, scale, bound) == (range(7, 8), 2, si.scale, si.bound)
        assert tuple(block[0].tolist()) == si.u.coeffs


class TestRadicalSweep:
    """norm_profile reduces at the radical; the block oracle reduces every
    rotation at full length M, as the library did before."""

    @pytest.mark.parametrize("M", supported_upto(150) + [243, 256])
    def test_matches_block_oracle(self, M):
        m = make_modulus(M)
        got, want = norm_profile(m), norm_profile_blocks(m)
        assert got.rows == want.rows
        assert list(got.case_max.items()) == list(want.case_max.items())
        assert got.flagged == want.flagged == ()

    @pytest.mark.parametrize("M", [363, 675, 1024])
    def test_seeded_pairs_match_construct(self, M):
        m = make_modulus(M)
        gaps = norm_profile(m).gaps
        rng = random.Random(M)
        for _ in range(2000):
            j, i = sorted(rng.sample(range(M), 2))
            si = construct_scaled_inverse(i, j, m)
            scale, case, norms = gaps[i - j - 1]
            assert (scale, case, int(norms[j])) == (si.scale, si.case,
                                                    si.norm), (i, j)

    @pytest.mark.parametrize("M", [1024, 2057, 2187])
    def test_seeded_mirrored_pairs_match_construct(self, M):
        # the gaps above M/2 are read off the rotations of u(M - g, 0),
        # never constructed by the sweep: each seeded pair against its own
        # construct
        m = make_modulus(M)
        gaps = norm_profile(m).gaps
        rng = random.Random(M)
        for _ in range(300):
            g = rng.randrange(M // 2 + 1, M)
            j = rng.randrange(M - g)
            si = construct_scaled_inverse(j + g, j, m)
            scale, case, norms = gaps[g - 1]
            assert (scale, case, int(norms[j])) == (si.scale, si.case,
                                                    si.norm), (j + g, j)

    def test_wide_bound_storage(self):
        # M = 514 = 2 257, the smallest M whose bounds p - 1 = 1 and
        # q - 1 = 256 need different minimal dtypes: every gap's norms are
        # uint16, and gaps g and M - g are the two parts of one row of the
        # sweep's one array
        M = 514
        m = make_modulus(M)
        got, want = norm_profile(m), norm_profile_blocks(m)
        assert got.rows == want.rows
        assert list(got.case_max.items()) == list(want.case_max.items())
        assert {norms.dtype for _, _, norms in got.gaps} == {
            np.dtype(np.uint16)}
        base = got.gaps[0][2].base
        assert base.shape == (M // 2, M)
        for g in range(1, M // 2):
            low, high = got.gaps[g - 1][2], got.gaps[M - g - 1][2]
            assert low.base is base and high.base is base
            assert high.ctypes.data == low.ctypes.data + low.nbytes

    def test_rows_built_when_read(self):
        prof = norm_profile(make_modulus(35))
        assert [len(norms) for _, _, norms in prof.gaps] == \
            list(range(34, 0, -1))
        assert all(not norms.flags.writeable for _, _, norms in prof.gaps)
        rows = prof.rows
        assert rows == prof.rows and rows is not prof.rows
        assert all(type(r.norm) is int for r in rows)

    @pytest.mark.parametrize("M", [35, 45, 125])
    def test_python_int_path(self, M, monkeypatch):
        # rows that fail the int64 bound run on Python ints, with equal
        # norms: the chain of rotations steps on object rows at a two-prime
        # radical (35, 45), and the closed form at a prime one (125) takes
        # no step and holds its rows as Python ints too
        m = make_modulus(M)
        want = norm_profile(m).rows
        reduce_rows, rotation_norms, dtypes = (
            scaled_inverse._reduce_rows, scaled_inverse._rotation_norms, [])

        def norms_of_rotations(R0, rad_m):
            A, last = rotation_norms(R0, rad_m)
            dtypes.append(A.dtype)
            return A, last

        monkeypatch.setattr(scaled_inverse, "_as_rows",
                            lambda V, m, headroom=1: np.asarray(V, dtype=object))
        monkeypatch.setattr(scaled_inverse, "_reduce_rows",
                            lambda V, m: reduce_rows(V, m).astype(object))
        monkeypatch.setattr(scaled_inverse, "_chain_dtype",
                            lambda bound: np.dtype(object))
        monkeypatch.setattr(scaled_inverse, "_rotation_norms",
                            norms_of_rotations)
        steps = TestOneCheckPerPair._count(monkeypatch, "_next_rotation")
        assert norm_profile(m).rows == want
        assert dtypes and set(dtypes) == {np.dtype(object)}
        assert {B.dtype for B, _, _ in steps} == (
            set() if isinstance(m.shape, PrimePower) else {np.dtype(object)})

    # (M, row, gap): the sweeps of M = 15 (M' = 1) and 45 (M' = 3) take one
    # block, whose row r M' + b is subsequence b of gap r + 1: row 1 of 15
    # and row 4 of 45 (b = 1) both belong to gap 2
    @pytest.mark.parametrize("M, row, gap", [(15, 1, 2), (45, 4, 2)])
    @pytest.mark.parametrize("stage", ["_reduce_rows", "_next_rotation"])
    def test_rotation_off_by_one_is_caught(self, M, row, gap, stage,
                                           monkeypatch):
        # one entry of the reduced subsequences, or of one step of the
        # chain (the step from rho = 3 to 4, in place): either is caught by
        # the block's one check, on the chain's last rotation, which names
        # M and the gap's pair at its end shift j + (L - 1) M'
        real = getattr(scaled_inverse, stage)

        def off_by_one(*args):
            if stage == "_reduce_rows":
                out = real(*args).copy()
                out[row, 0] += 1
                return out
            B, rho, _ = args
            real(*args)
            if rho == 3:
                B[row, rho + 1] += 1

        monkeypatch.setattr(scaled_inverse, stage, off_by_one)
        m = make_modulus(M)
        j = self._end_shift(m, gap)
        with pytest.raises(AssertionError,
                           match=rf"^batched check failed: .* for M={M}, "
                                 rf"\(i, j\)=\({(j + gap) % M}, {j}\)$"):
            norm_profile(m)

    @staticmethod
    def _end_shift(m, gap):
        # the shift of gap's row in the block's one check: its chain's
        # start j_g at a prime radical (0), j_g + (L - 1) M' at a two-prime
        [j] = scaled_inverse._chain_shifts(m, range(gap, gap + 1)).tolist()
        if isinstance(m.shape, PrimePower):
            return j
        steps = scaled_inverse._half_cycle(m.radical) - 1
        return (j + steps * m.inflation) % m.M

    def test_prime_power_wrong_start_is_caught(self, monkeypatch):
        # M = 25 (rad 5, M' = 5) has no chain: row 6 of its one block is
        # subsequence 1 of gap 2, and the block's check, on R0 itself,
        # names the start pair (2, 0)
        real = scaled_inverse._reduce_rows

        def off_by_one(*args):
            out = real(*args).copy()
            out[6, 0] += 1
            return out

        monkeypatch.setattr(scaled_inverse, "_reduce_rows", off_by_one)
        with pytest.raises(AssertionError,
                           match=r"^batched check failed: .* for M=25, "
                                 r"\(i, j\)=\(2, 0\)$"):
            norm_profile(make_modulus(25))

    @pytest.mark.parametrize("M", two_prime_upto(199))
    def test_seeded_wrong_start_is_caught(self, M, monkeypatch):
        # one seeded wrong entry of R0, at any row and column of the first
        # block, is caught by the check of the chain's last rotation alone:
        # it names M and the pair of that row's gap at its end shift. The
        # block's rows are the representatives' subsequences, M' a gap
        m = make_modulus(M)
        rng = random.Random(M)
        real, hit = scaled_inverse._reduce_rows, []
        step = max(1, cyclotomic._UNIT_BLOCK // 16 // M)
        first = representatives(m, min(step, M // 2))

        def wrong_entry(*args):
            out = real(*args)
            if not hit:
                out = out.copy()
                row, col = (rng.randrange(n) for n in out.shape)
                out[row, col] += rng.choice((-1, 1)) * rng.randint(1, 3)
                hit.append(first[row // m.inflation])
            return out

        monkeypatch.setattr(scaled_inverse, "_reduce_rows", wrong_entry)
        match = rf"^batched check failed: .* for M={M}, "
        with pytest.raises(AssertionError, match=match) as err:
            norm_profile(m)
        [gap] = hit
        j = self._end_shift(m, gap)
        assert str(err.value).endswith(f"(i, j)=({(j + gap) % M}, {j})")

    @staticmethod
    def _sweep_names_rotation(monkeypatch, M, g, bound, top, pair, in_arc):
        # gap g's bound lowered to the larger norm of its chain's start and
        # end rows, so the end passes the block's check_gap_block and the
        # start the sweep's bound check; the pair's rotation t = c,
        # the column of W it sits in, lies inside the chain's arc
        # [j_g, j_g + (L - 1) M'] or is read off the mirror, and the sweep's
        # own bound check must name it
        real = scaled_inverse._construct

        def lowered(gaps, j, m):
            table, acc = real(gaps, j, m)
            if g in gaps:
                case, scale, _ = table[g - gaps.start]
                table[g - gaps.start] = (case, scale, bound)
            return table, acc

        m = make_modulus(M)
        i, j = pair
        c = j if i - j == g else i
        [start] = scaled_inverse._chain_shifts(m, range(g, g + 1)).tolist()
        span = (scaled_inverse._half_cycle(m.radical) - 1) * m.inflation
        assert ((c - start) % M <= span) == in_arc
        monkeypatch.setattr(scaled_inverse, "_construct", lowered)
        with pytest.raises(AssertionError,
                           match=rf"^sweep check failed: norm {top} > "
                                 rf"bound {bound} for M={M}, "
                                 rf"\(i, j\)=\({i}, {j}\)$"):
            norm_profile(m)

    def test_rotation_above_bound_is_caught(self, monkeypatch):
        # at M = 35 gap 14's chain starts at shift 34 and ends at 17, both
        # rows of norm at most 3; the rotation at shift 3, in the middle of
        # the arc, has norm 4, the pair (17, 3)
        self._sweep_names_rotation(monkeypatch, 35, 14, 3, 4, (17, 3),
                                   in_arc=True)

    # (M, g, bound, top, i, j): rotations read off the mirror, above gap
    # g's bound lowered to its start and end rows' norm; the pair (i, j) is
    # of gap g (c < M - g) at 35, 77 and 143, and of gap M - g after them
    @pytest.mark.parametrize("M, g, bound, top, i, j", [
        (35, 8, 1, 2, 9, 1), (77, 4, 2, 3, 9, 5), (143, 15, 1, 3, 16, 1),
        (35, 12, 2, 3, 23, 0), (77, 31, 2, 3, 46, 0)])
    def test_rotation_off_mirror_above_bound_is_caught(self, M, g, bound, top,
                                                       i, j, monkeypatch):
        self._sweep_names_rotation(monkeypatch, M, g, bound, top, (i, j),
                                   in_arc=False)

    # (M, g, j'): the column M - g + j' of gap g's row is the pair
    # (j' + M - g, j') of gap M - g; 143 = 11 13 in the gap 13 of
    # Q_DIVIDES_SHIFT, 1024 in its last block, and 100 at g = M/2
    @pytest.mark.parametrize("M, g, jp", [(35, 3, 1), (143, 13, 12),
                                          (1024, 500, 7), (100, 50, 49)])
    def test_mirrored_pair_above_bound_is_caught(self, M, g, jp,
                                                 monkeypatch):
        # the window norm at c = M - g + j' of gap g is the largest of
        # N_g[c .. c + M' - 1], and N_g is the row of g's representative r
        # read at v t (v g = r mod M): a spike at N_r[v c] reaches it. The
        # sweep's one bound check, on the representative's own row, names
        # the first pair of r's row whose window reads the spike, which is
        # (j' + M - g, j') itself at M' = 1 (35 and 143), where every gap
        # represents its orbit; gap 500 of 1024 is gathered from gap 4, and
        # 50 of 100 is its own representative
        m = make_modulus(M)
        w = m.inflation
        reps, v = scaled_inverse._orbits(M, m.radical, M // 2)
        r, t = int(reps[g - 1]), int(v[g - 1]) * (M - g + jp) % M
        bound = scaled_inverse._case(math.gcd(g, M), m)[3]
        real = scaled_inverse._norm_rows

        def spiked(m, rad_m, gaps, table, acc, j):
            N = real(m, rad_m, gaps, table, acc, j)
            gaps = list(map(int, gaps))
            if r in gaps:
                N[gaps.index(r), t] = bound + 1
            return N

        monkeypatch.setattr(scaled_inverse, "_norm_rows", spiked)
        i, j = min((c + r, c) if c < M - r else (c, c - M + r)
                   for c in range(M) if (t - c) % M < w)
        assert ((i, j) == (jp + M - g, jp)) == (w == 1)
        assert (r == g) == (M != 1024)
        with pytest.raises(AssertionError,
                           match=rf"^sweep check failed: norm {bound + 1} > "
                                 rf"bound {bound} for M={M}, "
                                 rf"\(i, j\)=\({i}, {j}\)$"):
            norm_profile(m)


class TestRotationOracle:
    """The rotations of a sweep block, by the closed form at a prime
    radical and the in-place chain at a two-prime one, against the former
    chain (rotation_walk, through norm_rows_by_division), which copies
    every row at each step on int64 or Python ints."""

    @staticmethod
    def _growth(rad_m):
        # the written bound on |R_rho| / max|R0| that picks the dtype
        sh = rad_m.shape
        return 2 if isinstance(sh, PrimePower) else 2 * sh.p

    @pytest.mark.parametrize("M", supported_upto(199))
    def test_profile_matches_former_chain(self, M, monkeypatch):
        m = make_modulus(M)
        got, peaks = norm_profile(m), []
        monkeypatch.setattr(
            scaled_inverse, "_norm_rows",
            lambda *args: norm_rows_by_division(*args, peaks=peaks))
        want = norm_profile(m)
        assert len(got.gaps) == len(want.gaps) == M - 1
        for (scale, case, norms), (scale_, case_, norms_) in zip(got.gaps,
                                                                 want.gaps):
            assert (scale, case, norms.dtype) == (scale_, case_, norms_.dtype)
            assert np.array_equal(norms, norms_)
        assert list(got.case_max.items()) == list(want.case_max.items())
        grow = self._growth(make_modulus(m.radical))
        assert peaks and all(peak <= grow * big for peak, big in peaks)

    # (M, first gap): one sweep block of 8 gaps, holding gap q^t = 59 of
    # 1003 = 17 59 (Q_DIVIDES_SHIFT), p^s = 121 of 2057 = 11^2 17
    # (P_DIVIDES_SHIFT) and 3^6 of 2187
    @pytest.mark.parametrize("M, lo", [(1003, 56), (1021, 1), (2057, 119),
                                       (2187, 725)])
    def test_block_matches_former_chain(self, M, lo):
        m = make_modulus(M)
        rad_m, block, peaks = make_modulus(m.radical), range(lo, lo + 8), []
        j = scaled_inverse._chain_shifts(m, block)
        table, acc = scaled_inverse._construct(block, j, m)
        got = scaled_inverse._norm_rows(m, rad_m, block, table, acc.copy(),
                                        j)
        want = norm_rows_by_division(m, rad_m, block, table, acc, j, peaks)
        assert np.array_equal(got, want)
        [(peak, big)] = peaks
        assert peak <= self._growth(rad_m) * big

    def test_dtype_edges(self):
        assert scaled_inverse._chain_dtype(127) == np.int8
        assert scaled_inverse._chain_dtype(128) == np.int16
        assert scaled_inverse._chain_dtype(2 ** 63 - 1) == np.int64
        assert scaled_inverse._chain_dtype(2 ** 63) == object

    # rows of entries +-big, big one past the largest entry of a dtype: the
    # rule's dtype holds every rotation, and one size narrower would wrap
    @pytest.mark.parametrize("big", [1, 128, 2 ** 15, 2 ** 31, 2 ** 62])
    @pytest.mark.parametrize("rad", [7, 15, 143])
    def test_rotations_of_any_rows(self, rad, big):
        rad_m = make_modulus(rad)
        rng = random.Random(rad * big)
        R0 = np.array([[rng.choice((-big, -1, 0, 1, big))
                        for _ in range(rad_m.phi)] for _ in range(6)],
                      dtype=np.int64)
        # +-big in every row, as the dtype is read from max|R0|
        R0[np.arange(6), [rng.randrange(rad_m.phi) for _ in range(6)]] = [
            rng.choice((-big, big)) for _ in range(6)]
        # every rotation at a prime radical, the first L at a two-prime
        # one, whose last is the walk's rows after L - 1 steps
        A, last = scaled_inverse._rotation_norms(R0, rad_m)
        want, R = rotation_walk(R0, rad_m)
        assert np.array_equal(R, R0)
        assert A.dtype == scaled_inverse._chain_dtype(
            self._growth(rad_m) * big)
        if isinstance(rad_m.shape, PrimePower):
            assert A.tolist() == want.tolist() and last is None
        else:
            L = scaled_inverse._half_cycle(rad)
            assert A.tolist() == want[:L].tolist()
            _, R = rotation_walk(R0, rad_m, L - 1)
            assert last.tolist() == R.tolist()


class TestHalfCycle:
    """At a two-prime radical norm_profile walks L = ceil(rad/2) + 1
    rotations of each gap from its own start shift and reads the others
    off the mirror N_g[t] = N_g[c0 + M' - 1 - t]: against the full cycle of
    the former chain (rotation_walk, through norm_rows_by_division) and
    against the block oracle, which reduces every rotation at length M."""

    TWO_PRIME = two_prime_upto(199)

    def test_covers_even_and_inflated_moduli(self):
        # even M, where the mirror need not have a fixed point, and M' > 1
        assert {18, 20, 28, 50, 98, 45, 63, 75, 99, 147, 175} <= \
            set(self.TWO_PRIME)

    @pytest.mark.parametrize("M", TWO_PRIME + [1007, 2057])
    def test_matches_full_cycle_and_blocks(self, M, monkeypatch):
        m = make_modulus(M)
        got = norm_profile(m)
        if M < 200:
            want = norm_profile_blocks(m)
            assert got.rows == want.rows
            assert list(got.case_max.items()) == list(want.case_max.items())
        monkeypatch.setattr(scaled_inverse, "_norm_rows",
                            norm_rows_by_division)
        want = norm_profile(m)
        for (scale, case, norms), (scale_, case_, norms_) in zip(got.gaps,
                                                                 want.gaps):
            assert (scale, case, norms.dtype) == (scale_, case_, norms_.dtype)
            assert np.array_equal(norms, norms_)
        assert list(got.case_max.items()) == list(want.case_max.items())

    @pytest.mark.parametrize("M", [6, 18, 20, 35, 45, 98, 143])
    def test_arc_and_mirror_cover_the_cycle(self, M):
        # the chain's arc [j, j + L M') and its mirror cover Z_M for every
        # gap, with j a multiple of M'
        m = make_modulus(M)
        w, phi = m.inflation, m.phi
        span = scaled_inverse._half_cycle(m.radical) * w
        shifts = scaled_inverse._chain_shifts(m, range(1, M // 2 + 1))
        for g, j in enumerate(shifts.tolist(), start=1):
            assert j % w == 0
            arc = {(j + k) % M for k in range(span)}
            c0 = -(phi - 1 + g) % M
            assert arc | {(c0 + w - 1 - t) % M for t in arc} == set(range(M))


def inflated_upto(limit):
    return [M for M in supported_upto(limit) if make_modulus(M).inflation > 1]


def sweep_rows(m, gaps):
    """The rotation-norm rows of a block of gaps, each constructed at its
    chain's shift, reduced and checked (_norm_rows)."""
    j = scaled_inverse._chain_shifts(m, gaps)
    table, acc = scaled_inverse._construct(gaps, j, m)
    return scaled_inverse._norm_rows(m, make_modulus(m.radical), gaps, table,
                                     acc, j)


class TestOrbitSweep:
    """norm_profile constructs one representative per orbit of the units
    a = 1 (mod rad) and gathers every other gap's rotation-norm row from
    it (_gather_rows): against the former sweep, which constructs, reduces
    and checks every gap g <= M/2 (oracles.norm_profile_per_gap)."""

    @pytest.mark.parametrize(
        "M", inflated_upto(299) + [1125, 2057, 2187, 3888, 8192])
    def test_matches_per_gap_sweep(self, M):
        m = make_modulus(M)
        got, want = norm_profile(m), norm_profile_per_gap(m)
        assert len(got.gaps) == len(want.gaps) == M - 1
        for (scale, case, norms), (scale_, case_, norms_) in zip(got.gaps,
                                                                 want.gaps):
            assert (scale, case, norms.dtype) == (scale_, case_, norms_.dtype)
            assert np.array_equal(norms, norms_)
        assert list(got.case_max.items()) == list(want.case_max.items())

    def test_representatives_match_brute_force_orbits(self):
        # rep(h) = h mod gcd(h rad, M) is the least gap of h's orbit under
        # U1 = {a : a = 1 (mod rad), gcd(a, M) = 1}, at every M < 400, and
        # v is a unit of U1 that takes h to it, 1 for a representative
        for M in range(2, 400):
            rad = math.prod(p for p in range(2, M + 1)
                            if M % p == 0 and all(p % d for d in range(2, p)))
            units = [a for a in range(1, M)
                     if a % rad == 1 % rad and math.gcd(a, M) == 1]
            assert len(units) == M // rad
            reps, v = scaled_inverse._orbits(M, rad, M // 2)
            for h in range(1, M // 2 + 1):
                orbit = {a * h % M for a in units}
                assert reps[h - 1] == min(orbit) <= M // 2, (M, h)
                assert v[h - 1] in units, (M, h)
                assert v[h - 1] * h % M == reps[h - 1], (M, h)
                assert v[h - 1] == 1 or reps[h - 1] != h, (M, h)

    @pytest.mark.parametrize("M", [125, 1125, 2057])
    def test_gathered_rows_match_construct(self, M):
        # every gap h <= M/2 that is not a representative: its row gathered
        # from its representative's against its own construct, reduction,
        # check and rotations, row by row
        m = make_modulus(M)
        half, w = M // 2, m.inflation
        rows = [sweep_rows(m, range(lo, min(half + 1, lo + 64)))
                for lo in range(1, half + 1, 64)]
        rows = np.concatenate([r.astype(np.int64) for r in rows])
        reps, v = scaled_inverse._orbits(M, m.radical, half)
        own = reps == np.arange(1, half + 1)
        slot = np.cumsum(own) - 1
        held = np.tile(rows[own], 2)
        others = np.flatnonzero(~own)
        assert len(others) > len(np.flatnonzero(own))
        got = scaled_inverse._gather_rows(held, slot[reps[others] - 1],
                                          v[others], w)
        for h, row, want in zip((others + 1).tolist(), got, rows[others]):
            assert np.array_equal(row, want), h

    @pytest.mark.parametrize("M", [45, 125, 1125, 2187, 3888])
    def test_seeded_wrong_representative_entry_fails_check(self, M,
                                                           monkeypatch):
        # one seeded wrong entry of one representative's R0, in any block
        # of the sweep, fails that block's check, which names the gap's
        # pair at its end shift (its start at a prime radical)
        m = make_modulus(M)
        rng = random.Random(M)
        step = max(1, cyclotomic._UNIT_BLOCK // 16 // M)
        blocks = [b for b in (
            [g for g in representatives(m) if lo <= g < lo + step]
            for lo in range(1, M // 2 + 1, step)) if b]
        target = rng.randrange(len(blocks))
        real, calls, hit = scaled_inverse._reduce_rows, [], []

        def wrong_entry(*args):
            out = real(*args)
            if len(calls) == target:
                out = out.copy()
                row, col = (rng.randrange(n) for n in out.shape)
                out[row, col] += rng.choice((-1, 1))
                hit.append(blocks[target][row // m.inflation])
            calls.append(out.shape)
            return out

        monkeypatch.setattr(scaled_inverse, "_reduce_rows", wrong_entry)
        with pytest.raises(AssertionError,
                           match=rf"^batched check failed: .* for M={M}, "
                           ) as err:
            norm_profile(m)
        [gap] = hit
        j = TestRadicalSweep._end_shift(m, gap)
        assert str(err.value).endswith(f"(i, j)=({(j + gap) % M}, {j})")
        assert len(calls) == target + 1

    def test_first_pair_ties_between_parts(self):
        # M = 10, gaps 3 and 4: column c of gap g's row is the pair
        # (c + g, c) for c < M - g and (c, c - M + g) after it. Gap 3's
        # largest norm is at (8, 5) (c = 5) and (8, 1) (c = 8), and (8, 1)
        # comes first; gap 4's at (6, 2) (c = 2) and (7, 1) (c = 7), and
        # (6, 2) comes first
        M, MM = 10, 100
        W = np.ones((2, M), dtype=np.uint8)
        W[0, [5, 8]] = 3
        W[1, [2, 7]] = 3
        keys = scaled_inverse._first_pairs(W, 3, M).tolist()
        assert [key // MM for key in keys] == [3, 3]
        assert [divmod(MM - 1 - key % MM, M) for key in keys] == [(8, 1),
                                                                  (6, 2)]

    @pytest.mark.parametrize("M, lo, n", [(10, 1, 5), (35, 1, 17), (36, 9, 10),
                                          (125, 30, 7), (143, 1, 71)])
    def test_first_pairs_match_pair_order(self, M, lo, n):
        # rows of norms 1..3, full of ties within and across parts: each
        # row's key against the first pair in `for i: for j < i` order to
        # reach its largest norm
        rng = np.random.default_rng(M * lo)
        W = rng.integers(1, 4, (n, M)).astype(np.uint8)
        keys = scaled_inverse._first_pairs(W, lo, M).tolist()
        for r, key in enumerate(keys):
            g = lo + r
            pairs = [((c + g, c) if c < M - g else (c, c - M + g), int(x))
                     for c, x in enumerate(W[r])]
            top = max(x for _, x in pairs)
            i, j = min(pair for pair, x in pairs if x == top)
            assert key == top * M * M + M * M - 1 - (i * M + j), (M, g)

    @pytest.mark.parametrize("M, w", [(6, 1), (8, 2), (12, 3), (50, 5),
                                      (125, 25), (96, 48), (1024, 512),
                                      (2057, 11)])
    def test_window_maxima(self, M, w):
        rng = np.random.default_rng(M)
        N = rng.integers(0, 50, (3, M)).astype(np.int16)
        want = [[max(N[r, (c + k) % M] for k in range(w)) for c in range(M)]
                for r in range(3)]
        assert scaled_inverse._window_maxima(N, w).tolist() == want
        assert window_maxima_by_blocks(N, w).tolist() == want


class TestMirrorLemma:
    """The identity the half cycle rests on, checked apart from the sweep:
    with u = u(g, 0) and c0 = -(phi - 1 + g) mod M, the coefficients of
    x^{-j} u mod Phi_M reversed are those of -(x^{-(c0 - j)} u mod Phi_M),
    for every gap g and shift j. x -> x^{-1} is a ring automorphism, which
    sends u to -x^g u, as an element has one inverse at a given scale."""

    @pytest.mark.parametrize("M", [4, 7, 8, 9, 12, 15, 18, 20, 21, 25, 27,
                                   28, 35, 45])
    def test_reversed_rotation(self, M):
        m = make_modulus(M)
        for g in range(1, M):
            u = construct_scaled_inverse(g, 0, m).u
            rot = [ring_mul(monomial_reduce(-j, m), u).coeffs
                   for j in range(M)]
            c0 = -(m.phi - 1 + g) % M
            for j in range(M):
                mirror = tuple(-c for c in rot[(c0 - j) % M])
                assert rot[j][::-1] == mirror, (g, j)


class TestSweepCeiling:
    # moduli the tests and the bench sweep, at their largest
    SWEPT = (35, 63, 91, 121, 125, 143, 149, 243, 256, 363, 675, 1024, 2187)

    def test_swept_moduli_below_ceiling(self):
        for M in self.SWEPT:
            assert sweep_cost(M, make_modulus(M).radical) <= MAX_SWEEP_COST, M

    def test_refused_before_allocating(self, monkeypatch):
        m = make_modulus(1147)   # 31 * 37, squarefree: 1147^3 > 2^30
        assert sweep_cost(1147, 1147) > MAX_SWEEP_COST

        def allocate(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("zeros", "empty", "stack", "concatenate", "tile"):
            monkeypatch.setattr(np, name, allocate)
        monkeypatch.setattr(scaled_inverse, "_construct", allocate)
        with pytest.raises(SweepTooLarge, match="1147.*ceiling 1073741824"):
            norm_profile(m)
        with pytest.raises(SweepTooLarge):
            run_verify(1147, "theorems")


class TestScaleMinimalityCheck:
    @pytest.mark.parametrize("M", [63, 121])
    def test_passes(self, M):
        checks = {c.name: c for c in run_verify(M, "theorems", 100)
                  .suites[0].checks}
        assert checks["scale_minimality"].passed

    def test_doubled_scale_fails(self, monkeypatch):
        real = scaled_inverse.construct_scaled_inverse

        def doubled(i, j, m):
            si = real(i, j, m)
            return dataclasses.replace(si, u=2 * si.u, scale=2 * si.scale)

        monkeypatch.setattr(scaled_inverse, "construct_scaled_inverse",
                            doubled)
        checks = {c.name: c for c in run_verify(35, "theorems", 100)
                  .suites[0].checks}
        check = checks["scale_minimality"]
        assert not check.passed
        assert check.witness == ("(i,j)=(1,0): constructed scale 2, "
                                 "minimal scale 1")


class TestCheckGapBlock:
    """check_gap_block on a range of consecutive gaps at a nonzero j, the
    block shape of a single construct, with a scale and a bound per row."""

    M, J, GAPS = 15, 4, range(1, 11)   # pairs (5, 4) .. (14, 4)

    def _block(self):
        # reduced inverses of x^(J+g) - x^J, built pair by pair: gaps 3, 6
        # and 9 have scale 5, gaps 5 and 10 scale 3, the rest scale 1
        m = make_modulus(self.M)
        sis = [construct_scaled_inverse(self.J + g, self.J, m)
               for g in self.GAPS]
        block = np.array([si.u.coeffs for si in sis], dtype=np.int64)
        return (m, block, np.array([si.scale for si in sis]),
                np.array([si.bound for si in sis]))

    def test_accepts_true_block(self):
        m, block, scales, bounds = self._block()
        assert set(scales.tolist()) == {1, 3, 5}
        norms = check_gap_block(m, self.GAPS, block, scales, bounds, self.J)
        assert norms.tolist() == [int(np.abs(r).max()) for r in block]

    def test_rejects_one_coefficient_off_by_one(self):
        m, block, scales, bounds = self._block()
        block[5, 3] += 1
        with pytest.raises(AssertionError,
                           match=r"!= 5 for M=15, \(i, j\)=\(10, 4\)$"):
            check_gap_block(m, self.GAPS, block, scales, bounds, self.J)

    @pytest.mark.parametrize("big", [2 ** 62, 10 ** 30])
    def test_rejects_coefficient_too_large_for_int64(self, big):
        # the product of such a row would overflow int64; the check must
        # switch to exact Python ints and still name the pair
        m, block, scales, bounds = self._block()
        rows = block if big < 2 ** 63 else block.astype(object)
        rows[5, 3] += big
        with pytest.raises(AssertionError,
                           match=r"!= 5 for M=15, \(i, j\)=\(10, 4\)$"):
            check_gap_block(m, self.GAPS, rows, scales, bounds, self.J)

    def test_rejects_norm_above_bound(self):
        m, block, scales, bounds = self._block()
        norms = np.abs(block).max(axis=1)
        r, low = int(np.argmax(norms)), int(norms.max()) - 1
        with pytest.raises(AssertionError,
                           match=rf"> bound {low} for M=15, "
                                 rf"\(i, j\)=\({self.J + self.GAPS[r]}, 4\)$"):
            check_gap_block(m, self.GAPS, block, scales, low, self.J)

    def test_offset_block(self):
        # rows 3 .. of the block are the gaps 4 .. 10 at J; a failure names
        # the absolute pair
        m, block, scales, bounds = self._block()
        tail = block[3:].copy()
        gaps = range(4, 11)
        norms = check_gap_block(m, gaps, tail, scales[3:], bounds[3:], self.J)
        assert norms.tolist() == [int(np.abs(r).max()) for r in tail]
        with pytest.raises(AssertionError,
                           match=r"!= 1 for M=15, \(i, j\)=\(8, 4\)$"):
            check_gap_block(m, gaps, block[:-3], scales[3:], bounds[3:],
                            self.J)
        tail[2, 3] += 1
        with pytest.raises(AssertionError,
                           match=r"!= 5 for M=15, \(i, j\)=\(10, 4\)$"):
            check_gap_block(m, gaps, tail, scales[3:], bounds[3:], self.J)


class TestPerRowShift:
    """_construct and check_gap_block with one shift per row, the block
    shape of a sweep's chain starts and ends: row r is x^{-j_r} u(g, 0),
    the pair ((j_r + g) mod M, j_r), of gap M - g when j_r + g >= M."""

    M, GAPS, JS = 45, range(7, 13), [0, 44, 3, 30, 38, 41]

    def _block(self):
        m = make_modulus(self.M)
        js = np.array(self.JS)
        table, acc = scaled_inverse._construct(self.GAPS, js, m)
        _, scales, bounds = zip(*table)
        return (m, js, scaled_inverse._reduce_rows(acc, m), np.array(scales),
                np.array(bounds))

    def test_rows_are_rotated_inverses(self):
        m, js, U, scales, bounds = self._block()
        for g, j, row in zip(self.GAPS, self.JS, U):
            assert tuple(row.tolist()) == rotated_inverse(g, j, m), (g, j)
        norms = check_gap_block(m, self.GAPS, U, scales, bounds, js)
        assert norms.tolist() == [int(np.abs(r).max()) for r in U]

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_corrupted_row_names_its_own_pair(self, r):
        # row 1 is gap 8 at 44 and row 4 gap 11 at 38, both past M - g: the
        # pairs (7, 44) and (4, 38); row 2 is gap 9 at 3, the pair (12, 3)
        m, js, U, scales, bounds = self._block()
        U[r, 5] += 1
        g, j = self.GAPS[r], self.JS[r]
        with pytest.raises(AssertionError,
                           match=rf"!= {scales[r]} for M=45, "
                                 rf"\(i, j\)=\({(j + g) % 45}, {j}\)$"):
            check_gap_block(m, self.GAPS, U, scales, bounds, js)

    def test_norm_above_bound_names_its_own_pair(self):
        m, js, U, scales, bounds = self._block()
        norms = np.abs(U).max(axis=1)
        r = int(np.argmax(norms))
        low = int(norms[r]) - 1
        g, j = self.GAPS[r], self.JS[r]
        with pytest.raises(AssertionError,
                           match=rf"> bound {low} for M=45, "
                                 rf"\(i, j\)=\({(j + g) % 45}, {j}\)$"):
            check_gap_block(m, self.GAPS, U, scales, low, js)


class TestGapArray:
    """_construct and check_gap_block on an array of gaps, one per row and
    not consecutive, the block shape of a sweep's representatives."""

    M, GAPS, JS = 45, np.array([3, 8, 9, 20, 33]), [0, 44, 3, 30, 17]

    def _block(self):
        m = make_modulus(self.M)
        js = np.array(self.JS)
        table, acc = scaled_inverse._construct(self.GAPS, js, m)
        _, scales, bounds = zip(*table)
        return (m, js, scaled_inverse._reduce_rows(acc, m), np.array(scales),
                np.array(bounds))

    def test_rows_are_rotated_inverses(self):
        m, js, U, scales, bounds = self._block()
        for g, j, row in zip(self.GAPS.tolist(), self.JS, U):
            assert tuple(row.tolist()) == rotated_inverse(g, j, m), (g, j)
        norms = check_gap_block(m, self.GAPS, U, scales, bounds, js)
        assert norms.tolist() == [int(np.abs(r).max()) for r in U]

    @pytest.mark.parametrize("r", [0, 1, 3, 4])
    def test_corrupted_row_names_its_own_pair(self, r):
        m, js, U, scales, bounds = self._block()
        U[r, 7] -= 1
        g, j = int(self.GAPS[r]), self.JS[r]
        with pytest.raises(AssertionError,
                           match=rf"!= {scales[r]} for M=45, "
                                 rf"\(i, j\)=\({(j + g) % 45}, {j}\)$"):
            check_gap_block(m, self.GAPS, U, scales, bounds, js)

    def test_gaps_must_match_rows(self):
        m, js, U, scales, bounds = self._block()
        with pytest.raises(ValueError, match="an array of 5 gaps"):
            check_gap_block(m, self.GAPS[:4], U, scales, bounds, js)


def point_pairs(M):
    """The (i, j) pairs of the benchmark's point workload at M: 256 pairs
    from random.Random(f"pairs-{M}"), as bench/workloads.py draws them."""
    rng = random.Random(f"pairs-{M}")
    pairs = []
    for _ in range(256):
        i = rng.randrange(1, M)
        pairs.append((i, rng.randrange(i)))
    return pairs


class TestBlockOfOne:
    """check_gap_block on a block of one row, which forms its residual by
    two slice subtractions, against the same pair inside a block of two,
    which takes the padded path of taller blocks: the same norm, or the
    same failure message."""

    @staticmethod
    def _outcome(m, gaps, rows, scales, bounds, j, r):
        dtype = np.int64 if max(map(abs, sum(rows, []))) < 2 ** 63 else object
        try:
            norms = check_gap_block(m, gaps, np.array(rows, dtype=dtype),
                                    scales, bounds, j)
        except AssertionError as e:
            return str(e)
        return int(norms[r])

    @classmethod
    def _same(cls, m, g, j, row, scale, bound):
        """The outcome of row as the pair ((j + g) mod M, j), alone and
        beside the true row of the next gap (the previous one at g = M - 1)
        at the same shift, asserted equal."""
        one = cls._outcome(m, range(g, g + 1), [list(row)], scale, bound, j, 0)
        h = g + 1 if g + 1 < m.M else g - 1
        _, _, h_scale, h_bound = _case(math.gcd(h, m.M), m)
        rows = [list(row), list(rotated_inverse(h, j, m))]
        scales, bounds = np.array([scale, h_scale]), np.array([bound, h_bound])
        r = 0 if h > g else 1
        if r:
            rows, scales, bounds = rows[::-1], scales[::-1], bounds[::-1]
        two = cls._outcome(m, range(min(g, h), min(g, h) + 2), rows, scales,
                           bounds, j, r)
        assert one == two, (m.M, g, j)
        return one

    @classmethod
    def _outcomes(cls, m, i, j, rng, wrongs=(0, 1, 2)):
        """The true inverse of (i, j) on both paths, and the wrong ones
        named by wrongs: 0 a wrong coefficient, 1 a wrong scale, 2 a bound
        below the norm."""
        si = construct_scaled_inverse(i, j, m)
        row, g, tail = list(si.u.coeffs), i - j, f"for M={m.M}, (i, j)=({i}, {j})"
        assert cls._same(m, g, j, row, si.scale, si.bound) == si.norm
        if 0 in wrongs:
            bad = list(row)
            bad[rng.randrange(m.phi)] += rng.choice((-1, 1))
            assert cls._same(m, g, j, bad, si.scale, si.bound).endswith(
                f"!= {si.scale} {tail}")
        if 1 in wrongs:
            assert cls._same(m, g, j, row, si.scale + 1, si.bound).endswith(
                f"!= {si.scale + 1} {tail}")
        if 2 in wrongs and si.norm:
            assert cls._same(m, g, j, row, si.scale, si.norm - 1).endswith(
                f"norm {si.norm} > bound {si.norm - 1} {tail}")

    @pytest.mark.parametrize("M", [12, 35, 45, 63, 125])
    def test_every_pair(self, M):
        # every pair true, and one of the three wrong kinds in turn
        m, rng = make_modulus(M), random.Random(M)
        for i in range(1, M):
            for j in range(i):
                self._outcomes(m, i, j, rng, wrongs=((i + j) % 3,))

    @pytest.mark.parametrize("M", [323, 1024, 1147, 2187])
    def test_point_pairs(self, M):
        m, rng = make_modulus(M), random.Random(M)
        for i, j in point_pairs(M):
            self._outcomes(m, i, j, rng)

    @pytest.mark.parametrize("big", [2 ** 62, 10 ** 30])
    @pytest.mark.parametrize("M,i,j", [(15, 10, 4), (15, 14, 4), (125, 90, 7),
                                       (1147, 900, 100)])
    def test_entries_too_large_for_int64(self, M, i, j, big):
        # (2 + scale) 2^62 fails the int64 bound, and 10^30 needs object
        # rows: both paths switch to Python ints and name the pair
        m = make_modulus(M)
        si = construct_scaled_inverse(i, j, m)
        row = list(si.u.coeffs)
        row[3] += big
        assert self._same(m, i - j, j, row, si.scale, 2 ** 200).endswith(
            f"!= {si.scale} for M={M}, (i, j)=({i}, {j})")

    @pytest.mark.parametrize("M,i,j", [(15, 14, 4), (35, 34, 0), (125, 124, 2),
                                       (1024, 1000, 1)])
    def test_window_that_wraps(self, M, i, j):
        # g + phi > M: x^g u wraps mod x^M - 1 in the second subtraction
        m = make_modulus(M)
        assert i - j + m.phi > M
        self._outcomes(m, i, j, random.Random(M))

    def test_per_row_arrays_of_one(self):
        # a sweep's last block can hold one gap, with a shift, a scale and
        # a bound as arrays of one entry
        m = make_modulus(45)
        g, j = 9, 30
        table, acc = scaled_inverse._construct(range(g, g + 1),
                                               np.array([j]), m)
        (_, scale, bound), = table
        U = scaled_inverse._reduce_rows(acc, m)
        norms = check_gap_block(m, range(g, g + 1), U, np.array([scale]),
                                np.array([bound]), np.array([j]))
        assert norms.tolist() == [int(np.abs(U).max())]
        U[0, 2] += 1
        with pytest.raises(AssertionError,
                           match=rf"!= {scale} for M=45, \(i, j\)=\(39, 30\)$"):
            check_gap_block(m, range(g, g + 1), U, np.array([scale]),
                            np.array([bound]), np.array([j]))


class TestGapBlock:
    """One construct and one check for a block of consecutive gaps at
    j = 0, as norm_profile runs them, against one gap at a time."""

    @pytest.mark.parametrize("M", supported_upto(149) + [243, 256, 1024,
                                                          2187])
    def test_block_construct_matches_single(self, M):
        # every gap, in blocks of up to 128; each block's reduced rows,
        # scales, cases and bounds equal construct_scaled_inverse(g, 0, m)
        m = make_modulus(M)
        for lo in range(1, M, 128):
            gaps = range(lo, min(M, lo + 128))
            table, acc = scaled_inverse._construct(gaps, 0, m)
            U = scaled_inverse._reduce_rows(acc, m)
            for g, (case, scale, bound), row in zip(gaps, table, U):
                si = construct_scaled_inverse(g, 0, m)
                assert (tuple(row.tolist()), scale, case, bound) == \
                    (si.u.coeffs, si.scale, si.case, si.bound), (M, g)

    GAPS = range(9, 16)   # at M = 143 = 11 * 13: all three cases

    def _mixed(self):
        m = make_modulus(143)
        table, acc = scaled_inverse._construct(self.GAPS, 0, m)
        cases, scales, bounds = zip(*table)
        return (m, scaled_inverse._reduce_rows(acc, m), np.array(scales),
                np.array(bounds))

    def test_mixed_case_block(self):
        m, U, scales, bounds = self._mixed()
        # gap 11: p | gap, scale q = 13; gap 13: q | gap, scale p = 11
        assert (scales[2], bounds[2], scales[4], bounds[4]) == (13, 12, 11, 10)
        assert set(scales.tolist()) == {1, 11, 13}
        norms = check_gap_block(m, self.GAPS, U, scales, bounds)
        assert norms.tolist() == [int(np.abs(r).max()) for r in U]

    @pytest.mark.parametrize("r", [0, 2, 4, 6])
    def test_corrupted_row_is_named(self, r):
        m, U, scales, bounds = self._mixed()
        U[r, 5] += 1
        g = self.GAPS[r]
        with pytest.raises(AssertionError,
                           match=rf"!= {scales[r]} for M=143, "
                                 rf"\(i, j\)=\({g}, 0\)$"):
            check_gap_block(m, self.GAPS, U, scales, bounds)

    def test_norm_above_own_bound(self):
        # gap 13's row is within every other row's bound, but not its own
        m, U, scales, bounds = self._mixed()
        norm = int(np.abs(U[4]).max())
        assert norm <= bounds.min()
        bounds[4] = norm - 1
        with pytest.raises(AssertionError,
                           match=rf"norm {norm} > bound {norm - 1} for "
                                 rf"M=143, \(i, j\)=\(13, 0\)$"):
            check_gap_block(m, self.GAPS, U, scales, bounds)

    @pytest.mark.parametrize("big", [2 ** 62, 10 ** 30])
    def test_rejects_coefficient_too_large_for_int64(self, big):
        # as TestCheckGapBlock's, at j = 0: rows that fail the int64 bound
        # are checked as Python ints and still name the pair
        m, U, scales, bounds = self._mixed()
        rows = U if big < 2 ** 63 else U.astype(object)
        rows[3, 7] += big
        with pytest.raises(AssertionError,
                           match=rf"!= {scales[3]} for M=143, "
                                 rf"\(i, j\)=\(12, 0\)$"):
            check_gap_block(m, self.GAPS, rows, scales, bounds)

    def test_gaps_must_match_rows(self):
        m, U, scales, bounds = self._mixed()
        for gaps in (range(9, 15), range(9, 23, 2)):
            with pytest.raises(ValueError, match="7 consecutive gaps"):
                check_gap_block(m, gaps, U, scales, bounds)


class TestRotationVerify:
    """The constructive route's check: check_gap_block on one row starting
    at j, which takes x^i u and x^j u as two windows of the row of u."""

    @pytest.mark.parametrize("M", [35, 63, 125, 323, 1024, 1147, 2187])
    def test_matches_ring_mul(self, M):
        # each true inverse, and a copy with one coefficient moved: the
        # check raises exactly when the ring product is not the scale
        m = make_modulus(M)
        rng = random.Random(M)
        for _ in range(25):
            i = rng.randrange(1, M)
            j = rng.randrange(i)
            si = construct_scaled_inverse(i, j, m)
            bad = list(si.u.coeffs)
            bad[rng.randrange(m.phi)] += rng.choice((-2, -1, 1, 2))
            for coeffs in (si.u.coeffs, tuple(bad)):
                u = RingElement(m, coeffs)
                prod = ring_mul(monomial_diff(i, j, m), u).coeffs
                wrong = prod != (si.scale,) + (0,) * (m.phi - 1)
                assert wrong == (coeffs != si.u.coeffs)
                # bound M: only the product can fail here
                try:
                    check_gap_block(m, range(i - j, i - j + 1),
                                    np.array([coeffs]), si.scale, M, j)
                except AssertionError as e:
                    assert wrong and str(e).endswith(
                        f"!= {si.scale} for M={M}, (i, j)=({i}, {j})")
                else:
                    assert not wrong

    @pytest.mark.parametrize("M,i,j", [(35, 9, 2), (125, 30, 5), (1147, 600, 1)])
    def test_rejects_one_coefficient_off_by_one(self, M, i, j, monkeypatch):
        m = make_modulus(M)
        construct_scaled_inverse(i, j, m)
        real = scaled_inverse._construct

        def off_by_one(gaps, j, m):
            # x^e is reduced for e < phi, so this adds 1 to coefficient
            # phi // 2 of the reduced u and nothing else
            table, acc = real(gaps, j, m)
            acc = acc.copy()
            acc[0, m.phi // 2] += 1
            return table, acc

        monkeypatch.setattr(scaled_inverse, "_construct", off_by_one)
        with pytest.raises(AssertionError,
                           match=rf"\*u != \d+ for M={M}, \(i, j\)=\({i}, {j}\)$"):
            construct_scaled_inverse(i, j, m)

    @pytest.mark.parametrize("M,i,j", [(35, 9, 2), (125, 30, 5), (1147, 600, 1)])
    @pytest.mark.usefixtures("uncached_cores")
    def test_rejects_norm_above_bound(self, M, i, j, monkeypatch):
        m = make_modulus(M)
        norm = construct_scaled_inverse(i, j, m).norm
        real = scaled_inverse._case

        def low_bound(d, m):
            case, num, scale, bound = real(d, m)
            return case, num, scale, norm - 1

        monkeypatch.setattr(scaled_inverse, "_case", low_bound)
        with pytest.raises(AssertionError,
                           match=rf"norm {norm} > bound {norm - 1} for M={M}, "
                                 rf"\(i, j\)=\({i}, {j}\)$"):
            construct_scaled_inverse(i, j, m)


class TestCaseTableImpliesMinimality:
    """Constructed scales are minimal without a content gcd: the table
    gives scale 1, or a prime scale whose bound is scale - 1."""

    MODULI = [4, 9, 27, 125, 6, 12, 15, 35, 45, 63, 143, 675]

    @staticmethod
    def _is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    @pytest.mark.parametrize("M", MODULI)
    def test_every_shift(self, M):
        m = make_modulus(M)
        seen = set()
        for k in range(1, M):
            case, _, scale, bound = _case(math.gcd(k, M), m)
            seen.add(case)
            assert scale == 1 or (bound == scale - 1 and self._is_prime(scale)), k
        if isinstance(m.shape, TwoPrime):
            assert InverseCase.COPRIME in seen

    def test_moduli_cover_all_four_cases(self):
        seen = {_case(math.gcd(k, M), make_modulus(M))[0]
                for M in self.MODULI for k in range(1, M)}
        assert seen == set(InverseCase) - {InverseCase.GENERIC}

    @pytest.mark.parametrize("M", [12, 35, 125])
    def test_constructed_inverses_have_content_prime_to_scale(self, M):
        m = make_modulus(M)
        for i in range(1, M):
            for j in range(i):
                si = construct_scaled_inverse(i, j, m)
                assert math.gcd(*si.u.coeffs, si.scale) == 1


class TestCaseTableByGcd:
    """The case table is keyed by d = gcd(k, M): it is the d of the paper's
    valuation form (long_division_quotient), and the c it subtracts from
    N is N(1), the scale."""

    @pytest.mark.parametrize("M", supported_upto(399) + [1024, 2057, 2187])
    def test_every_shift(self, M):
        m = make_modulus(M)
        for k in range(1, M):
            _, d, scale, bound, case = long_division_quotient(k, m)
            assert math.gcd(k, M) == d, k
            got_case, num, got_scale, got_bound = _case(d, m)
            assert (got_case, got_scale, got_bound) == (case, scale, bound), k
            assert int(num.sum()) == scale, k

    @pytest.mark.parametrize("M", [35, 45, 125, 143, 1024])
    @pytest.mark.usefixtures("cold_cores")
    def test_one_case_call_per_gcd(self, M, monkeypatch):
        # a block of every gap asks the table once per distinct gcd(k, M),
        # and each gap's row of the table is that gcd's; on a warm cache
        # of cores it asks none, and builds the same block
        m = make_modulus(M)
        calls = TestOneCheckPerPair._count(monkeypatch, "_case")
        table, acc = scaled_inverse._construct(range(1, M), 0, m)
        ds = [d for d, _ in calls]
        assert sorted(ds) == sorted({math.gcd(k, M) for k in range(1, M)})
        for k, row in zip(range(1, M), table):
            _, _, scale, bound, case = long_division_quotient(k, m)
            assert row == (case, scale, bound), k
        warm = scaled_inverse._construct(range(1, M), 0, m)
        assert len(calls) == len(ds)
        assert warm[0] == table and np.array_equal(warm[1], acc)


class TestCaseCoreCache:
    """_case_core builds (case, scale, bound, -Q) once per (M, d) and keeps
    it in the table cache (cyclotomic._cached), bounded by entries and by
    bytes, with read-only rows and no modulus."""

    @pytest.mark.parametrize("M", [12, 45, 125, 143, 1024, 2057])
    @pytest.mark.usefixtures("cold_cores")
    def test_cores_are_the_long_division_quotients(self, M):
        m = make_modulus(M)
        for k in range(1, M):
            v, d, scale, bound, case = long_division_quotient(k, m)
            core = scaled_inverse._case_core(d, m)
            assert core[:3] == (case, scale, bound), k
            assert core[3].dtype == np.int64 and not core[3].flags.writeable
            neg = [-c for c in v.coeffs]
            assert core[3].tolist() == neg + [0] * (len(core[3]) - len(neg))
        assert set(cyclotomic._table_cache) == {("core", M, math.gcd(k, M))
                                                for k in range(1, M)}

    @pytest.mark.usefixtures("cold_cores")
    def test_rows_are_read_only(self):
        m = make_modulus(63)
        construct_scaled_inverse(10, 1, m)
        (_, _, _, negq), = cached_cores().values()
        with pytest.raises(ValueError):
            negq[0] += 1

    @pytest.mark.usefixtures("cold_cores")
    def test_keyed_by_m_not_by_modulus(self, monkeypatch):
        # a second instance of the same M reads the first one's cores
        calls = TestOneCheckPerPair._count(monkeypatch, "_case")
        a, b = make_modulus.__wrapped__(675), make_modulus.__wrapped__(675)
        assert construct_scaled_inverse(30, 3, a).u.coeffs == \
            construct_scaled_inverse(30, 3, b).u.coeffs
        assert len(calls) == 1

    @pytest.mark.usefixtures("cold_cores")
    def test_bounded_by_entries_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 3)
        m = make_modulus(1024)
        for e in range(6):
            construct_scaled_inverse(2 ** e + 1, 1, m)
        assert list(cyclotomic._table_cache) == [
            ("core", 1024, 8), ("core", 1024, 16), ("core", 1024, 32)]
        construct_scaled_inverse(9, 1, m)       # a hit moves d = 8 last
        construct_scaled_inverse(3, 2, m)       # d = 1 evicts d = 16
        assert list(cyclotomic._table_cache) == [
            ("core", 1024, 32), ("core", 1024, 8), ("core", 1024, 1)]

    @pytest.mark.usefixtures("cold_cores")
    def test_bounded_by_bytes(self, monkeypatch):
        # at 2187 = 3^7 the row of d = 3^e has phi + 1 - 3^e entries
        m = make_modulus(2187)
        size = lambda d: 8 * (m.phi + 1 - d)
        monkeypatch.setattr(cyclotomic, "_TABLE_BYTES", size(1) + size(3))
        for d in (1, 3, 9, 27):
            construct_scaled_inverse(d + 5, 5, m)
            kept = cached_cores().values()
            assert sum(core[3].nbytes for core in kept) <= size(1) + size(3)
            assert sum(n for _, n in cyclotomic._table_cache.values()) == \
                sum(core[3].nbytes for core in kept)
            assert (2187, d) in cached_cores()
        assert list(cached_cores()) == [(2187, 9), (2187, 27)]

    def test_ceiling_holds_two_of_the_largest_rows(self):
        # a -Q row has fewer than M int64 entries, at most 8 MiB at 2^20
        assert 2 * 8 * MAX_MODULUS <= cyclotomic._TABLE_BYTES
        assert cyclotomic._TABLE_BYTES == 2 ** 24
        assert cyclotomic._TABLE_ENTRIES == 256

    @pytest.mark.usefixtures("cold_cores")
    def test_concurrent_constructs_match_serial(self, monkeypatch):
        # four threads on two cores build, read and evict the same cores
        # at once, switching every microsecond; a cache of four entries
        # evicts on most misses
        monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 4)
        pairs = [(M, i, j) for M in (63, 675, 1147)
                 for i, j in point_pairs(M)[:40]]
        serial = [construct_scaled_inverse(i, j, make_modulus(M))
                  for M, i, j in pairs]
        cyclotomic._table_cache.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(construct_scaled_inverse, i, j,
                                       make_modulus(M))
                           for _ in range(2) for M, i, j in pairs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == serial * 2
        kept = list(cached_cores().items())
        assert len(kept) == len(cyclotomic._table_cache) <= 4
        for (M, d), core in kept:
            cyclotomic._table_cache.clear()
            fresh = scaled_inverse._case_core(d, make_modulus(M))
            assert core[:3] == fresh[:3] and np.array_equal(core[3], fresh[3])


class TestNegativeResultantNormalization:
    def test_minus_one_at_odd_phi(self):
        # res(-1, x + 1) = -1; the sign folds into u so the scale stays positive
        m = make_modulus(2)
        si = generic_scaled_inverse(element(m, (-1,)))
        assert si.scale == 1
        assert si.u.coeffs == (-1,)
