"""The generic route's NTT kernel (cycloring.ntt) against the batched EEA
(poly.resultant_bezout and its images), its int64 bounds, the prime
supply (poly.root_primes), the choice between the two kernels, and the
generic route's cost ceiling."""
import itertools
import random

import numpy as np
import pytest

from cycloring import (InverseCase, construct_scaled_inverse, cyclotomic,
                       element, generic_scaled_inverse, make_modulus,
                       monomial_diff, ntt, poly, resultant_bezout,
                       scaled_inverse)
from cycloring.cli import main
from cycloring.errors import GenericTooLarge, UnsupportedModulus
from cycloring.ntt import ntt_images, ntt_wins
from cycloring.poly import (IntPoly, _bezout_images, _hadamard_need,
                            _multimodular, root_primes)
from oracles import bezout_image, ntt_rows_by_inverse_tables


def supported(lo, hi):
    out = []
    for M in range(lo, hi):
        try:
            make_modulus(M)
        except UnsupportedModulus:
            continue
        out.append(M)
    return out


def top_primes(M, k):
    return list(itertools.islice(root_primes(M), k))


def ntt_pair(a, m):
    """(r, s) of a from ntt_images at root_primes(M), joined by the
    multimodular loop: the generic route's NTT pair, uncertified."""
    ac = a.coeffs
    r, s = _multimodular(_hadamard_need(ac, m.poly.coeffs), m.phi,
                         root_primes(m.M),
                         lambda batch: ntt_images(ac, m, batch))
    return r, IntPoly(s)


def dense(m, rng):
    return element(m, [rng.randint(-5, 5) for _ in range(m.phi)]).to_poly()


class TestAgainstEEA:
    @pytest.mark.parametrize("M", supported(2, 130))
    def test_every_gap(self, M):
        """The image of every gap x^k - 1 at the top prime = 1 (mod M) is
        the EEA's over F_ell, the scalar form of resultant_bezout's."""
        m = make_modulus(M)
        f, ell = m.poly.coeffs, top_primes(M, 1)
        for k in range(1, M):
            a = monomial_diff(k, 0, m).to_poly().coeffs
            assert ntt_images(a, m, ell) == [bezout_image(a, f, ell[0])], k

    @pytest.mark.parametrize("M", supported(2, 130))
    def test_dense_elements(self, M):
        """(r, s) of seeded dense elements, every image joined by the CRT,
        equal resultant_bezout's."""
        m = make_modulus(M)
        rng = random.Random(M)
        for _ in range(3):
            a = dense(m, rng)
            if a:
                assert ntt_pair(a, m) == resultant_bezout(a, m.poly)

    @pytest.mark.parametrize("M", [1024, 1147, 2057, 2187])
    def test_seeded_gap_pairs(self, M):
        """Seeded pairs (i, j) on the bench ladder: the images at the two
        top primes equal the batched EEA's, and the route's inverse is the
        constructed one."""
        m = make_modulus(M)
        rng = random.Random(M)
        P = top_primes(M, 2)
        for _ in range(2):
            i = rng.randrange(1, M)
            j = rng.randrange(i)
            a = monomial_diff(i, j, m).to_poly().coeffs
            assert ntt_images(a, m, P) == _bezout_images(
                a, m.poly.coeffs, P), (i, j)
        gen = generic_scaled_inverse(monomial_diff(i, j, m))
        con = construct_scaled_inverse(i, j, m)
        assert (gen.scale, gen.u) == (con.scale, con.u)

    @pytest.mark.parametrize("M", [64, 1024, 2057])
    def test_extreme_residues_at_top_primes(self, M):
        """Every residue ell - 1 (a = -1 - x - ... - x^(phi-1)) at the four
        largest primes ell = 1 (mod M), the closest to 2^31: the int64
        bounds of every stage hold at their edge."""
        m = make_modulus(M)
        P = top_primes(M, 4)
        assert min(P) > 2 ** 31 - 2 ** 18
        a = (-1,) * m.phi
        assert ntt_images(a, m, P) == _bezout_images(a, m.poly.coeffs, P)


class TestInt64Bounds:
    def test_mulmod_at_the_radix_bound(self):
        """_mulmod's bound (N1 + 1) 2^47 < 2^63 at N1 = 2^15 - 1 with every
        entry ell - 1, ell = 2^31 - 1: the exact sum N1 (ell - 1)^2 mod ell
        = N1."""
        ell, N1 = 2 ** 31 - 1, 2 ** 15 - 1
        W = np.full((1, N1), ell - 1, dtype=np.int64)
        X = np.full((N1, 1), ell - 1, dtype=np.int64)
        got = ntt._mulmod(ntt._limbs(W), X, np.array([[ell]]))
        assert got.tolist() == [[N1 * (ell - 1) ** 2 % ell]] == [[N1]]

    def test_products_of_two_residues(self):
        """Twiddles, powers and the product tree multiply two residues
        below 2^31: below 2^62, so the largest stays exact."""
        ell = 2 ** 31 - 1
        P = np.array([[ell]])
        vals = np.full((1, 5), ell - 1, dtype=np.int64)
        prod, rest = ntt._all_but_one(vals, P)
        assert prod.tolist() == [[(ell - 1) ** 5 % ell]]
        assert rest.tolist() == [[(ell - 1) ** 4 % ell] * 5]


class TestPrimeSupply:
    @pytest.mark.parametrize("M", [3, 35, 1024, 2039, 2057])
    def test_primes_count_down_from_2_31(self, M):
        P = top_primes(M, 70)
        assert P == sorted(set(P), reverse=True)
        assert all(2 ** 30 < ell < 2 ** 31 and ell % M == 1
                   and poly._is_prime(ell) for ell in P)
        # no prime = 1 (mod M) is skipped between them
        assert not any(poly._is_prime(n)
                       for n in range(P[0] + M, 2 ** 31, M))
        assert not any(poly._is_prime(n) for n in range(P[-1] + M, P[0], M)
                       if n not in P)

    def test_roots_have_order_M(self):
        for M in (35, 1024, 2187):
            for ell in top_primes(M, 3):
                w = ntt._root(ell, M)
                assert pow(w, M, ell) == 1
                assert all(pow(w, M // p, ell) != 1
                           for p in ntt._prime_factors(make_modulus(M)))

    def test_supply_ends(self):
        """At M = 2^20 the primes = 1 (mod M) between 2^30 and 2^31 are
        few, and the iterator ends with them."""
        M = 2 ** 20
        assert list(root_primes(M)) == [
            n for n in range((2 ** 31 - 2) // M * M + 1, 2 ** 30, -M)
            if poly._is_prime(n)]


def test_dead_prime_is_skipped(monkeypatch):
    """res(x - 2, Phi_35) = Phi_35(2) = 71 * 122921, and 71 = 1 (mod 35):
    with 71 put first in the prime table, its image is dead, the route
    skips it, and the inverse is unchanged."""
    m = make_modulus(35)
    a = element(m, (-2, 1))
    assert resultant_bezout(a.to_poly(), m.poly)[0] == 71 * 122921
    assert ntt_images((-2, 1), m, [71, top_primes(35, 1)[0]])[0] == (0, None)
    want = generic_scaled_inverse(a)
    real_primes = scaled_inverse.root_primes
    real_images, batches = scaled_inverse.ntt_images, []
    monkeypatch.setattr(scaled_inverse, "root_primes",
                        lambda M: itertools.chain([71], real_primes(M)))
    monkeypatch.setattr(scaled_inverse, "ntt_images", lambda ac, m, batch: (
        batches.append(list(batch)) or real_images(ac, m, batch)))
    assert generic_scaled_inverse(a) == want
    assert batches[0][0] == 71
    assert [ell for batch in batches for ell in batch][1:] == top_primes(
        35, sum(map(len, batches)) - 1)


@pytest.fixture
def cold_tables():
    """An empty table cache (cyclotomic._cached), which holds the block
    tables of ntt._block_tables, before the test and after it."""
    cyclotomic._table_cache.clear()
    yield
    cyclotomic._table_cache.clear()


def block_key(M, primes):
    return ("ntt", M, *primes)


@pytest.mark.usefixtures("cold_tables")
class TestTableCache:
    @pytest.mark.parametrize("M", [35, 63, 143, 1024, 2057])
    def test_cached_equals_uncached(self, M, monkeypatch):
        """Images from cached tables, built by one element and read by the
        next, equal those of tables rebuilt on every call (a cache that
        keeps no entry), and the tables are built once per block."""
        m, rng = make_modulus(M), random.Random(M)
        primes = top_primes(M, 40)
        elements = [dense(m, rng).coeffs for _ in range(3)]
        built, real = [], ntt._power_rows
        monkeypatch.setattr(ntt, "_power_rows",
                            lambda m, P: built.append(len(P)) or real(m, P))
        warm = [ntt_images(a, m, primes) for a in elements]
        assert sum(built) == 40 and len(cyclotomic._table_cache) == len(built)
        monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 0)
        cyclotomic._table_cache.clear()
        cold = [ntt_images(a, m, primes) for a in elements]
        assert not cyclotomic._table_cache and sum(built) == 4 * 40
        assert warm == cold

    @pytest.mark.parametrize("M", [35, 63])
    def test_generic_route_unchanged(self, M, monkeypatch):
        """point's generic pools: a warm cache gives the inverses of an
        empty one."""
        m, rng = make_modulus(M), random.Random(f"generic-{M}")
        xs = [element(m, [rng.randint(-5, 5) for _ in range(m.phi)])
              for _ in range(8)]
        warm = [generic_scaled_inverse(x) for x in xs + xs]
        monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 0)
        cyclotomic._table_cache.clear()
        assert warm == [generic_scaled_inverse(x) for x in xs + xs]

    def test_tables_are_read_only(self):
        m = make_modulus(35)
        tables, minv, units, negated = ntt._block_tables(m, top_primes(35, 2))
        for (lo, hi), twiddle in tables:
            for x in (lo, hi, twiddle):
                assert not x.flags.writeable
        for x in (minv, units, negated):
            assert not x.flags.writeable
        assert negated.tolist() == [-e % 35 for e in units.tolist()]

    def test_bounded_by_entries_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_TABLE_ENTRIES", 2)
        m = make_modulus(35)
        p1, p2, p3 = ([ell] for ell in top_primes(35, 3))
        for primes in (p1, p2, p3):
            ntt._block_tables(m, primes)
        assert list(cyclotomic._table_cache) == [block_key(35, p2),
                                                 block_key(35, p3)]
        ntt._block_tables(m, p2)                # a hit moves p2 last
        ntt._block_tables(m, p1)                # p1 evicts p3
        assert list(cyclotomic._table_cache) == [block_key(35, p2),
                                                 block_key(35, p1)]

    def test_bounded_by_bytes(self, monkeypatch):
        m = make_modulus(63)
        p1, p2, p3 = ([ell] for ell in top_primes(63, 3))
        ntt._block_tables(m, p1)
        (_, one), = cyclotomic._table_cache.values()
        monkeypatch.setattr(cyclotomic, "_TABLE_BYTES", 2 * one)
        ntt._block_tables(m, p2)
        ntt._block_tables(m, p3)
        assert list(cyclotomic._table_cache) == [block_key(63, p2),
                                                 block_key(63, p3)]
        assert sum(n for _, n in cyclotomic._table_cache.values()) == 2 * one
        # a block above the ceiling alone is built, used and not kept
        monkeypatch.setattr(cyclotomic, "_TABLE_BYTES", one - 1)
        assert ntt_images((1, 1), m, p1) == [bezout_image(
            (1, 1), m.poly.coeffs, p1[0])]
        assert not cyclotomic._table_cache

    def test_one_set_of_tables(self):
        """A block's entry holds the stage tables at the roots w alone:
        the two limbs of each DFT matrix and the twiddles, M^-1, and the
        units and their negatives."""
        m = make_modulus(63)
        primes = top_primes(63, 3)
        tables, _, _, _ = ntt._block_tables(m, primes)
        (_, nbytes), = cyclotomic._table_cache.values()
        radices = ntt._radices(m)
        assert radices == (9, 7) and len(tables) == 2
        # per prime: two limbs of each DFT matrix, twiddles (9, 7) and (7, 1)
        per_prime = 2 * (9 * 9 + 7 * 7) + 9 * 7 + 7
        assert nbytes == 8 * (3 * per_prime + 3 + 2 * m.phi)


@pytest.mark.usefixtures("cold_tables")
class TestSharedTableCache:
    """Case cores and NTT block tables share one cache (cyclotomic._cached):
    one entry ceiling, one byte ceiling and one recency order over both
    kinds, each key led by its kind."""

    def test_core_and_block_evict_each_other(self, monkeypatch):
        # at M = 63 a block of one prime (about 3 KB) outweighs a core (288
        # bytes); the ceiling holds two blocks, or one and a core
        m = make_modulus(63)
        p1, p2 = ([ell] for ell in top_primes(63, 2))
        ntt._block_tables(m, p1)
        (_, block), = cyclotomic._table_cache.values()
        monkeypatch.setattr(cyclotomic, "_TABLE_BYTES", 2 * block)
        cyclotomic._table_cache.clear()
        scaled_inverse._case_core(1, m)
        ntt._block_tables(m, p1)
        ntt._block_tables(m, p2)                # a block evicts the core
        assert list(cyclotomic._table_cache) == [block_key(63, p1),
                                                 block_key(63, p2)]
        ntt._block_tables(m, p1)                # a hit moves p1 last
        construct_scaled_inverse(10, 0, m)      # the core evicts p2
        assert list(cyclotomic._table_cache) == [block_key(63, p1),
                                                 ("core", 63, 1)]
        ntt._block_tables(m, p2)                # p2 evicts p1, then fits
        assert list(cyclotomic._table_cache) == [("core", 63, 1),
                                                 block_key(63, p2)]

    def test_kinds_never_collide(self):
        """A core (M, d) and a block of primes with the same integers are
        two entries, each read by its own kind. No prime = 1 (mod M) is a
        divisor of M, so a block of the number 1, no prime but one whose
        tables build, stands in for a block that shares the core's
        integers."""
        m = make_modulus(35)
        core = scaled_inverse._case_core(1, m)
        tables = ntt._block_tables(m, [1])
        assert list(cyclotomic._table_cache) == [("core", 35, 1),
                                                 ("ntt", 35, 1)]
        assert scaled_inverse._case_core(1, m) is core
        assert ntt._block_tables(m, [1]) is tables
        assert core[0] is InverseCase.COPRIME and len(tables[0]) == 2

    def test_keys_of_both_routes(self):
        # every gap constructed and two generic inverses at 35: the cores
        # of its divisors and the block of the route's primes, by kind
        m = make_modulus(35)
        for k in range(1, 35):
            construct_scaled_inverse(k, 0, m)
        generic_scaled_inverse(monomial_diff(5, 1, m))
        generic_scaled_inverse(monomial_diff(9, 2, m))
        cores = [key for key in cyclotomic._table_cache if key[0] == "core"]
        blocks = [key for key in cyclotomic._table_cache if key[0] == "ntt"]
        assert sorted(cores) == [("core", 35, d) for d in (1, 5, 7)]
        # the route's batches, each a run of the top primes
        assert blocks and all(
            key[1] == 35 and list(key[2:]) == top_primes(35, len(key) - 2)
            for key in blocks)


# the bench ladder, 63 (point's other generic modulus), and small and
# prime moduli that keep the EEA
KERNEL_OF = {35: True, 63: True, 143: True, 323: True, 1024: True,
             1147: True, 2057: True, 2187: True, 15: False, 21: False,
             1021: False, 2039: False}


class TestKernelSelection:
    @pytest.mark.parametrize("M", sorted(KERNEL_OF))
    def test_ladder(self, M):
        assert ntt_wins(make_modulus(M)) is KERNEL_OF[M]

    def test_every_prime_keeps_the_eea(self):
        for M in supported(2, 2100):
            m = make_modulus(M)
            if m.phi == M - 1:
                assert not ntt_wins(m), M

    @pytest.mark.parametrize("M", [35, 21])
    def test_route_calls_the_selected_kernel(self, M, monkeypatch):
        m = make_modulus(M)
        calls = []
        for name in ("ntt_images", "_bezout_images"):
            real = getattr(scaled_inverse, name)
            monkeypatch.setattr(scaled_inverse, name,
                                lambda *args, real=real, name=name: (
                                    calls.append(name) or real(*args)))
        generic_scaled_inverse(monomial_diff(5, 1, m))
        assert calls == ["ntt_images" if KERNEL_OF[M]
                         else "_bezout_images"]


class TestForwardTablesInvert:
    """The inverse NTT is the forward one at the negated units: the rows t
    of each block equal those of the former transform at w^-1
    (oracles.ntt_rows_by_inverse_tables), at every modulus that takes the
    NTT kernel, and the images equal the EEA's."""

    @pytest.mark.parametrize("M", [M for M in sorted(KERNEL_OF)
                                   if KERNEL_OF[M]])
    def test_rows_match_the_inverse_tables(self, M, monkeypatch):
        m, rng = make_modulus(M), random.Random(f"negated-{M}")
        a = dense(m, rng).coeffs
        primes = top_primes(M, 40)
        rows, real = [], ntt._reduce_rows
        monkeypatch.setattr(ntt, "_reduce_rows",
                            lambda t, m: rows.append(t.copy()) or real(t, m))
        images = ntt_images(a, m, primes)
        # 2057 and 2187 split the 40 primes into two blocks
        step = len(rows[0])
        assert len(rows) == -(-40 // step) == (2 if M > 2000 else 1)
        for lo, t in zip(range(0, 40, step), rows):
            assert np.array_equal(
                t, ntt_rows_by_inverse_tables(a, m, primes[lo:lo + step]))
        assert images == _bezout_images(a, m.poly.coeffs, primes)
        assert images[:1] == [bezout_image(a, m.poly.coeffs, primes[0])]


def _refuse_work(monkeypatch):
    """Make either kernel, called by the name the generic route calls it
    by, raise as soon as it is given a batch of primes."""
    def allocated(*args):
        raise AssertionError("a batch of primes was allocated")

    monkeypatch.setattr(scaled_inverse, "_bezout_images", allocated)
    monkeypatch.setattr(scaled_inverse, "ntt_images", allocated)


class TestGenericCeiling:
    @pytest.mark.parametrize("M", [21, 35])
    def test_refusal_patch_is_reached(self, M, monkeypatch):
        """The positive control of the refusal tests: below the ceiling,
        the same patch stops the route at its first batch, at M = 21 (EEA)
        and 35 (NTT)."""
        _refuse_work(monkeypatch)
        m = make_modulus(M)
        assert ntt_wins(m) is (M == 35)
        with pytest.raises(AssertionError,
                           match="a batch of primes was allocated"):
            generic_scaled_inverse(monomial_diff(5, 0, m))

    @pytest.mark.parametrize("M", [65537, 65536])
    def test_refused_before_allocating(self, M, monkeypatch):
        """The gap (5, 0) at the prime 65537 (EEA) and at 2^16 (NTT)."""
        _refuse_work(monkeypatch)
        m = make_modulus(M)
        assert ntt_wins(m) is (M == 65536)
        with pytest.raises(GenericTooLarge, match=f"M={M}"):
            generic_scaled_inverse(monomial_diff(5, 0, m))

    @pytest.mark.parametrize("method", ["bezout", "both"])
    def test_cli_exit_2(self, method, monkeypatch, capsys):
        _refuse_work(monkeypatch)
        code = main(["scaled-inv", "65537", "5", "0", "--method", method])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: GenericTooLarge: ")

    @pytest.mark.parametrize("M,i,j", [(2039, 1951, 1691), (2057, 1951, 1691),
                                       (1021, 700, 3), (2187, 1000, 19)])
    def test_ceiling_keeps_the_gap_ladder(self, M, i, j):
        m = make_modulus(M)
        a = monomial_diff(i, j, m).to_poly().coeffs
        scaled_inverse.check_generic_cost(m, _hadamard_need(a, m.poly.coeffs))

    def test_prime_supply_runs_out(self, monkeypatch):
        """Two primes = 1 (mod 35) cannot pass 2H of a dense element: the
        route is refused before any batch."""
        two = top_primes(35, 2)
        monkeypatch.setattr(scaled_inverse, "root_primes",
                            lambda M: iter(two))
        _refuse_work(monkeypatch)
        m = make_modulus(35)
        with pytest.raises(GenericTooLarge, match="run out"):
            generic_scaled_inverse(element(m, [3, -5, 4, 1, 0, 2] * 4))
