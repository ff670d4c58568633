"""The generic route's NTT kernel (cycloring.ntt) against the batched EEA
(poly.resultant_bezout and its images), its int64 bounds, the prime
supply (poly.root_primes), the choice between the two kernels, and the
generic route's cost ceiling."""
import itertools
import random

import numpy as np
import pytest

from cycloring import (construct_scaled_inverse, element,
                       generic_scaled_inverse, make_modulus, monomial_diff,
                       ntt, poly, resultant_bezout, scaled_inverse)
from cycloring.cli import main
from cycloring.errors import GenericTooLarge, UnsupportedModulus
from cycloring.ntt import ntt_images, ntt_wins
from cycloring.poly import (IntPoly, _bezout_images, _hadamard_need,
                            _multimodular, root_primes)
from oracles import bezout_image


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
    """An empty cache of block tables (ntt._block_tables) before the test
    and after it."""
    ntt._block_cache.clear()
    yield
    ntt._block_cache.clear()


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
        assert sum(built) == 40 and len(ntt._block_cache) == len(built)
        monkeypatch.setattr(ntt, "_TABLE_ENTRIES", 0)
        ntt._block_cache.clear()
        cold = [ntt_images(a, m, primes) for a in elements]
        assert not ntt._block_cache and sum(built) == 4 * 40
        assert warm == cold

    @pytest.mark.parametrize("M", [35, 63])
    def test_generic_route_unchanged(self, M, monkeypatch):
        """point's generic pools: a warm cache gives the inverses of an
        empty one."""
        m, rng = make_modulus(M), random.Random(f"generic-{M}")
        xs = [element(m, [rng.randint(-5, 5) for _ in range(m.phi)])
              for _ in range(8)]
        warm = [generic_scaled_inverse(x) for x in xs + xs]
        monkeypatch.setattr(ntt, "_TABLE_ENTRIES", 0)
        ntt._block_cache.clear()
        assert warm == [generic_scaled_inverse(x) for x in xs + xs]

    def test_tables_are_read_only(self):
        m = make_modulus(35)
        forward, inverse, minv = ntt._block_tables(m, top_primes(35, 2))
        for (lo, hi), twiddle in forward + inverse:
            for x in (lo, hi, twiddle):
                assert not x.flags.writeable
        assert not minv.flags.writeable

    def test_bounded_by_entries_least_recent_first(self, monkeypatch):
        monkeypatch.setattr(ntt, "_TABLE_ENTRIES", 2)
        m = make_modulus(35)
        p1, p2, p3 = ([ell] for ell in top_primes(35, 3))
        for primes in (p1, p2, p3):
            ntt._block_tables(m, primes)
        assert list(ntt._block_cache) == [(35, tuple(p2)), (35, tuple(p3))]
        ntt._block_tables(m, p2)                # a hit moves p2 last
        ntt._block_tables(m, p1)                # p1 evicts p3
        assert list(ntt._block_cache) == [(35, tuple(p2)), (35, tuple(p1))]

    def test_bounded_by_bytes(self, monkeypatch):
        m = make_modulus(63)
        p1, p2, p3 = ([ell] for ell in top_primes(63, 3))
        ntt._block_tables(m, p1)
        (_, one), = ntt._block_cache.values()
        monkeypatch.setattr(ntt, "_TABLE_BYTES", 2 * one)
        ntt._block_tables(m, p2)
        ntt._block_tables(m, p3)
        assert list(ntt._block_cache) == [(63, tuple(p2)), (63, tuple(p3))]
        assert sum(n for _, n in ntt._block_cache.values()) == 2 * one
        # a block above the ceiling alone is built, used and not kept
        monkeypatch.setattr(ntt, "_TABLE_BYTES", one - 1)
        assert ntt_images((1, 1), m, p1) == [bezout_image(
            (1, 1), m.poly.coeffs, p1[0])]
        assert not ntt._block_cache


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
