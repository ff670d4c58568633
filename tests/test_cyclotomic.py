import collections
import dataclasses
import json
import operator
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloring

from cycloring import (PrimePower, TwoPrime, element,
                       kron_check, make_modulus, monomial_diff,
                       monomial_reduce, reduce, reduction_matrix, ring_mul)
from cycloring import cyclotomic, expansion, scaled_inverse, structure, verify
from cycloring.errors import (MatrixTooLarge, ModulusMismatch, ModulusTooLarge,
                              NotApplicable, UnsupportedModulus)
from cycloring.cyclotomic import _as_rows, _prefix_sums, _reduce_rows
from cycloring.poly import IntPoly, divrem
from cycloring.verify import run_verify

from oracles import (cyclotomic_divisor_loop, long_division_remainders,
                     long_division_rows_by_divrem, reduce_rows_row_major,
                     schoolbook_mul, times_cofactor_d)


def all_supported_upto(limit):
    out = []
    for M in range(2, limit + 1):
        try:
            out.append(make_modulus(M))
        except UnsupportedModulus:
            pass
    return out


class TestMakeModulus:
    def test_prime(self):
        m = make_modulus(7)
        assert m.shape == PrimePower(7, 1)
        assert m.poly == IntPoly((1,) * 7)
        assert m.phi == 6

    def test_two_prime(self):
        m = make_modulus(15)
        assert m.shape == TwoPrime(3, 1, 5, 1)
        assert m.poly == IntPoly((1, -1, 0, 1, -1, 1, 0, -1, 1))

    def test_three_primes_rejected(self):
        with pytest.raises(UnsupportedModulus):
            make_modulus(30)

    @pytest.mark.parametrize("M", [0, 1, -4])
    def test_small_rejected(self, M):
        with pytest.raises(UnsupportedModulus):
            make_modulus(M)

    def test_closed_forms_match_divisor_loop(self):
        for m in all_supported_upto(200):
            want = cyclotomic_divisor_loop(m.M)
            assert m.poly == want, f"M={m.M}"
            assert m.poly_row.dtype == np.int8, f"M={m.M}"
            assert m.poly_row.tolist() == list(want.coeffs), f"M={m.M}"
            assert m.poly.degree == m.phi
            assert m.poly.coeffs[0] == 1

    def test_huge_modulus_refused_before_factorizing(self, monkeypatch):
        def factorize(n):
            raise AssertionError(f"factorized {n}")
        monkeypatch.setattr(cyclotomic, "_factorize", factorize)
        with pytest.raises(ModulusTooLarge, match="ceiling M <= 1048576"):
            make_modulus(2 ** 61 - 1)
        with pytest.raises(ModulusTooLarge):
            make_modulus(cycloring.MAX_MODULUS + 1)

    def test_ceiling_itself_accepted(self):
        m = make_modulus(cycloring.MAX_MODULUS)
        assert m.shape == PrimePower(2, 20) and m.phi == 2 ** 19

    def test_two_prime_near_ceiling_accepted(self):
        # Phi_pq at 1009 * 1013 <= MAX_MODULUS, checked by two
        # shift-subtracts: Phi (1 - x^p)(1 - x^q) = (1 - x)(1 - x^pq)
        p, q = 1009, 1013
        m = make_modulus(p * q)
        assert m.shape == TwoPrime(p, 1, q, 1)
        assert m.phi == (p - 1) * (q - 1)
        row = np.zeros(p * q + 2, dtype=np.int64)
        row[:m.phi + 1] = m.poly_row
        row[p:] = row[p:] - row[:-p]
        row[q:] = row[q:] - row[:-q]
        want = np.zeros_like(row)
        want[[0, 1, p * q, p * q + 1]] = 1, -1, -1, 1
        assert np.array_equal(row, want)

    def test_cache_is_bounded(self):
        assert make_modulus.cache_info().maxsize is not None

    @pytest.mark.parametrize("M", [2, 9, 15, 45, 1147])
    def test_poly_row_is_a_read_only_copy_of_poly(self, M):
        m = make_modulus(M)
        assert m.poly_row.dtype == np.int8
        assert m.poly == IntPoly(m.poly_row.tolist())
        with pytest.raises(ValueError, match="read-only"):
            m.poly_row[0] = 2

    def test_fields_are_frozen(self):
        m = make_modulus.__wrapped__(15)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.M = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.poly_row = np.ones(9, dtype=np.int8)
        assert m.M == 15 and m == make_modulus(15)
        assert [f.name for f in dataclasses.fields(m)] == [
            "M", "shape", "phi", "radical", "inflation", "poly_row"]

    @pytest.mark.parametrize("M", [2 ** 20, 1048573])
    def test_one_small_copy_of_phi_held(self, M):
        # one int8 row of phi + 1 entries: 0.5 MB at 2^20 and 1.0 MB at the
        # prime 1048573 (8.0 and 16.0 MB with a tuple and an int64 copy)
        tracemalloc.start()
        try:
            m = make_modulus.__wrapped__(M)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.poly_row.nbytes == m.phi + 1
        assert held <= 1.1 * 2 ** 20, held

    def test_shape_metadata(self):
        m = make_modulus(45)
        assert m.shape == TwoPrime(3, 2, 5, 1)
        assert m.radical == 15 and m.inflation == 3
        assert m.phi == 24

    def test_repr(self):
        assert repr(make_modulus(45)) == (
            "CycloModulus(M=45, shape=TwoPrime(p=3, s=2, q=5, t=1), phi=24)")

    def test_hashes_agree_with_equality(self):
        # a modulus built again, past the cache, and its elements
        m, twin = make_modulus(15), make_modulus.__wrapped__(15)
        assert m is not twin and m == twin and hash(m) == hash(twin)
        assert m != make_modulus(21) and len({m, twin, make_modulus(21)}) == 2
        a, b = element(m, range(8)), element(twin, range(8))
        assert a == b and hash(a) == hash(b)

    def test_self_check_raises_under_python_o(self, monkeypatch):
        # an explicit raise, which python -O keeps, not an assert: factors
        # 3 * 3 give phi = 4, while their prefix sums give a row of degree
        # 7 with the coefficients 2 and 3
        monkeypatch.setattr(cyclotomic, "_factorize",
                            lambda n: [(3, 1), (3, 1)])
        with pytest.raises(AssertionError, match=r"Phi_9 is not monic of "
                                                 r"degree phi = 4"):
            make_modulus.__wrapped__(9)


class TestReduce:
    def test_non_integer_coefficient_refused(self):
        # 0.5 was truncated to 0 on the way to an int64 row
        m = make_modulus(5)
        with pytest.raises(TypeError):
            reduce(IntPoly((0.5, 1)), m)
        with pytest.raises(TypeError):
            element(m, (1, 0.5))
        assert element(m, np.array([2 ** 62, 0, 0, 0, 2 ** 62])).coeffs == (
            0, -2 ** 62, -2 ** 62, -2 ** 62)

    def test_first_overflow_column(self):
        for M in (15, 21, 9):
            m = make_modulus(M)
            got = reduce(IntPoly.monomial(m.phi), m)
            want = IntPoly.monomial(m.phi) - m.poly
            assert got.to_poly() == want

    def test_x8_mod_phi15(self):
        m = make_modulus(15)
        assert reduce(IntPoly.monomial(8), m).coeffs == (-1, 1, 0, -1, 1, -1, 0, 1)

    def test_reduce_modulus_itself(self):
        m = make_modulus(21)
        assert reduce(m.poly, m).is_zero()

    def test_reduce_folds_high_degrees(self):
        m = make_modulus(15)
        # x^40 = x^10 since x^15 = 1
        assert reduce(IntPoly.monomial(40), m) == monomial_reduce(10, m)


class TestMonomialReduce:
    def test_published_column_12_of_21(self):
        m = make_modulus(21)
        want = (-1, 1, 0, -1, 1, 0, -1, 0, 1, -1, 0, 1)
        assert monomial_reduce(12, m).coeffs == want

    def test_published_column_14_of_21(self):
        m = make_modulus(21)
        got = monomial_reduce(14, m)
        assert got.to_poly() == IntPoly((-1, 0, 0, 0, 0, 0, 0, -1))

    def test_negative_exponent(self):
        m = make_modulus(15)
        assert monomial_reduce(-1, m) == monomial_reduce(14, m)
        assert monomial_reduce(-16, m) == monomial_reduce(14, m)

    @pytest.mark.parametrize("M", [4, 8, 9, 15, 16, 21, 25, 27, 33, 35, 45, 49])
    def test_agrees_with_long_division(self, M):
        m = make_modulus(M)
        for k in range(m.M):
            assert monomial_reduce(k, m) == reduce(IntPoly.monomial(k), m)


    @pytest.mark.parametrize("M", [2, 9, 15, 21, 45, 63, 128, 175])
    def test_batched_rows_match_long_division(self, M):
        m = make_modulus(M)
        ks = list(range(-M, 2 * M))
        rows = cyclotomic._monomial_rows(ks, m)
        assert rows.shape == (len(ks), m.phi)
        for k, row in zip(ks, rows.tolist()):
            rem = divrem(IntPoly.monomial(k % M), m.poly)[1].coeffs
            assert tuple(row) == rem + (0,) * (m.phi - len(rem)), k

    @pytest.mark.parametrize("M", [9, 63, 175])
    def test_blocked_rows_equal_one_block(self, M, monkeypatch):
        m = make_modulus(M)
        ks = list(range(-M, 2 * M))
        whole = cyclotomic._monomial_rows(ks, m)
        # blocks of 1 and 2 rows, the last one short
        for rows_per_block in (1, 2):
            monkeypatch.setattr(cyclotomic, "_UNIT_BLOCK", rows_per_block * M)
            assert np.array_equal(cyclotomic._monomial_rows(ks, m), whole)


class TestReductionMatrix:
    def test_r7_identity_and_minus_one(self):
        R = reduction_matrix(make_modulus(7))
        want = np.hstack([np.eye(6, dtype=np.int64),
                          -np.ones((6, 1), dtype=np.int64)])
        assert np.array_equal(np.asarray(R.entries, dtype=np.int64), want)

    def test_r4_columns(self):
        R = reduction_matrix(make_modulus(4))
        assert [R.column(j) for j in range(4)] \
            == [(1, 0), (0, 1), (-1, 0), (0, -1)]

    def test_blocks_for_squarefree_two_prime(self):
        R = reduction_matrix(make_modulus(21))
        assert R.blocks.identity == (0, 12)
        assert R.blocks.b1 == (12, 14)
        assert R.blocks.b2 == (14, 19)
        assert R.blocks.b3 == (19, 21)

    def test_no_blocks_otherwise(self):
        assert reduction_matrix(make_modulus(9)).blocks is None
        assert reduction_matrix(make_modulus(45)).blocks is None

    def test_every_column_has_norm_one(self):
        # powers of x are units, so no column vanishes and entries cap at 1
        for M in (15, 21, 33, 35, 45, 63, 75, 8, 9, 27, 49, 121):
            m = make_modulus(M)
            for k in range(M):
                assert monomial_reduce(k, m).max_norm() == 1

    def test_csv_no_header(self):
        R = reduction_matrix(make_modulus(7))
        lines = R.to_csv().splitlines()
        assert len(lines) == 6
        assert lines[0] == "1,0,0,0,0,0,-1"

    def test_json_roundtrip(self):
        R = reduction_matrix(make_modulus(15))
        obj = json.loads(R.to_json())
        assert obj["M"] == 15 and obj["phi"] == 8
        assert np.array_equal(np.array(obj["entries"]),
                              np.asarray(R.entries, dtype=np.int64))
        assert obj["blocks"]["b2"] == [10, 13]

    @pytest.mark.parametrize("M", [35, 49, 63, 143])
    def test_blocks_of_columns_match_long_division(self, monkeypatch, M):
        # blocks of 3 to 5 columns of R_rad, not one block for all of them
        monkeypatch.setattr(cyclotomic, "_UNIT_BLOCK", 4 * M // 9)
        m = make_modulus(M)
        assert np.array_equal(reduction_matrix(m).entries.T,
                              cyclotomic.long_division_rows(m))

    def test_entry_outside_unit_range_raises(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_monomial_rows",
                            lambda ks, m: 2 * np.ones((len(ks), m.phi)))
        with pytest.raises(AssertionError, match="R_15 entry outside"):
            reduction_matrix(make_modulus(15))


class TestMatrixCeiling:
    """R_M of more than MAX_MATRIX_CELLS = M phi cells is refused before
    anything is allocated: the allocators are patched to raise."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def allocate(*args):
            raise AssertionError("allocated")

        monkeypatch.setattr(cyclotomic, "_monomial_rows", allocate)
        monkeypatch.setattr(cyclotomic, "long_division_rows", allocate)

    def test_ceiling_between_2039_and_2053(self):
        assert cyclotomic.MAX_MATRIX_CELLS == 2 ** 22 == cycloring.MAX_MATRIX_CELLS
        for M in (2039, 2187):   # 2039 * 2038 and 2187 * 1458 cells
            cyclotomic.check_matrix_cells(make_modulus(M))
        with pytest.raises(MatrixTooLarge,
                           match=r"M=2053 has M\*phi = 4212756 cells, above "
                                 r"the ceiling 4194304"):
            cyclotomic.check_matrix_cells(make_modulus(2053))

    @pytest.mark.parametrize("build", [
        reduction_matrix, expansion.max_expansion_factor,
        lambda m: expansion.monomial_expansion_factor(3, m),
        lambda m: expansion.randomized_expansion_check(3, m, 10)])
    def test_every_r_m_route_refuses(self, build):
        with pytest.raises(MatrixTooLarge, match="1048573"):
            build(make_modulus(1048573))

    def test_kron_check_refuses(self):
        with pytest.raises(MatrixTooLarge, match="M=4096"):
            kron_check(make_modulus(4096))

    @pytest.mark.parametrize("M, suite", [(1048573, "matrix"),
                                          (1048573, "expansion"),
                                          (4096, "lemmas"), (4096, "all")])
    def test_verify_refuses_before_any_suite(self, M, suite):
        with pytest.raises(MatrixTooLarge, match=f"M={M}"):
            run_verify(M, suite=suite)

    def test_verify_lemmas_at_squarefree_m_builds_no_matrix(self):
        # no kron_check at a squarefree M, so nothing to refuse
        assert run_verify(2053, suite="lemmas").all_passed


class TestKronCheck:
    @pytest.mark.parametrize("M", [9, 45, 27, 63, 75, 8])
    def test_inflated_moduli(self, M):
        assert kron_check(make_modulus(M)) is True

    def test_squarefree_not_applicable(self):
        with pytest.raises(NotApplicable):
            kron_check(make_modulus(15))


class TestRingMul:
    def test_constant_result(self):
        m = make_modulus(4)
        a = element(m, (-1, 1))
        b = element(m, (-1, -1))
        assert ring_mul(a, b) == element(m, (2, 0))

    def test_identity(self):
        m = make_modulus(15)
        a = element(m, range(1, 9))
        one = element(m, (1,) + (0,) * 7)
        assert ring_mul(a, one) == a

    def test_power_chain_matches_column(self):
        m = make_modulus(15)
        x = element(m, (0, 1) + (0,) * 6)
        acc = element(m, (1,) + (0,) * 7)
        for _ in range(8):
            acc = ring_mul(acc, x)
        assert acc == monomial_reduce(8, m)

    def test_commutative_associative(self):
        rng = np.random.default_rng(7)
        m = make_modulus(21)
        for _ in range(25):
            a, b, c = (element(m, rng.integers(-4, 5, size=m.phi).tolist())
                       for _ in range(3))
            assert ring_mul(a, b) == ring_mul(b, a)
            assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))

    def test_modulus_mismatch(self):
        a = element(make_modulus(15), (1,) + (0,) * 7)
        b = element(make_modulus(21), (1,) + (0,) * 11)
        with pytest.raises(ModulusMismatch):
            ring_mul(a, b)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul])
    def test_operator_modulus_mismatch(self, op):
        a = element(make_modulus(15), (1,) + (0,) * 7)
        b = element(make_modulus(21), (1,) + (0,) * 11)
        with pytest.raises(ModulusMismatch):
            op(a, b)

    def test_element_operators(self):
        # + and - are coefficientwise; * of two elements is ring_mul
        rng = np.random.default_rng(11)
        m = make_modulus(21)
        for _ in range(10):
            a, b = (element(m, rng.integers(-4, 5, size=m.phi).tolist())
                    for _ in range(2))
            pairs = list(zip(a.coeffs, b.coeffs))
            assert (a + b).coeffs == tuple(x + y for x, y in pairs)
            assert (a - b).coeffs == tuple(x - y for x, y in pairs)
            assert a * b == ring_mul(a, b)

    def test_monomial_diff(self):
        m = make_modulus(15)
        got = monomial_diff(2, 1, m)
        assert got.to_poly() == IntPoly((0, -1, 1))



def digit_width(a, b):
    """The byte width of kron_mul's digits for the factors a and b."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    return ((2 * bound).bit_length() + 7) // 8


def factors_at_width(w, L, rng, top):
    """Length-L factor pairs whose digits take w bytes: bound at the top
    of width w (top) or just above the width below, with random signs, and
    with every coefficient at its magnitude, so products reach +-bound."""
    mb = 3
    ma = ((2 ** (8 * w - 1) - 1) // (mb * L) if top
          else 2 ** (8 * w - 9) // (mb * L) + 1)
    ra = [ma] + [rng.randint(-ma, ma) for _ in range(L - 1)]
    rb = [rng.randint(-mb, mb) for _ in range(L - 1)] + [-mb]
    pairs = [(ra, rb), ([ma] * L, [mb] * L), ([-ma] * L, [mb] * L)]
    for a, b in pairs:
        assert digit_width(a, b) == w, (w, top)
    return pairs


def schoolbook_ring_mul(a, b):
    """ring_mul by the schoolbook product and long division."""
    m = a.modulus
    rem = divrem(schoolbook_mul(a.to_poly(), b.to_poly()), m.poly)[1].coeffs
    return rem + (0,) * (m.phi - len(rem))


class TestKroneckerByteView:
    """IntPoly.__mul__ and ring_mul, which share poly.kron_mul and its
    byte-view path for digits of at most 8 bytes, against the schoolbook
    product (and long division) at every digit width and its edges."""

    @pytest.mark.parametrize("w, top", [(w, top) for w in range(1, 11)
                                        for top in (True, False)
                                        if top or w > 1])
    def test_every_digit_width(self, w, top):
        rng = random.Random(w)
        for a, b in factors_at_width(w, 7, rng, top):
            A, B = IntPoly(a), IntPoly(b)
            assert A * B == schoolbook_mul(A, B)
            assert B * A == schoolbook_mul(A, B)
        for M in (9, 15):
            m = make_modulus(M)
            for a, b in factors_at_width(w, m.phi, rng, top):
                A, B = cycloring.RingElement(m, tuple(a)), cycloring.RingElement(
                    m, tuple(b))
                assert ring_mul(A, B).coeffs == schoolbook_ring_mul(A, B)
                assert ring_mul(B, A).coeffs == schoolbook_ring_mul(A, B)

    @pytest.mark.parametrize("a, b, w", [
        # bound 2^63 - 1, the widest 8-byte digits, and 2^63, the narrowest
        # 9-byte ones
        ([(2 ** 63 - 1) // 7] * 7, [1] * 7, 8),
        ([-((2 ** 63 - 1) // 7)] * 7, [1, -1] * 3 + [1], 8),
        ([2 ** 63 - 1], [-1], 8),
        ([2 ** 60] * 8, [-1] * 8, 9),
        ([2 ** 60, -(2 ** 60)] * 4, [1] * 8, 9),
        ([-(2 ** 63)], [1], 9),
    ])
    def test_eight_to_nine_byte_boundary(self, a, b, w):
        assert digit_width(a, b) == w
        A, B = IntPoly(a), IntPoly(b)
        assert A * B == schoolbook_mul(A, B)
        assert B * A == schoolbook_mul(A, B)

    @pytest.mark.parametrize("M", [9, 15])
    def test_magnitudes_next_to_int64_edge(self, M):
        m = make_modulus(M)
        edge = [2 ** 63 - 1, -(2 ** 63), -(2 ** 63 - 1), 2 ** 62, 2 ** 63 - 2]
        a = (edge * m.phi)[:m.phi]
        rng = random.Random(M)
        for b in ([1] + [0] * (m.phi - 1),
                  [rng.randint(-5, 5) for _ in range(m.phi)],
                  list(reversed(a))):
            A, B = cycloring.RingElement(m, tuple(a)), cycloring.RingElement(
                m, tuple(b))
            assert ring_mul(A, B).coeffs == schoolbook_ring_mul(A, B)
            assert IntPoly(a) * IntPoly(b) == schoolbook_mul(IntPoly(a),
                                                             IntPoly(b))

    @pytest.mark.parametrize("M", [9, 15])
    def test_zero_element(self, M):
        m = make_modulus(M)
        zero = cycloring.RingElement(m, (0,) * m.phi)
        for c in (1, 5, -(2 ** 63), 2 ** 100):
            x = cycloring.RingElement(m, (c,) + (3,) * (m.phi - 1))
            assert ring_mul(zero, x) == zero == ring_mul(x, zero)
        assert ring_mul(zero, zero) == zero


class TestElementValidation:
    def test_wrong_length_vector_rejected(self):
        m = make_modulus(15)
        with pytest.raises(ValueError):
            cycloring.RingElement(m, (1, 2, 3))

    def test_kron_not_applicable_for_prime(self):
        with pytest.raises(NotApplicable):
            kron_check(make_modulus(7))


def divrem_remainder(coeffs, m):
    """The long-division remainder of coeffs mod Phi_M as a length-phi tuple."""
    rem = divrem(IntPoly(coeffs), m.poly)[1].coeffs
    return rem + (0,) * (m.phi - len(rem))


class TestPrimePowerRemainder:
    """At M = p^s, _reduce_rows is one subtraction, r_k = v_k - v_(p-1) on
    the (n, p, M') view, with no step of the two-prime path: against
    long division one row at a time (oracles.long_division_remainders), on
    int64 and object rows, rows shorter and longer than M, and the
    [-2^63, 1] row that _as_rows sends to Python ints."""

    MODULI = [2, 4, 8, 9, 27, 125, 1024, 2187]

    @pytest.fixture(autouse=True)
    def _one_subtraction(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("a p^s remainder reached a two-prime step")

        monkeypatch.setattr(cyclotomic, "_times_cofactor", unreached)
        monkeypatch.setattr(cyclotomic, "_prefix_sums", unreached)

    @pytest.mark.parametrize("M", MODULI)
    @pytest.mark.parametrize("mag", [1, 9, 2 ** 40, 10 ** 30])
    def test_rows_against_long_division(self, M, mag):
        m = make_modulus(M)
        rng = random.Random(M + mag)
        for length in (1, m.phi, M, M + 1, 3 * M + 2):
            V = [[rng.randint(-mag, mag) for _ in range(length)]
                 for _ in range(4)]
            got = _reduce_rows(V, m)
            assert got.shape == (4, m.phi)
            assert got.dtype == (np.int64 if mag < 2 ** 60 else object)
            assert got.tolist() == long_division_remainders(V, m).tolist(), \
                length

    @pytest.mark.parametrize("M", MODULI)
    def test_object_rows_of_small_entries(self, M):
        # object input with entries that fit: the int64 path, the same rows
        m = make_modulus(M)
        rng = random.Random(M)
        V = np.array([[rng.randint(-5, 5) for _ in range(2 * M + 1)]
                      for _ in range(3)], dtype=object)
        got = _reduce_rows(V, m)
        assert got.dtype == np.int64
        assert got.tolist() == long_division_remainders(V, m).tolist()

    @pytest.mark.parametrize("M", MODULI)
    def test_int64_edges(self, M):
        # [-2^63, 1] goes to Python ints; entries of 2^62 - 1, at the
        # written bound 2b < 2^63, stay int64 and do not wrap
        m = make_modulus(M)
        low, edge = -2 ** 63, 2 ** 62 - 1
        rows = [[low, 1], [1] + [0] * (M - 2) + [low] if M > 2 else [1, low]]
        for V in ([r] for r in rows):
            assert _as_rows(V, m).dtype == object
            assert _reduce_rows(V, m).tolist() == \
                long_division_remainders(V, m).tolist()
        V = [[edge if k % 2 else -edge for k in range(M)]]
        got = _reduce_rows(V, m)
        assert got.dtype == np.int64
        assert got.tolist() == long_division_remainders(V, m).tolist()


DIFFERENTIAL_MODULI = [2, 4, 8, 9, 27, 125, 1024, 2187, 6, 12, 45, 63, 75,
                       143, 675, 1147, 2057]
SUPPORTED_UPTO_300 = [m.M for m in all_supported_upto(300)]


class TestReduceAgainstLongDivision:
    """The cofactor reduction against the remainder of poly.divrem."""

    @pytest.mark.parametrize("M", DIFFERENTIAL_MODULI)
    def test_lengths_and_magnitudes(self, M):
        m = make_modulus(M)
        rng = random.Random(M)
        for length in (1, m.phi, M, 2 * M + 3):
            for mag in (0, 7, 10 ** 30):
                coeffs = [rng.randint(-mag, mag) for _ in range(length)]
                got = reduce(IntPoly(coeffs), m)
                assert got.coeffs == divrem_remainder(coeffs, m), (length, mag)
                assert all(type(c) is int for c in got.coeffs)

    @pytest.mark.parametrize("M", [63, 1147, 2187])
    def test_all_zero_and_extreme_entries(self, M):
        m = make_modulus(M)
        assert reduce(IntPoly([0] * (2 * M + 3)), m).is_zero()
        assert reduce(IntPoly(()), m).is_zero()
        for big in (2 ** 63 - 1, -2 ** 63, 2 ** 64, -10 ** 30):
            coeffs = [big, -1] * M + [big]
            assert reduce(IntPoly(coeffs), m).coeffs == divrem_remainder(coeffs, m)

    @pytest.mark.parametrize("M", [7, 63, 1147, 2187])
    def test_int64_minimum_beside_small_entries(self, M):
        # abs(-2^63) wraps in int64, so the magnitude must not come from it
        m = make_modulus(M)
        low = -2 ** 63
        assert _as_rows([low, 1], m).dtype == object
        assert _as_rows([1, low], m).dtype == object
        for coeffs in ([1] + [0] * (M - 2) + [low], [low, 1, -1, 2],
                       [3] * M + [low] + [-5] * 4):
            assert reduce(IntPoly(coeffs), m).coeffs == divrem_remainder(coeffs, m)

    @given(st.sampled_from(SUPPORTED_UPTO_300),
           st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=700))
    @settings(max_examples=150, deadline=None)
    def test_matches_divrem_property(self, M, coeffs):
        m = make_modulus(M)
        assert reduce(IntPoly(coeffs), m).coeffs == divrem_remainder(coeffs, m)

    @pytest.mark.parametrize("M", [35, 125, 143, 675])
    @pytest.mark.parametrize("mag", [9, 10 ** 30])
    def test_batched_rows_equal_single_rows(self, M, mag):
        m = make_modulus(M)
        rng = random.Random(M + mag)
        V = np.array([[rng.randint(-mag, mag) for _ in range(M)]
                      for _ in range(12)], dtype=object)
        batch = _reduce_rows(V, m)
        assert batch.shape == (12, m.phi)
        for r in range(12):
            assert batch[r].tolist() == _reduce_rows(list(V[r]), m)[0].tolist()
            assert tuple(batch[r].tolist()) == divrem_remainder(list(V[r]), m)

    @pytest.mark.parametrize("M", [35, 1147, 2187])
    def test_int64_only_under_the_written_bound(self, M):
        m = make_modulus(M)
        sh = m.shape
        growth = 2 if isinstance(sh, PrimePower) else 4 * sh.p * sh.q ** 2
        big = (2 ** 63 - 1) // growth
        assert _as_rows([big, -1], m).dtype == np.int64
        assert _as_rows([big + 1, -1], m).dtype == object
        assert _as_rows([big, 0] * M, m).dtype == object   # two folds
        assert _as_rows([big // 2], m, headroom=2).dtype == np.int64
        assert _as_rows([big // 2 + 1], m, headroom=2).dtype == object

    @pytest.mark.parametrize("M", [9, 35, 1024, 1147])
    def test_monomial_reduce_outside_zero_to_m(self, M):
        m = make_modulus(M)
        for k in (M, M + 1, 2 * M - 1, 3 * M + 5):
            assert monomial_reduce(k, m).coeffs == divrem_remainder(
                IntPoly.monomial(k).coeffs, m)
        for k in (-1, -M, -M - 3, -5 * M + 2):
            shifted = k + M * (-k // M + 1)
            assert monomial_reduce(k, m).coeffs == divrem_remainder(
                IntPoly.monomial(shifted).coeffs, m)

    def test_monomial_reduce_at_a_large_prime_stays_small(self):
        tracemalloc.start()
        try:
            got = monomial_reduce(5, make_modulus.__wrapped__(4099))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.coeffs[5] == 1 and sum(map(abs, got.coeffs)) == 1
        assert peak < 5 * 2 ** 20, f"peak {peak} bytes"


class TestReduceRowsAgainstRowMajor:
    """_reduce_rows, one divide on coefficient-major columns at the radical,
    against the former row-major divide (oracles.reduce_rows_row_major):
    equal values and the same int64 or object choice."""

    # prime powers, squarefree, inflated; 72, 100 and 2057 take both sides
    # of _WIDE_SLAB, one row narrow and 64 rows wide
    MODULI = [4, 9, 27, 125, 1024, 2187, 6, 15, 35, 143, 1147, 12, 45, 63,
              675, 72, 100, 2057]

    @staticmethod
    def _blocks(m, n, L, rng):
        """Rows of small, boundary and extreme magnitudes: 9, the largest
        kept in int64 and one above it, 2^63 - 1 and -2^63."""
        sh = m.shape
        growth = 2 if isinstance(sh, PrimePower) else 4 * sh.p * sh.q ** 2
        edge = (2 ** 63 - 1) // (growth * -(-L // m.M))
        for mag in (9, edge, edge + 1, 2 ** 63 - 1):
            V = rng.integers(-min(mag, 2 ** 62), min(mag, 2 ** 62), (n, L),
                             endpoint=True).astype(object)
            V[-1, -1] = mag
            yield V
        V[0, 0] = -2 ** 63
        yield V

    @pytest.mark.parametrize("M", MODULI)
    def test_values_and_dtype(self, M, monkeypatch):
        m = make_modulus(M)
        rng = np.random.default_rng(M)
        for n in (1, 3, 64):
            for L in (M, 2 * M - 1, 3 * M + 1):
                dtypes = []
                for V in self._blocks(m, n, L, rng):
                    got, want = _reduce_rows(V, m), reduce_rows_row_major(V, m)
                    assert got.shape == (n, m.phi)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (n, L)
                    dtypes.append(got.dtype)
                    if len(dtypes) == 2:
                        # int64 at the bound's edge is exact: Python ints agree
                        with monkeypatch.context() as mp:
                            mp.setattr(cyclotomic, "_as_rows",
                                       lambda V, m: np.asarray(V, object))
                            assert np.array_equal(_reduce_rows(V, m), got)
                assert dtypes == [np.int64, np.int64] + [object] * 3

    @pytest.mark.parametrize("shape", [(7, 5), (37, 31, 2), (13, 11, 64),
                                       (2, 1, 729), (3, 300)])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_narrow_and_wide_prefix_sums_agree(self, shape, dtype,
                                               monkeypatch):
        rng = np.random.default_rng(len(shape))
        X = rng.integers(-99, 99, shape).astype(dtype)
        want = X.cumsum(axis=0)
        for cutoff in (0, 2 ** 62):   # every row wide, every row narrow
            monkeypatch.setattr(cyclotomic, "_WIDE_SLAB", cutoff)
            for block in (X.copy(), X.T.copy().T):   # row- and column-major
                _prefix_sums(block)
                assert block.dtype == dtype
                assert np.array_equal(block, want), cutoff

    @pytest.mark.parametrize("M", [9, 35, 143, 675, 1024])
    def test_branches_reduce_and_sweep_alike(self, M, monkeypatch):
        m = make_modulus(M)
        V = np.random.default_rng(M).integers(-99, 99, (64, 2 * M - 1))
        want = reduce_rows_row_major(V, m)
        for cutoff in (0, 2 ** 62):
            monkeypatch.setattr(cyclotomic, "_WIDE_SLAB", cutoff)
            assert np.array_equal(_reduce_rows(V, m), want), cutoff
            assert np.array_equal(_reduce_rows(V[0], m), want[:1]), cutoff
        if M <= 143:
            gaps = {}
            for cutoff in (0, 2 ** 62):
                monkeypatch.setattr(cyclotomic, "_WIDE_SLAB", cutoff)
                gaps[cutoff] = [norms.tolist() for _, _, norms
                                in scaled_inverse.norm_profile(m).gaps]
            assert gaps[0] == gaps[2 ** 62]


class TestZeroTestAgainstD:
    """The zero test, the product with E = (1 - y^p)(1 - y^q) (1 - y at
    p^s), against the product with the cofactor D of Phi_M in 1 - x^M
    (oracles.times_cofactor_d): both are 0 on exactly the same rows, the
    multiples of Phi_M mod x^M - 1."""

    MODULI = [6, 12, 15, 35, 45, 63, 143, 1147, 2057, 9, 125]

    @staticmethod
    def _multiples(m, n, mag, rng):
        """n rows of Phi_M g mod x^M - 1, g random in [-mag, mag]."""
        g = rng.integers(-mag, mag, (n, m.M), endpoint=True)
        out = np.zeros((n, 2 * m.M), dtype=np.int64)
        for e, c in enumerate(m.poly_row.tolist()):
            if c:
                out[:, e:e + m.M] += c * g
        return out[:, :m.M] + out[:, m.M:]

    @pytest.mark.parametrize("M", MODULI)
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_agrees_with_d(self, M, dtype):
        m = make_modulus(M)
        rng = np.random.default_rng(M)
        scale = 1 if dtype is np.int64 else 10 ** 25
        zero = self._multiples(m, 6, 99, rng).astype(dtype) * scale
        hits = rng.integers(0, M, 6)
        nudged = zero.copy()
        nudged[np.arange(6), hits] += rng.choice([-1, 1, 7], 6)
        rand = rng.integers(-99, 99, (6, M), endpoint=True).astype(dtype)
        for rows, want in ((zero, True), (nudged, False), (rand, False)):
            by_e = ~cyclotomic._times_cofactor(rows, m).any(axis=(0, 2))
            by_d = ~times_cofactor_d(rows, m).any(axis=1)
            assert by_e.tolist() == by_d.tolist() == [want] * 6
            assert (~_reduce_rows(rows, m).any(axis=1)).tolist() == [want] * 6

    @pytest.mark.parametrize("M", [6, 35, 72, 1147])
    def test_product_is_c_ordered(self, M):
        m = make_modulus(M)
        A = np.arange(5 * M, dtype=np.int64).reshape(5, M)
        for V in (A, A.astype(object), np.asfortranarray(A)):
            assert cyclotomic._times_cofactor(V, m).flags.c_contiguous


class TestReductionMatrixChecksStayIndependent:
    """kron_check and verify's column check read long division, so a wrong
    entry in R_M fails them even though R_M is built from R_rad."""

    @pytest.fixture
    def flipped(self, monkeypatch):
        good = cyclotomic.reduction_matrix

        def flip(m):
            R = good(m)
            entries = R.entries.copy()
            entries[0, -1] = 1 - entries[0, -1]
            return cyclotomic.ReductionMatrix(m, entries, R.blocks)

        monkeypatch.setattr(cyclotomic, "reduction_matrix", flip)

    @pytest.mark.parametrize("M", [9, 63])
    def test_kron_check_rejects_flipped_entry(self, flipped, M):
        assert kron_check(make_modulus(M)) is False

    @pytest.mark.parametrize("M", [15, 63, 125])
    def test_verify_rejects_flipped_entry(self, flipped, M):
        report = run_verify(M, suite="matrix", trials=10)
        failed = {c.name for s in report.suites for c in s.checks if not c.passed}
        assert "columns_match_long_division" in failed

    @pytest.mark.parametrize("M", [63, 125])
    def test_verify_all_suites_reject_flipped_entry(self, flipped, M):
        report = run_verify(M, suite="all", trials=10)
        failed = {c.name for s in report.suites for c in s.checks if not c.passed}
        assert {"columns_match_long_division",
                "kronecker_factorization"} <= failed


class TestLongDivisionRows:
    """long_division_rows, one step of synthetic division per x^k, against
    one poly.divrem per x^k (the library's former route)."""

    @pytest.mark.parametrize("M", SUPPORTED_UPTO_300)
    def test_matches_divrem_below_300(self, M):
        m = make_modulus(M)
        assert np.array_equal(cyclotomic.long_division_rows(m),
                              long_division_rows_by_divrem(m))

    @pytest.mark.parametrize("M", [1024, 2039, 2187])
    def test_matches_divrem_at_large_m(self, M):
        m = make_modulus(M)
        got = cyclotomic.long_division_rows(m)
        assert got.dtype == np.int8 and got.shape == (M, m.phi)
        assert np.array_equal(got, long_division_rows_by_divrem(m))

    @pytest.mark.parametrize("M", [9, 63, 125])
    def test_kron_check_rejects_flipped_row_entry(self, monkeypatch, M):
        m = make_modulus(M)
        assert kron_check(m) is True
        good = cyclotomic.long_division_rows

        def flip(m):
            rows = good(m)
            rows[-1, 0] = 1 - rows[-1, 0]
            return rows

        monkeypatch.setattr(cyclotomic, "long_division_rows", flip)
        assert kron_check(m) is False

    def test_row_outside_int8_raises(self):
        # Phi = x^2 + 100x + 1: x^2 = -1 - 100x fits int8, x^3 = 100 + 9999x
        # does not
        m = cyclotomic.CycloModulus(4, None, 2, 4, 1,
                                    np.array([1, 100, 1], dtype=np.int64))
        with pytest.raises(OverflowError, match=r"x\^3"):
            cyclotomic.long_division_rows(m)


class TestMatrixSuiteBlocks:
    """The matrix suite's round trips serialize R_M in parts of rows of at
    most verify._ROUNDTRIP_ENTRIES entries, each its own document;
    entry_range reads the stored int8 entries."""

    @staticmethod
    def _failed(M):
        report = run_verify(M, suite="matrix", trials=10)
        return {c.name for s in report.suites for c in s.checks
                if not c.passed}

    @pytest.mark.parametrize("method, check", [("to_json", "json_roundtrip"),
                                               ("to_csv", "csv_roundtrip")])
    def test_corrupt_second_block_fails(self, monkeypatch, method, check):
        # M = 1024: phi = 512 rows of 1024 entries, parts of 64 rows; the
        # serializer adds 1 to one entry of the second part only, and the
        # round trip stops there
        real = getattr(cyclotomic.ReductionMatrix, method)
        shapes = []

        def corrupt(R):
            shapes.append(R.entries.shape)
            if len(shapes) == 2:
                entries = R.entries.copy()
                entries[-1, 0] += 1
                R = dataclasses.replace(R, entries=entries)
            return real(R)

        monkeypatch.setattr(cyclotomic.ReductionMatrix, method, corrupt)
        assert self._failed(1024) == {check}
        assert shapes == [(64, 1024)] * 2

    @pytest.mark.parametrize("M", [1024, 2039])
    def test_parts_within_budget_cover_every_row(self, monkeypatch, M):
        parts = []
        for method in ("to_json", "to_csv"):
            real, seen = getattr(cyclotomic.ReductionMatrix, method), []
            monkeypatch.setattr(cyclotomic.ReductionMatrix, method,
                                lambda R, real=real, seen=seen:
                                seen.append(R.entries) or real(R))
            parts.append(seen)
        assert not self._failed(M)
        whole = reduction_matrix(make_modulus(M)).entries
        for seen in parts:
            assert all(p.size <= verify._ROUNDTRIP_ENTRIES for p in seen)
            assert np.array_equal(np.concatenate(seen), whole)

    @pytest.mark.parametrize("bad", [2, -128])
    def test_entry_range_rejects_int8_entry(self, monkeypatch, bad):
        good = cyclotomic.reduction_matrix

        def widen(m):
            R = good(m)
            entries = R.entries.copy()
            entries[0, -1] = bad
            return dataclasses.replace(R, entries=entries)

        monkeypatch.setattr(cyclotomic, "reduction_matrix", widen)
        assert "entry_range" in self._failed(15)


def test_verify_runs_each_long_division_once(monkeypatch):
    """kronecker_factorization (lemmas) and the matrix suite's column check
    read one shared set of long-division rows: one long_division_rows per
    run, not one per check."""
    builds, build = [], cyclotomic.long_division_rows
    monkeypatch.setattr(cyclotomic, "long_division_rows",
                        lambda m: builds.append(m.M) or build(m))
    report = run_verify(63, trials=10)
    assert report.all_passed
    assert builds == [63]


def test_verify_builds_each_reduction_matrix_once(monkeypatch):
    """kronecker_factorization (lemmas), the matrix suite and the
    expansion suite read one shared R_M: one reduction_matrix(63) per
    run."""
    builds, build = [], cyclotomic.reduction_matrix
    monkeypatch.setattr(cyclotomic, "reduction_matrix",
                        lambda m: builds.append(m.M) or build(m))
    report = run_verify(63, trials=10)
    assert report.all_passed
    assert builds.count(63) == 1


class TestLazyGenerator:
    """run_verify builds its seeded generator at the first draw."""

    @pytest.fixture
    def no_generator(self, monkeypatch):
        def refuse(seed=None):
            raise AssertionError("generator built")

        monkeypatch.setattr(np.random, "default_rng", refuse)

    def test_matrix_suite_never_draws(self, no_generator):
        assert run_verify(63, "matrix").all_passed

    def test_a_refused_draw_fails_only_its_check(self, no_generator):
        report = run_verify(63, "theorems", trials=10)
        failed = {c.name for s in report.suites for c in s.checks
                  if not c.passed}
        assert failed == {"bezout_agreement_sampled"}


def test_verify_builds_each_shared_table_once(monkeypatch):
    """The lemmas suite's Diophantine table, the expansion suite's sweep
    over k and each reduction matrix, R_63 and R_21, are each computed once
    per run, not once per check."""
    sweeps, sweep = [], expansion.max_expansion_factor
    monkeypatch.setattr(expansion, "max_expansion_factor",
                        lambda m: sweeps.append(m.M) or sweep(m))
    builds, build = collections.Counter(), cyclotomic.reduction_matrix

    def counted(m):
        builds[m.M] += 1
        return build(m)

    # expansion imports reduction_matrix by name
    for module in (cyclotomic, expansion):
        monkeypatch.setattr(module, "reduction_matrix", counted)
    structure.solvable_table.cache_clear()
    report = run_verify(63, trials=10)
    assert report.all_passed
    assert structure.solvable_table.cache_info().misses == 1
    assert sweeps == [63]
    assert builds == {63: 1, 21: 1}


def test_inflation_consistency_catches_a_wrong_matrix_factor(monkeypatch):
    """A wrong factor read from R_63's window at k M' = 3 fails
    inflation_consistency by name: the check compares R_M's windows with
    the report's factors, which are read at the radical."""
    real = expansion._factor

    def wrong(k, m, base_m, base):
        factor, g = real(k, m, base_m, base)
        return factor + (base_m is m and k == 3), g

    monkeypatch.setattr(expansion, "_factor", wrong)
    report = run_verify(63, "expansion", trials=10)
    failed = {c.name for s in report.suites for c in s.checks
              if not c.passed}
    assert failed == {"inflation_consistency"}


def _failed(report):
    """{name: witness} of the failed checks of a verify report."""
    return {c.name: c.witness for s in report.suites for c in s.checks
            if not c.passed}


def _first_gap(edit):
    """A change of NormProfile.gaps: edit(scale, case, norms) of gap 1."""
    return lambda gaps: (edit(*gaps[0]),) + gaps[1:]


class TestTheoremWitnesses:
    """Each theorems check, fed a wrong answer by a patched route, fails
    with its witness while the other checks pass: at M = 25 = 5^2 (scale
    and bound 5 and 4 at every gap) and at M = 21 = 3 7."""

    @pytest.mark.parametrize("edit, witness", [
        (lambda gaps: gaps[:-1], "sweep has 23 gaps, not M - 1 = 24"),
        (_first_gap(lambda scale, case, norms: (scale, case, norms[:-1])),
         "gap 1: 23 pairs, not M - g = 24"),
        (_first_gap(lambda scale, case, norms: (2 * scale, case, norms)),
         f"(i,j)=(1,0): case {scaled_inverse.InverseCase.PRIME_POWER} "
         f"scale 10"),
        (_first_gap(lambda scale, case, norms: (
            scale, case, np.where(np.arange(norms.size) == 3, 5, norms))),
         "(i,j)=(4,3): norm 5 > bound 4")],
        ids=["gap_count", "pair_count", "scale", "norm_above_bound"])
    def test_construction_exhaustive(self, monkeypatch, edit, witness):
        real = scaled_inverse.norm_profile

        def wrong(m):
            profile = real(m)
            return dataclasses.replace(profile, gaps=edit(profile.gaps))

        monkeypatch.setattr(scaled_inverse, "norm_profile", wrong)
        assert _failed(run_verify(25, "theorems", trials=10)) == {
            "construction_exhaustive": witness}

    @pytest.mark.parametrize("alt_edit, u_edit, witness", [
        (lambda c: (c[0] - 1,) + c[1:], None,
         "alternative form constant -2 != -(p-2)"),
        (None, lambda u: 0 * u, "norm 0 below p-2"),
        (lambda c: c[:2] + (c[2] + 1,) + c[3:], None,
         "alternative form differs from constructed inverse")],
        ids=["constant", "norm", "differs"])
    def test_near_tight_witness(self, monkeypatch, alt_edit, u_edit, witness):
        # the pair (i, j) = (M'(p - 1), M'(p - 2)) = (2, 1) at M = 21
        alt, construct = (scaled_inverse.alternative_coprime_form,
                          scaled_inverse.construct_scaled_inverse)
        if alt_edit:
            monkeypatch.setattr(scaled_inverse, "alternative_coprime_form",
                                lambda m: IntPoly(alt_edit(alt(m).coeffs)))
        if u_edit:
            def wrong(i, j, m):
                si = construct(i, j, m)
                if (i, j) != (2, 1):
                    return si
                return dataclasses.replace(si, u=u_edit(si.u))

            monkeypatch.setattr(scaled_inverse, "construct_scaled_inverse",
                                wrong)
        assert _failed(run_verify(21, "theorems", trials=10)) == {
            "near_tight_witness": witness}

    def test_scale_minimality_u(self, monkeypatch):
        # the first generic inverse, minimality's at (1, 0), returns 2u
        real, calls = scaled_inverse.generic_scaled_inverse, []

        def doubled_once(a):
            gen = real(a)
            calls.append(a)
            if len(calls) == 1:
                gen = dataclasses.replace(gen, u=2 * gen.u)
            return gen

        monkeypatch.setattr(scaled_inverse, "generic_scaled_inverse",
                            doubled_once)
        assert _failed(run_verify(25, "theorems", trials=10)) == {
            "scale_minimality": "(i,j)=(1,0): constructed and minimal u differ"}

    @pytest.mark.parametrize("edit, witness", [
        (lambda si: dataclasses.replace(si, scale=si.scale + 1),
         r"\(i,j\)=\(\d+,\d+\): scales 6 vs 5"),
        (lambda si: dataclasses.replace(si, u=-si.u),
         r"\(i,j\)=\(\d+,\d+\): residues not proportional")],
        ids=["scales", "residues"])
    def test_bezout_agreement_sampled(self, monkeypatch, edit, witness):
        # every construct at j > 0, which only the sampled pairs ask for
        construct = scaled_inverse.construct_scaled_inverse

        def wrong(i, j, m):
            si = construct(i, j, m)
            return edit(si) if j else si

        monkeypatch.setattr(scaled_inverse, "construct_scaled_inverse", wrong)
        failed = _failed(run_verify(25, "theorems", trials=10))
        assert list(failed) == ["bezout_agreement_sampled"]
        assert re.fullmatch(witness, failed["bezout_agreement_sampled"])


def test_factor_closed_form_witness(monkeypatch):
    """A max factor above 2p fails factor_closed_form with its witness;
    witness_attains_max, which reads the same maximum off R_M, fails too."""
    real = expansion.max_expansion_factor
    monkeypatch.setattr(
        expansion, "max_expansion_factor",
        lambda m: dataclasses.replace(real(m), max_factor=7))
    assert _failed(run_verify(21, "expansion", trials=10)) == {
        "factor_closed_form": "max factor 7 above the 2p row bound",
        "witness_attains_max": "predicate returned false"}
