import json

import numpy as np
import pytest

import cycloring

from cycloring import (PrimePower, TwoPrime, element,
                       kron_check, make_modulus, monomial_diff,
                       monomial_reduce, reduce, reduction_matrix, ring_mul)
from cycloring import cyclotomic
from cycloring.errors import (ModulusMismatch, ModulusTooLarge, NotApplicable,
                              UnsupportedModulus)
from cycloring.poly import IntPoly

from oracles import cyclotomic_divisor_loop


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
            assert m.poly == cyclotomic_divisor_loop(m.M), f"M={m.M}"
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

    def test_cache_is_bounded(self):
        assert make_modulus.cache_info().maxsize is not None

    def test_shape_metadata(self):
        m = make_modulus(45)
        assert m.shape == TwoPrime(3, 2, 5, 1)
        assert m.radical == 15 and m.inflation == 3
        assert m.phi == 24


class TestReduce:
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

    def test_monomial_diff(self):
        m = make_modulus(15)
        got = monomial_diff(2, 1, m)
        assert got.to_poly() == IntPoly((0, -1, 1))


class TestElementValidation:
    def test_wrong_length_vector_rejected(self):
        m = make_modulus(15)
        with pytest.raises(ValueError):
            cycloring.RingElement(m, (1, 2, 3))

    def test_kron_not_applicable_for_prime(self):
        with pytest.raises(NotApplicable):
            kron_check(make_modulus(7))
