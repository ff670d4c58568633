import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cycloring import poly
from cycloring.poly import (IntPoly, _bezout_images, _is_prime, divrem,
                            exact_div, resultant_bezout, root_primes)
from cycloring.errors import InexactDivision, NotCoprime, ZeroPolynomial

from oracles import (RatPoly, bezout_image, cyclotomic_divisor_loop,
                     diophantine_bit, fraction_bezout, resultant_oracle,
                     schoolbook_mul)


def P(*coeffs):
    return IntPoly(coeffs)


def _prime(k):
    """The k-th prime of root_primes(1), resultant_bezout's supply:
    _prime(0) = 2^31 - 1, then every prime below it in turn."""
    return next(itertools.islice(root_primes(1), k, None))


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestBasics:
    def test_zero_degree_sentinel(self):
        assert IntPoly().degree == float("-inf")
        assert IntPoly((0, 0)).degree == float("-inf")
        assert IntPoly((5,)).degree == 0

    def test_canonical_trim(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)

    @pytest.mark.parametrize("coeffs", [(0.5, 1), (1, 2.0), (Fraction(1, 2),)])
    def test_non_integer_coefficient_refused(self, coeffs):
        with pytest.raises(TypeError):
            IntPoly(coeffs)

    def test_numpy_integers_become_python_ints(self):
        a = IntPoly(np.array([2 ** 62, 1, 0], dtype=np.int64))
        assert a.coeffs == (2 ** 62, 1)
        assert all(type(c) is int for c in a.coeffs)
        assert (a + a).coeffs == (2 ** 63, 2)

    def test_mul_difference_of_squares(self):
        assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)

    def test_mul_absorbing_zero(self):
        assert P(3, 1) * IntPoly() == IntPoly()

    def test_mul_for_ring_example(self):
        # (x-1)(-x-1) = -x^2 + 1; reducing mod x^2 + 1 leaves the constant 2
        prod = P(-1, 1) * P(-1, -1)
        assert prod == P(1, 0, -1)
        _, rem = divrem(prod, P(1, 0, 1))
        assert rem == P(2)

    def test_str(self):
        assert str(P(1, -1, 0, 1, -1, 1, 0, -1, 1)) \
            == "x^8 - x^7 + x^5 - x^4 + x^3 - x + 1"
        assert str(IntPoly()) == "0"


class TestKroneckerMul:
    """IntPoly * IntPoly (Kronecker substitution) against the schoolbook loop."""

    @staticmethod
    def _random(rng, n, mag):
        return IntPoly([rng.randint(-mag, mag) for _ in range(n)])

    def test_lengths_1_to_64_big_mixed_signs(self):
        rng = random.Random(20261018)
        for la in range(1, 65):
            for mag in (1, 5, 10 ** 30):
                lb = rng.randint(1, 64)
                a, b = self._random(rng, la, mag), self._random(rng, lb, mag)
                assert a * b == schoolbook_mul(a, b), (la, lb, mag)
                assert b * a == schoolbook_mul(a, b), (la, lb, mag)

    @pytest.mark.parametrize("c", [1, -1, 7, -10 ** 30])
    def test_constant_operand(self, c):
        a = self._random(random.Random(c), 40, 10 ** 30)
        assert IntPoly((c,)) * a == schoolbook_mul(IntPoly((c,)), a)
        assert a * IntPoly((c,)) == a * c

    def test_two_term_operands(self):
        rng = random.Random(2)
        u = self._random(rng, 64, 10 ** 30)
        for two in (P(1, 0, 0, -1), P(-1, 1), P(0, 10 ** 30, -10 ** 30),
                    IntPoly.monomial(63, -3) - 5):
            assert two * u == schoolbook_mul(two, u)
            assert u * two == schoolbook_mul(u, two)

    def test_extreme_digits(self):
        # every product coefficient at +bound and at -bound
        for sa, sb in ((1, 1), (1, -1)):
            a = IntPoly([sa * 10 ** 30] * 17)
            b = IntPoly([sb * 10 ** 30] * 17)
            assert a * b == schoolbook_mul(a, b)

    def test_zero_operands(self):
        a = P(3, -1, 4)
        assert (a * IntPoly()).is_zero() and (IntPoly() * a).is_zero()
        assert (IntPoly() * IntPoly()).is_zero()

    def test_dense_phi_1458(self):
        rng = random.Random(1458)
        a, b = self._random(rng, 1458, 5), self._random(rng, 1458, 5)
        assert a * b == schoolbook_mul(a, b)

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=24),
           st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=24))
    @settings(max_examples=200)
    def test_matches_schoolbook_property(self, ac, bc):
        a, b = IntPoly(ac), IntPoly(bc)
        assert a * b == schoolbook_mul(a, b)


class TestExactDiv:
    def test_telescoping(self):
        assert exact_div(P(-1, 0, 1), P(-1, 1)) == P(1, 1)

    def test_cyclotomic_quotient_matches_diophantine(self):
        phi15 = cyclotomic_divisor_loop(15)
        quot = exact_div(phi15 - 1, P(-1, 1))
        want = IntPoly(tuple(diophantine_bit(i, 3, 5) for i in range(8)))
        assert quot == want == P(0, 1, 1, 0, 1, 0, 0, 1)

    def test_inexact_remainder(self):
        with pytest.raises(InexactDivision):
            exact_div(P(1, 0, 1), P(-1, 1))

    def test_inexact_leading_coefficient(self):
        with pytest.raises(InexactDivision):
            exact_div(P(0, 0, 1), P(0, 2))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroPolynomial):
            exact_div(P(1), IntPoly())


class TestRevContentInflate:
    def test_rev_definition(self):
        assert P(1, 2, 3).rev() == P(3, 2, 1)

    def test_rev_palindromic_cyclotomic(self):
        phi15 = cyclotomic_divisor_loop(15)
        assert phi15.rev() == phi15

    def test_rev_monomial_collapses(self):
        assert P(0, 0, 1).rev() == P(1)

    def test_rev_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            IntPoly().rev()

    def test_inflate(self):
        assert P(1, 1).inflate(3) == P(1, 0, 0, 1)
        assert P(2, -1, 3).inflate(1) == P(2, -1, 3)

    def test_inflate_cyclotomic_identity(self):
        # Phi_5(x^3) = (x^15 - 1)/(x^3 - 1)
        lhs = cyclotomic_divisor_loop(5).inflate(3)
        rhs = exact_div(IntPoly.monomial(15) - 1, IntPoly.monomial(3) - 1)
        assert lhs == rhs

    def test_max_norm(self):
        assert P(0, 1, 1, 0, 1, 0, 0, 1).max_norm() == 1
        assert IntPoly().max_norm() == 0
        assert P(2, -3).max_norm() == 3


class TestResultantBezout:
    def test_worked_example(self):
        r, s = resultant_bezout(P(-1, 1), P(1, 0, 1))
        assert r == 2
        assert s == P(-1, -1)
        _, _, st_ = fraction_bezout(P(-1, 1), P(1, 0, 1))
        assert st_ == RatPoly((Fraction(-1, 2), Fraction(-1, 2)))

    def test_unit(self):
        r, s = resultant_bezout(P(1), P(1, 0, 1))
        _, _, st_ = fraction_bezout(P(1), P(1, 0, 1))
        assert r == 1 and s == P(1) and st_ == RatPoly((1,))

    def test_monomial_inverse(self):
        r, s = resultant_bezout(P(0, 1), P(1, 0, 1))
        assert r == 1 and s == P(0, -1)

    def test_zero_a_not_coprime(self):
        with pytest.raises(NotCoprime):
            resultant_bezout(IntPoly(), P(1, 0, 1))

    def test_common_factor_detected(self):
        # f = (x-1)(x+1) shares x-1 with a
        with pytest.raises(NotCoprime):
            resultant_bezout(P(-1, 1), P(-1, 0, 1))

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            resultant_bezout(P(1, 0, 1), P(-1, 1))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=2, max_size=5))
    @settings(max_examples=150)
    def test_matches_sylvester_oracle(self, ac, fc):
        a, f = IntPoly(ac), IntPoly(fc)
        if a.is_zero() or f.degree < 1 or not a.degree < f.degree:
            return
        try:
            r, s = resultant_bezout(a, f)
        except NotCoprime:
            assert resultant_oracle(a, f) == 0
            return
        assert r == resultant_oracle(a, f)
        # r * stilde from the rational EEA recovers s exactly, and s*a = r
        # holds mod f
        _, _, st_ = fraction_bezout(a, f)
        assert st_.scaled_by(r).to_int_poly() == s
        _, rem = divrem(s * a - r, f)
        assert rem.is_zero()
        assert s.degree < f.degree


def record_batches(monkeypatch, dead=(), nested=None):
    """Patch poly._bezout_images to log (prime, image) for every prime of
    every batch that resultant_bezout asks for, in order; the image of each
    prime in dead is replaced by (0, None), as if the prime divided the
    resultant. The batches that _bezout_images re-runs on its own dropped
    primes are not in that log: they go to nested, when given, as
    (depth, primes) in call order, depth 1 for a sub-batch of a logged
    batch. Call _bezout_images as poly._bezout_images, so that the outer
    call is the logged one."""
    calls = []
    images = poly._bezout_images
    depth = 0

    def logged(a, f, primes):
        nonlocal depth
        if depth and nested is not None:
            nested.append((depth, list(primes)))
        depth += 1
        try:
            out = images(a, f, primes)
        finally:
            depth -= 1
        if depth:
            return out
        out = [(0, None) if ell in dead else img
               for ell, img in zip(primes, out)]
        calls.extend(zip(primes, out))
        return out

    monkeypatch.setattr(poly, "_bezout_images", logged)
    return calls


def hadamard_need(a, f):
    """(2H)^2, the stop of resultant_bezout."""
    return (4 * sum(c * c for c in a.coeffs) ** f.degree
            * sum(c * c for c in f.coeffs) ** a.degree)


class TestMultimodular:
    def test_primes_count_down_from_mersenne_31(self):
        assert _prime(0) == 2 ** 31 - 1
        ps = [_prime(k) for k in range(4)]
        assert ps == sorted(ps, reverse=True)
        for lo, hi in zip(ps[1:], ps):
            assert all(not _is_prime(n) for n in range(lo + 1, hi))
        assert all(p.bit_length() == 31 for p in ps)

    def test_miller_rabin_small_and_composite(self):
        small = [n for n in range(200) if _is_prime(n)]
        assert small == [n for n in range(2, 200)
                         if all(n % d for d in range(2, n))]
        # strong pseudoprimes to several of the bases
        for n in (3215031751, 3825123056546413051, (2 ** 61 - 1) * 3):
            assert not _is_prime(n)

    def test_skip_when_prime_divides_resultant(self):
        # res(x - 2, x^2 + 1) = 5: the chain dies mod 5
        a, f = (-2, 1), (1, 0, 1)
        assert resultant_oracle(IntPoly(a), IntPoly(f)) == 5
        assert _bezout_images(a, f, [5]) == [(0, None)] == [
            bezout_image(a, f, 5)]
        # mod 7 the image is r = 5, s = -x - 2, since (x - 2)(-x - 2) = 5
        assert _bezout_images(a, f, [7]) == [(5, [5, 6])] == [
            bezout_image(a, f, 7)]

    def test_skip_when_prime_divides_leading_coefficient(self, monkeypatch):
        # the first primes divide lc(f), or lc(a) and lc(f) one each:
        # resultant_bezout never puts them in a batch
        p0, p1 = _prime(0), _prime(1)
        calls = record_batches(monkeypatch)
        for a, f, skipped in ((P(1, 1), P(1, 0, p0), {p0}),
                              (P(1, p0), P(1, 0, p1), {p0, p1})):
            calls.clear()
            r, s = resultant_bezout(a, f)
            assert calls[0][0] == _prime(len(skipped))
            assert not skipped & {ell for ell, _ in calls}
            assert r == resultant_oracle(a, f)
            assert divrem(s * a - r, f)[1].is_zero()

    def test_image_matches_integral_pair(self):
        rng = random.Random(11)
        f = cyclotomic_divisor_loop(21)
        for _ in range(20):
            a = IntPoly([rng.randint(-9, 9) for _ in range(12)])
            r, s = resultant_bezout(a, f)
            s_pad = s.coeffs + (0,) * (12 - len(s.coeffs))
            # |lc(a)| <= 9 and f is monic, so no prime here divides a
            # leading coefficient
            primes = [_prime(0), 101, 10007]
            images = _bezout_images(a.coeffs, f.coeffs, primes)
            for ell, image in zip(primes, images):
                if r % ell == 0:
                    assert image == (0, None)
                else:
                    assert image == (r % ell, [c % ell for c in s_pad])

    def test_unlucky_primes_skipped_in_the_loop(self, monkeypatch):
        ell = 2 ** 31 - 1
        # calls logs the batches that resultant_bezout asks for, nested the
        # sub-batches that _bezout_images re-runs on its dropped primes
        nested = []
        calls = record_batches(monkeypatch, nested=nested)
        # lc(a) = ell: the first prime is skipped for its leading
        # coefficient and never joins a batch or a sub-batch
        a, f = P(1, ell), P(1, 0, 1)
        r, s = resultant_bezout(a, f)
        assert calls[0][0] == _prime(1)
        assert ell not in [p for p, _ in calls]
        assert nested == []
        assert r == resultant_oracle(a, f)
        assert divrem(s * a - r, f)[1].is_zero()
        # res(x - 1, x^2 + ell - 1) = ell: the first prime divides r, its
        # chain dies where the rest of the batch keeps a constant, so it
        # leaves the batch, and its own sub-batch finds it dead
        calls.clear()
        a, f = P(-1, 1), P(ell - 1, 0, 1)
        r, s = resultant_bezout(a, f)
        assert calls[0] == (ell, (0, None))
        assert nested == [(1, [ell])]
        assert abs(r) == ell == abs(resultant_oracle(a, f))
        assert divrem(s * a - r, f)[1].is_zero()

    def test_not_coprime_only_through_the_bound(self, monkeypatch):
        # a and f share x - 1, and the Hadamard bound needs four primes
        common = P(-1, 1)
        a = common * P(7, 1000, 0, 1)
        f = common * P(-3, 999, 0, 0, 1000, 1)
        need = hadamard_need(a, f)
        calls = record_batches(monkeypatch)
        with pytest.raises(NotCoprime):
            resultant_bezout(a, f)
        assert all(out == (0, None) for _, out in calls)
        dead = 1
        for k, (ell, _) in enumerate(calls):
            assert ell == _prime(k)
            assert dead * dead <= need
            dead *= ell
        assert dead * dead > need
        assert len(calls) == 4

    def test_prime_count_follows_the_bound(self, monkeypatch):
        f = cyclotomic_divisor_loop(63)
        a = IntPoly([(-1) ** k * (k % 6) for k in range(36)])
        need = hadamard_need(a, f)
        calls = record_batches(monkeypatch)
        resultant_bezout(a, f)
        mod = 1
        for ell, _ in calls:
            assert mod * mod <= need
            mod *= ell
        assert mod * mod > need

    def test_certificate_failure_raises(self, monkeypatch):
        images = poly._bezout_images

        def corrupt(a, f, primes):
            return [(r, [s[0] + 1] + s[1:]) for r, s in images(a, f, primes)]

        monkeypatch.setattr(poly, "_bezout_images", corrupt)
        with pytest.raises(AssertionError, match="Bezout identity"):
            resultant_bezout(P(-1, 1), P(1, 0, 1))


class TestBatchedImages:
    """_bezout_images, one EEA over a batch of primes, against the scalar
    EEA of the oracle at each prime."""

    def test_each_image_equals_the_scalar_one(self):
        rng = random.Random(13)
        primes = [_prime(k) for k in range(4)] + [3, 5, 7, 11, 13, 101]
        for _ in range(60):
            n = rng.randint(1, 9)
            f = tuple(rng.randint(-9, 9) for _ in range(n)) + (1,)
            a = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, n)))
            a = IntPoly(a).coeffs
            if not a or any(a[-1] % p == 0 for p in primes):
                continue
            got = _bezout_images(a, f, primes)
            assert got == [bezout_image(a, f, ell) for ell in primes], (a, f)

    def test_wide_coefficients(self):
        a, f = (10 ** 30, -7, 3), (2 ** 70 + 1, 5, 0, -(10 ** 25), 1)
        primes = [_prime(k) for k in range(3)]
        assert _bezout_images(a, f, primes) == [
            bezout_image(a, f, ell) for ell in primes]

    def test_abnormal_prime_leaves_the_batch(self, monkeypatch):
        # mod 7 a remainder of the chain drops a degree that it keeps mod
        # 101 and 103, though 7 does not divide the resultant 77976 and
        # 103, so 7 alone is re-run as a sub-batch
        a, f = (6, -9, 3, 1), (6, 3, -3, -6, 1)
        nested = []
        record_batches(monkeypatch, nested=nested)
        got = poly._bezout_images(a, f, [101, 7, 103])
        assert nested == [(1, [7])]
        assert got[1] == bezout_image(a, f, 7) == (77976 % 7, got[1][1])
        r, s = resultant_bezout(IntPoly(a), IntPoly(f))
        assert r == 77976 == resultant_oracle(IntPoly(a), IntPoly(f))
        for ell, (rl, sl) in zip([101, 7, 103], got):
            assert (rl, sl) == (r % ell, [c % ell for c in s.coeffs])

    def test_dead_prime_leaves_the_batch(self, monkeypatch):
        # res(x - 2, x^2 + 1) = 5: mod 5 the chain dies, mod 7 and 11 not,
        # so 5 alone is re-run as a sub-batch, which finds it dead
        nested = []
        record_batches(monkeypatch, nested=nested)
        got = poly._bezout_images((-2, 1), (1, 0, 1), [7, 5, 11])
        assert nested == [(1, [5])]
        assert got == [(5, [5, 6]), (0, None), (5, [9, 10])]
        # a batch whose chains all die at once is dead throughout, with no
        # sub-batch: 5 alone here, and every prime for x - 1 against x^2 - 1
        nested.clear()
        assert poly._bezout_images((-2, 1), (1, 0, 1), [5]) == [(0, None)]
        assert poly._bezout_images((-1, 1), (-1, 0, 1), [5, 7, 11]) == [
            (0, None)] * 3
        assert nested == []

    def test_sub_batch_that_drops_again(self, monkeypatch):
        # found by a seeded search over small a, f and primes: 5 and 7
        # leave the batch together, then 5 leaves their sub-batch; 3 and
        # 13, 19, 23 leave the batch at later steps
        a, f = (3, 9, 6, 2, -4, 2, -2, 8), (-9, -3, 7, -7, -5, 9, -2, 0, 1)
        primes = [3, 5, 7, 11, 13, 17, 19, 23]
        nested = []
        record_batches(monkeypatch, nested=nested)
        got = poly._bezout_images(a, f, primes)
        assert nested == [(1, [5, 7]), (2, [5]), (1, [3]), (1, [13, 19, 23])]
        assert got == [bezout_image(a, f, ell) for ell in primes]
        r = resultant_oracle(IntPoly(a), IntPoly(f))
        assert [img[0] for img in got] == [r % ell for ell in primes]

    def test_dead_primes_are_counted_toward_the_bound(self, monkeypatch):
        # res = p1 p2 (the second and third primes): both die in the first
        # batch and a second batch makes up the product
        # calls logs the batches that resultant_bezout asks for; p1 and p2
        # leave the first one together as a sub-batch, which finds both dead
        p1, p2 = _prime(1), _prime(2)
        a, f = P(-1, 1), P(p1 * p2 - 1, 0, 1)
        nested = []
        calls = record_batches(monkeypatch, nested=nested)
        r, s = resultant_bezout(a, f)
        assert nested == [(1, [p1, p2])]
        assert r == p1 * p2 == resultant_oracle(a, f)
        assert divrem(s * a - r, f)[1].is_zero()
        assert [out for ell, out in calls if ell in (p1, p2)] == [(0, None)] * 2
        usable = [ell for ell, out in calls if out[1] is not None]
        mod = math.prod(usable)
        assert mod * mod > hadamard_need(a, f)
        assert mod * mod // (usable[-1] ** 2) <= hadamard_need(a, f)

    def test_not_coprime_exactly_when_dead_primes_pass_the_bound(
            self, monkeypatch):
        # coprime a and f; primes forced dead count toward the bound: one
        # short of 2H the result is exact, at 2H NotCoprime is raised
        f = cyclotomic_divisor_loop(21)
        a = IntPoly([3, -1, 4, 1, -5, 9, -2, 6])
        need = hadamard_need(a, f)
        want = resultant_bezout(a, f)
        k, dead = 0, 1
        while dead * dead <= need:
            dead *= _prime(k)
            k += 1
        short = {_prime(t) for t in range(k - 1)}
        record_batches(monkeypatch, dead=short)
        assert resultant_bezout(a, f) == want
        monkeypatch.undo()
        record_batches(monkeypatch, dead=short | {_prime(k - 1)})
        with pytest.raises(NotCoprime):
            resultant_bezout(a, f)


class TestInvariants:
    @given(nonzero_polys, nonzero_polys)
    def test_mul_norm_bound(self, a, b):
        lhs = (a * b).max_norm()
        rhs = (int(min(a.degree, b.degree)) + 1) * a.max_norm() * b.max_norm()
        assert lhs <= rhs

    @given(small_polys, nonzero_polys)
    def test_exact_div_round_trip(self, a, b):
        assert exact_div(a * b, b) == a

    @given(nonzero_polys)
    def test_rev_involution(self, a):
        if a.coeffs[0] != 0:
            assert a.rev().rev() == a

    @given(small_polys, st.integers(1, 4), st.integers(-2, 2))
    def test_inflate_evaluation(self, a, m, x0):
        assert a.inflate(m).evaluate(x0) == a.evaluate(x0 ** m)
