import numpy as np
import pytest

from cycloring import (cyclotomic, element, expansion, make_modulus,
                       max_expansion_factor, monomial_expansion_factor,
                       monomial_reduce, randomized_expansion_check,
                       reduction_matrix, ring_mul)
from oracles import randomized_expansion_matmul


class TestPerExponentFactor:
    @pytest.mark.parametrize("M", [2, 4, 8, 16, 32])
    def test_power_of_two_always_one(self, M):
        m = make_modulus(M)
        for k in range(M):
            factor, _ = monomial_expansion_factor(k, m)
            assert factor == 1

    def test_m9_witness_exponent(self):
        m = make_modulus(9)
        factor, witness = monomial_expansion_factor(6, m)
        assert factor == 2
        # the skewed difference 1 - x^3 doubles under x^6 as well
        g = element(m, (1, 0, 0, -1, 0, 0))
        prod = ring_mul(monomial_reduce(6, m), g)
        assert prod.max_norm() == 2 == factor * g.max_norm()
        assert witness.max_norm() == 1

    def test_m21_witness_exponent(self):
        m = make_modulus(21)
        factor, witness = monomial_expansion_factor(11, m)
        assert factor == 6
        g = element(m, (1, 1, 1, 0, 0, 0, 0, -1, -1, -1, 0, 0))
        prod = ring_mul(monomial_reduce(11, m), g)
        assert prod.max_norm() == 6 == factor * g.max_norm()
        prod_w = ring_mul(monomial_reduce(11, m), witness)
        assert prod_w.max_norm() == factor

    def test_identity_exponent(self):
        m = make_modulus(15)
        factor, _ = monomial_expansion_factor(0, m)
        assert factor == 1

    def test_periodicity(self):
        m = make_modulus(15)
        for k in (1, 7, 11):
            f1, _ = monomial_expansion_factor(k, m)
            f2, _ = monomial_expansion_factor(k + 15, m)
            f3, _ = monomial_expansion_factor(k - 15, m)
            assert f1 == f2 == f3


class TestMaxFactor:
    @pytest.mark.parametrize("M,expect", [(8, 1), (16, 1), (32, 1),
                                          (9, 2), (27, 2), (25, 2), (49, 2),
                                          (15, 6), (21, 6), (33, 6), (45, 6),
                                          (63, 6), (35, 10)])
    def test_closed_forms(self, M, expect):
        report = max_expansion_factor(make_modulus(M))
        assert report.max_factor == expect
        assert max(report.per_k) == expect
        assert report.per_k[report.witness_k] == expect

    @pytest.mark.parametrize("M", [2, 4, 6, 9, 15, 16, 21, 45, 63, 75])
    def test_per_k_matches_windowed_columns(self, M):
        # the cumulative-sum sweep against one explicit window per k
        m = make_modulus(M)
        report = max_expansion_factor(m)
        assert report.per_k == tuple(monomial_expansion_factor(k, m)[0]
                                     for k in range(M))

    def test_even_two_prime_reported_not_asserted(self):
        # p = 2 breaks the doubling witness; M = 6 tops out at 2, not 2p = 4
        report = max_expansion_factor(make_modulus(6))
        assert report.max_factor == 2

    def test_witness_verifies_by_multiplication(self):
        m = make_modulus(45)
        report = max_expansion_factor(m)
        prod = ring_mul(monomial_reduce(report.witness_k, m), report.witness_g)
        assert prod.max_norm() == report.max_factor
        assert report.witness_g.max_norm() == 1

    @pytest.mark.parametrize("M", [9, 27, 45, 63, 75])
    def test_inflation_consistency(self, M):
        m = make_modulus(M)
        rad = make_modulus(m.radical)
        for k in range(rad.M):
            fr, _ = monomial_expansion_factor(k, rad)
            fm, _ = monomial_expansion_factor(k * m.inflation, m)
            assert fr == fm


    def test_verify_builds_each_matrix_once_per_use(self, monkeypatch):
        # run_verify(63, "expansion") builds R_M three times for the max
        # sweeps, once per randomized or witness factor (at most 8 + 1) and
        # R_63, R_21 once each for inflation_consistency: 14 at most
        import numpy as np
        from cycloring.verify import run_verify
        real, builds = np.kron, []

        def counted(*args, **kwargs):
            builds.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counted)
        assert run_verify(63, "expansion").all_passed
        assert len(builds) <= 14


class TestRandomizedOracle:
    def test_m9_thousand_trials(self):
        assert randomized_expansion_check(6, make_modulus(9), 1000) is True

    def test_all_exponents_m15(self):
        m = make_modulus(15)
        for k in range(15):
            assert randomized_expansion_check(k, m, 200) is True

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            randomized_expansion_check(1, make_modulus(9), 0)

    @pytest.mark.parametrize("M,k,trials,seed", [
        (9, 6, 1000, 1729), (15, 0, 200, 7), (21, 11, 500, 99),
        (35, 34, 300, 1729), (63, 40, 200, 3), (121, 5, 100, 11),
        (1024, 700, 20, 1729)])
    def test_products_match_matmul_oracle(self, M, k, trials, seed,
                                          monkeypatch):
        """One batched reduction gives the R_M-window matmul's products
        for the same random g, and the same verdict."""
        m = make_modulus(M)
        gs, want = randomized_expansion_matmul(k, m, trials, seed)
        assert np.array_equal(expansion._shifted_products(k, m, gs), want)
        seen = []
        real = expansion._shifted_products
        monkeypatch.setattr(expansion, "_shifted_products",
                            lambda k, m, g: seen.append(g) or real(k, m, g))
        assert randomized_expansion_check(k, m, trials, seed) is True
        assert np.array_equal(np.concatenate(seen), gs)

    def test_one_block_draws_ternary_then_bounded(self):
        """A check that fits in one block (verify's default trials) draws
        trials // 2 ternary rows, then the rest in [-10, 10], each trial
        once."""
        m, trials = make_modulus(1024), 125
        rng = np.random.default_rng(1729)
        want = np.concatenate([
            rng.integers(-1, 2, size=(trials // 2, m.phi)),
            rng.integers(-10, 11, size=(trials - trials // 2, m.phi))])
        [gs] = expansion._random_rows(m, trials, 1729)
        assert np.array_equal(gs, want)

    @pytest.mark.parametrize("M, k, trials", [(1024, 700, 2000),
                                              (35, 34, 20000)])
    def test_trials_drawn_in_blocks(self, M, k, trials, monkeypatch):
        """Many trials are drawn and reduced in blocks: no _shifted_products
        call takes more than _UNIT_BLOCK // M rows, and together they take
        the oracle's g (1024: 8 blocks of 256; 35: 3 of 7489)."""
        m = make_modulus(M)
        gs, _ = randomized_expansion_matmul(k, m, trials, 1729)
        seen = []
        real = expansion._shifted_products
        monkeypatch.setattr(expansion, "_shifted_products",
                            lambda k, m, g: seen.append(g) or real(k, m, g))
        assert randomized_expansion_check(k, m, trials) is True
        step = cyclotomic._UNIT_BLOCK // M
        assert len(seen) == -(-trials // step) > 1
        assert all(len(g) <= step for g in seen)
        assert np.array_equal(np.concatenate(seen), gs)

    def test_given_entries_are_used(self, monkeypatch):
        """With R_M's entries given, no R_M is built."""
        m = make_modulus(63)
        entries = reduction_matrix(m).entries
        monkeypatch.setattr(expansion, "reduction_matrix", None)
        assert randomized_expansion_check(40, m, 100, 5, entries) is True

    def test_deterministic_given_seed(self):
        m = make_modulus(21)
        a = randomized_expansion_check(11, m, 500, seed=99)
        b = randomized_expansion_check(11, m, 500, seed=99)
        assert a == b is True
