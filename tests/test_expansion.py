import numpy as np
import pytest

from cycloring import (cyclotomic, element, expansion, make_modulus,
                       max_expansion_factor, monomial_expansion_factor,
                       monomial_reduce, randomized_expansion_check,
                       reduction_matrix, ring_mul)
from cycloring.errors import MatrixTooLarge, UnsupportedModulus
from oracles import (expansion_by_matrix, monomial_factors_by_matrix,
                     randomized_expansion_matmul)


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
        # run_verify(63, "expansion") builds R_21 once for the max sweep,
        # which the suite's checks share and which reads the factors at
        # the radical, and R_63 once for the checks' second route (the
        # witness, the randomized factors and inflation_consistency):
        # R_21 = R_21 kron I_1 and R_M = R_21 kron I_3 are built once each
        from cycloring.verify import run_verify
        real, builds = np.kron, []

        def counted(*args, **kwargs):
            builds.append(args[1].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counted)
        assert run_verify(63, "expansion").all_passed
        assert builds == [1, 3]


class TestRadicalAgainstMatrix:
    """The factors read at the radical equal the former route's over the
    full R_M (tests/oracles.py), witnesses included, bit for bit."""

    def test_every_supported_modulus_below_700(self):
        checked = 0
        for M in range(2, 700):
            try:
                m = make_modulus(M)
            except UnsupportedModulus:
                continue
            r = max_expansion_factor(m)
            assert ((r.per_k, r.max_factor, r.witness_k, r.witness_g.coeffs)
                    == expansion_by_matrix(m)), M
            checked += 1
        assert checked == 511

    @pytest.mark.parametrize("M", [12, 63, 72, 100, 125, 243, 2187])
    def test_every_exponent(self, M):
        m = make_modulus(M)
        got = [monomial_expansion_factor(k, m) for k in range(M)]
        assert ([(f, w.coeffs) for f, w in got]
                == monomial_factors_by_matrix(m))


def _one_entry(g):
    g = g.copy()
    g[np.flatnonzero(g)[1:]] = 0
    return g


class TestReverification:
    """A factor or a witness that the shifted reduction of x^k g does not
    confirm raises, on the radical's route and on R_M's."""

    @pytest.mark.parametrize("tamper", [
        lambda f, g: (f + 1, g),
        # cut to its first nonzero entry, a monomial of norm 1 < factor
        lambda f, g: (f, _one_entry(g))])
    @pytest.mark.parametrize("M, k", [(63, 33), (2187, 1458), (35, 11)])
    def test_tampered_witness_raises(self, M, k, tamper, monkeypatch):
        real = expansion._verified
        monkeypatch.setattr(expansion, "_verified",
                            lambda k, m, f, g: real(k, m, *tamper(f, g)))
        m = make_modulus(M)
        with pytest.raises(AssertionError, match="re-verification"):
            monomial_expansion_factor(k, m)
        with pytest.raises(AssertionError, match="re-verification"):
            expansion._factor(k, m, m, reduction_matrix(m).entries)


class TestBuildsOnlyTheRadical:
    ROUTES = [max_expansion_factor,
              lambda m: monomial_expansion_factor(m.M // 3 + 1, m),
              lambda m: randomized_expansion_check(m.M // 3 + 1, m, 20)]

    @pytest.mark.parametrize("M", [63, 2187, 59049])
    @pytest.mark.parametrize("route", range(len(ROUTES)))
    def test_no_r_m(self, M, route, monkeypatch):
        built, real = [], expansion.reduction_matrix
        monkeypatch.setattr(expansion, "reduction_matrix",
                            lambda m: built.append(m.M) or real(m))
        m = make_modulus(M)
        self.ROUTES[route](m)
        assert built == [m.radical]

    def test_59049_above_the_r_m_ceiling(self):
        # R_59049 would have 59049 * 39366 cells, 550 times the ceiling
        m = make_modulus(59049)
        with pytest.raises(MatrixTooLarge):
            cyclotomic.check_matrix_cells(m)
        report = max_expansion_factor(m)
        assert report.max_factor == 2 and report.witness_k == 39366
        assert len(report.per_k) == 59049

    def test_refused_by_the_radicals_cells(self, monkeypatch):
        """M = 4 * 262139 is not squarefree, but its radical's R_rad is
        above the ceiling: refused before any allocation."""
        def allocate(*args):
            raise AssertionError("allocated")
        monkeypatch.setattr(cyclotomic, "_monomial_rows", allocate)
        m = make_modulus(4 * 262139)
        for route in self.ROUTES:
            with pytest.raises(MatrixTooLarge, match="M=524278"):
                route(m)


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
        for the same random g, and the same verdict. The first shifted
        reduction is the witness's re-verification."""
        m = make_modulus(M)
        gs, want = randomized_expansion_matmul(k, m, trials, seed)
        assert np.array_equal(expansion._shifted_products(k, m, gs), want)
        _, witness = monomial_expansion_factor(k, m)
        seen = []
        real = expansion._shifted_products
        monkeypatch.setattr(expansion, "_shifted_products",
                            lambda k, m, g: seen.append(g) or real(k, m, g))
        assert randomized_expansion_check(k, m, trials, seed) is True
        assert seen[0].tolist() == [list(witness.coeffs)]
        assert np.array_equal(np.concatenate(seen[1:]), gs)

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
        the oracle's g (1024: 8 blocks of 256; 35: 3 of 7489), after the
        witness's one-row re-verification."""
        m = make_modulus(M)
        gs, _ = randomized_expansion_matmul(k, m, trials, 1729)
        seen = []
        real = expansion._shifted_products
        monkeypatch.setattr(expansion, "_shifted_products",
                            lambda k, m, g: seen.append(g) or real(k, m, g))
        assert randomized_expansion_check(k, m, trials) is True
        assert len(seen.pop(0)) == 1
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
