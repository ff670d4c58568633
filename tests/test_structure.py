import numpy as np
import pytest

from cycloring import (PatternClass, band_form, column_family_sum,
                       diff_quotient_coeffs, high_monomial_form,
                       inflated_pattern_check, low_tail_form, make_modulus,
                       monomial_reduce, random_subset_norm_check,
                       residue_class_pattern, rev_symmetry_check,
                       solvable_table)
from cycloring.errors import NotApplicable, OutOfRange
from cycloring.poly import IntPoly

from oracles import diophantine_bit, random_subset_norm_per_trial

SQUAREFREE_PAIRS = [(2, 3), (2, 5), (3, 5), (3, 7), (2, 7), (5, 7), (3, 11)]


class TestDiffQuotient:
    def test_3_5_bits(self):
        bits, table = diff_quotient_coeffs(3, 5)
        assert bits == (0, 1, 1, 0, 1, 0, 0, 1)
        assert table.solvable[:8] == (True, False, False, True, False,
                                      True, True, False)

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_multiples_of_p_are_zero(self, p, q):
        bits, _ = diff_quotient_coeffs(p, q)
        for t in range(len(bits) // p + 1):
            if t * p < len(bits):
                assert bits[t * p] == 0

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_complement_symmetry(self, p, q):
        bits, _ = diff_quotient_coeffs(p, q)
        phi = len(bits)
        for i in range(phi):
            assert bits[i] + bits[phi - 1 - i] == 1

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_solvable_above_phi(self, p, q):
        table = solvable_table(p, q)
        phi = (p - 1) * (q - 1)
        assert all(table.solvable[phi:])

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_monotone_under_shifts(self, p, q):
        table = solvable_table(p, q)
        for i in range(p * q):
            if table.solvable[i]:
                if i + p < p * q:
                    assert table.solvable[i + p]
                if i + q < p * q:
                    assert table.solvable[i + q]

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_matches_oracle_bits(self, p, q):
        bits, _ = diff_quotient_coeffs(p, q)
        assert bits == tuple(diophantine_bit(i, p, q)
                             for i in range((p - 1) * (q - 1)))


class TestHighMonomialForm:
    def test_low_tail_at_k0(self):
        got = high_monomial_form(0, 3, 5)
        assert got.to_poly() == IntPoly((-1, 1, 0, -1, 1, -1, 0, 1))
        assert got.coeffs[0] == -1 and got.coeffs[7] == 1

    def test_band_at_overlap(self):
        got = high_monomial_form(2, 3, 5)
        assert got.to_poly() == IntPoly((-1, 0, 0, 0, 0, -1))
        assert band_form(2, 3, 5) == low_tail_form(2, 3, 5) == got.to_poly()

    def test_published_column_21(self):
        got = high_monomial_form(2, 3, 7)
        assert got.to_poly() == IntPoly((-1, 0, 0, 0, 0, 0, 0, -1))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            high_monomial_form(5, 3, 5)
        with pytest.raises(OutOfRange):
            high_monomial_form(-1, 3, 5)

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_all_covered_exponents(self, p, q):
        m = make_modulus(p * q)
        for k in range(q):
            got = high_monomial_form(k, p, q)
            assert got == monomial_reduce(m.phi + k, m)

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_low_tail_norms_and_signs(self, p, q):
        m = make_modulus(p * q)
        for k in range(p):
            col = monomial_reduce(m.phi + k, m)
            assert col.max_norm() == 1
        for k in range(p - 1):
            col = monomial_reduce(m.phi + k, m)
            assert col.coeffs[0] == -1
            assert col.coeffs[m.phi - 1] == 1


class TestRevSymmetry:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (3, 7), (5, 7)])
    def test_rotation(self, p, q):
        assert rev_symmetry_check(p, q) is True


class TestRowSparsity:
    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_block_nonzero_counts(self, p, q):
        # each row: one nonzero in I, at most one in B2, at most p-1 in each
        # of B1 and B3, which is what caps the expansion factor at 2p
        from cycloring import reduction_matrix
        R = reduction_matrix(make_modulus(p * q))
        ent = np.asarray(R.entries, dtype=np.int64)
        blocks = R.blocks
        for row in ent:
            nz = row != 0
            assert nz[slice(*blocks.identity)].sum() == 1
            assert nz[slice(*blocks.b2)].sum() <= 1
            assert nz[slice(*blocks.b1)].sum() <= p - 1
            assert nz[slice(*blocks.b3)].sum() <= p - 1
            assert nz.sum() <= 2 * p


class TestResidueClasses:
    def test_m15_all_rows_classify(self):
        m = make_modulus(15)
        seen = set()
        for j in range(3):
            seen.update(residue_class_pattern(j, m))
        assert seen <= {PatternClass.ALL_ZERO, PatternClass.ONE_PLUS_ONE_MINUS}

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_family_sums_vanish(self, p, q):
        m = make_modulus(p * q)
        for j in range(p):
            assert column_family_sum(j, m).is_zero()

    @pytest.mark.parametrize("p,q", SQUAREFREE_PAIRS)
    def test_random_subsets_bounded(self, p, q):
        m = make_modulus(p * q)
        rng = np.random.default_rng(42)
        for j in range(p):
            assert random_subset_norm_check(j, m, 200, rng) is True

    @pytest.mark.parametrize("M, trials", [(6, 50), (35, 300), (143, 40),
                                           (1147, 3)])
    def test_random_subsets_match_per_trial(self, M, trials, monkeypatch):
        # the masks drawn in blocks give the same result and leave the rng
        # where one draw per trial leaves it; blocks of 7 trials make the
        # last block short
        import cycloring.structure as st_mod
        m = make_modulus(M)
        monkeypatch.setattr(st_mod, "_UNIT_BLOCK", 7 * 2 * m.phi)
        for j in range(m.shape.p):
            got, want = (np.random.default_rng(j) for _ in range(2))
            assert random_subset_norm_check(j, m, trials, got) is \
                random_subset_norm_per_trial(j, m, trials, want) is True
            assert got.integers(0, 2 ** 62) == want.integers(0, 2 ** 62)

    def test_random_subset_excess_is_caught(self, monkeypatch):
        # x^0 = 1 becomes 2 in the family of j = 0: a mask holding it fails
        # in the first block of trials, as it fails the per-trial loop
        import cycloring.structure as st_mod
        real = st_mod._monomial_rows

        def poisoned(ks, mod):
            rows = real(ks, mod)
            rows[np.flatnonzero(np.asarray(ks) == 0), 0] += 1
            return rows

        m = make_modulus(35)
        monkeypatch.setattr(st_mod, "_monomial_rows", poisoned)
        for check in (random_subset_norm_check, random_subset_norm_per_trial):
            assert check(0, m, 50, np.random.default_rng(1)) is False
            assert check(1, m, 50, np.random.default_rng(1)) is True

    # the three stride-family checks, each given the rng it would draw from
    STRIDE_CHECKS = (
        lambda j, m, rng: residue_class_pattern(j, m),
        lambda j, m, rng: column_family_sum(j, m),
        lambda j, m, rng: random_subset_norm_check(j, m, 5, rng),
    )

    @staticmethod
    def _refused(error, check, j, m):
        # the check raises error before any draw from its rng
        rng = np.random.default_rng(0)
        with pytest.raises(error):
            check(j, m, rng)
        fresh = np.random.default_rng(0)
        assert rng.integers(0, 2 ** 62) == fresh.integers(0, 2 ** 62)

    def test_j_out_of_range(self):
        for check in self.STRIDE_CHECKS:
            for M, p in ((15, 3), (35, 5), (143, 11)):
                for j in (p, -1):
                    self._refused(OutOfRange, check, j, make_modulus(M))

    def test_not_applicable_shapes(self):
        # prime powers, and two-prime moduli that are not squarefree
        for check in self.STRIDE_CHECKS:
            for M in (9, 25, 45, 63):
                self._refused(NotApplicable, check, 0, make_modulus(M))


class TestInflatedPatterns:
    @pytest.mark.parametrize("M", [45, 12, 18, 63])
    def test_random_families(self, M):
        m = make_modulus(M)
        rng = np.random.default_rng(3)
        assert inflated_pattern_check(m, trials=100, rng=rng) is True

    def test_full_families_sum_to_zero(self):
        m = make_modulus(45)
        mprime = m.inflation
        for j in range(3):
            total = np.zeros(m.phi, dtype=np.int64)
            for k in range(mprime):
                for i in range(5):
                    col = monomial_reduce((j + 3 * i) * mprime + k, m).coeffs
                    total += np.array(col)
            assert not total.any()

    def test_wrong_shape(self):
        with pytest.raises(NotApplicable):
            inflated_pattern_check(make_modulus(27))

    @pytest.mark.parametrize("k,slot", [(0, 1), (4, 0), (44, 9)])
    def test_support_off_its_class_is_caught(self, k, slot, monkeypatch):
        # x^k with k = 1 (mod 3) must not touch slot 0 (mod 3), and so on
        import cycloring.structure as st_mod
        real = st_mod._monomial_rows

        def poisoned(ks, mod):
            rows = real(ks, mod)
            rows[np.flatnonzero(np.asarray(ks) == k), slot] += 1
            return rows

        m = make_modulus(45)
        assert inflated_pattern_check(m, trials=1) is True
        monkeypatch.setattr(st_mod, "_monomial_rows", poisoned)
        assert inflated_pattern_check(m, trials=1) is False

    @staticmethod
    def _doubled_unit_column(monkeypatch):
        # x^0 = 1 becomes 2: every subset holding it breaks the norm bound
        import cycloring.structure as st_mod
        real = st_mod._monomial_rows

        def poisoned(ks, mod):
            rows = real(ks, mod)
            rows[np.flatnonzero(np.asarray(ks) == 0), 0] += 1
            return rows

        monkeypatch.setattr(st_mod, "_monomial_rows", poisoned)

    def test_in_class_excess_is_caught_by_the_trials(self, monkeypatch):
        m = make_modulus(45)
        self._doubled_unit_column(monkeypatch)
        assert inflated_pattern_check(m, trials=0) is True   # support is fine
        assert inflated_pattern_check(m, trials=50) is False

    def test_same_draws_whether_it_passes_or_fails(self, monkeypatch):
        m = make_modulus(45)
        passing, failing = np.random.default_rng(5), np.random.default_rng(5)
        assert inflated_pattern_check(m, trials=50, rng=passing) is True
        self._doubled_unit_column(monkeypatch)
        assert inflated_pattern_check(m, trials=50, rng=failing) is False
        assert passing.integers(0, 2 ** 62) == failing.integers(0, 2 ** 62)

    def test_peak_memory_is_one_family(self):
        # M = 4 * 521: live arrays are a few q * phi families plus the
        # temporaries of one block of unit rows, not all p * q families or
        # a q-row reduction at once
        import tracemalloc
        from cycloring import cyclotomic
        m = make_modulus(2084)
        family = m.shape.q * m.phi * 8
        tracemalloc.start()
        try:
            assert inflated_pattern_check(m, trials=20) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * family + 8 * cyclotomic._UNIT_BLOCK * 8, peak


class TestPatternViolationReporting:
    def test_poisoned_column_is_reported_with_location(self, monkeypatch):
        import cycloring.structure as st_mod
        from cycloring.errors import PatternViolation
        m = make_modulus(15)
        real = st_mod._monomial_rows

        def poisoned(ks, mod):
            rows = real(ks, mod)
            # j=0 family, i=2 (x^6): flip one coefficient to +2
            rows[np.flatnonzero(np.asarray(ks) == 6), 3] += 2
            return rows

        monkeypatch.setattr(st_mod, "_monomial_rows", poisoned)
        with pytest.raises(PatternViolation) as exc:
            st_mod.residue_class_pattern(0, m)
        assert exc.value.j == 0
        assert exc.value.row == 3
        assert 2 in exc.value.multiset


class TestVerifyLemmasShareQuotientBits:
    def test_one_division_per_run(self, monkeypatch):
        # four lemma checks read the quotient bits; they are computed once
        import cycloring.structure as st_mod
        from cycloring.verify import run_verify
        real, calls = st_mod.diff_quotient_coeffs, []

        def counted(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(st_mod, "diff_quotient_coeffs", counted)
        assert run_verify(323, "lemmas").all_passed
        assert calls == [(17, 19)]

    def test_failed_division_fails_each_check_by_name(self, monkeypatch):
        import cycloring.structure as st_mod
        from cycloring.verify import run_verify

        def broken(p, q):
            raise AssertionError("division bits and Diophantine bits disagree")

        monkeypatch.setattr(st_mod, "diff_quotient_coeffs", broken)
        checks = run_verify(35, "lemmas").suites[0].checks
        failed = [c.name for c in checks if not c.passed]
        assert failed == ["quotient_bits_match_diophantine",
                          "quotient_bits_multiples_of_p",
                          "quotient_bits_below_q", "quotient_bits_complement"]
