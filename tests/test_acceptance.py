"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is integer-exact, so every comparison is equality (tolerance
zero). C4 pins the coprime-case sweep maxima reported by `cycloring sweep
--format json`: M = 35 reaches p - 1 = 4, first at (i, j) = (5, 4), and
M = 33 reaches 2. An earlier target of 1 for M = 35 was unattainable:
x^5 - x^4 = x^4 (x - 1) is a unit of Z[x]/Phi_35 because Phi_35(1) = 1, the
ring is an integral domain, so its scale-1 inverse is unique, and that
inverse has max-norm 4. C4 confirms the witness through the independent
resultant/Bezout route rather than trusting the sweep alone.
"""
import functools
import json
import time

import numpy as np

import cycloring.structure
from cycloring import (InverseCase, alternative_coprime_form, cli,
                       construct_scaled_inverse, element, generic_scaled_inverse,
                       make_modulus, max_expansion_factor, monomial_diff,
                       monomial_reduce, randomized_expansion_check, reduce,
                       reduction_matrix, ring_mul)
from cycloring.poly import IntPoly

from oracles import fraction_bezout

PRIME_POWER_MODULI = (4, 8, 16, 9, 27, 25, 49, 121)
TWO_PRIME_MODULI = (6, 12, 18, 15, 45, 75, 21, 63, 33, 35)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num} ({label}): FAIL "
                      f"({time.perf_counter() - t0:.1f}s)")
                raise
            print(f"\n[acceptance] criterion {num} ({label}): PASS "
                  f"({time.perf_counter() - t0:.1f}s)")
        return wrapper
    return deco


def _pairs(M):
    return ((i, j) for i in range(1, M) for j in range(i))


def _expected_two_prime(m, gap):
    sh = m.shape
    if gap % sh.p ** sh.s == 0:
        return InverseCase.P_DIVIDES_SHIFT, sh.q, sh.q - 1
    if gap % sh.q ** sh.t == 0:
        return InverseCase.Q_DIVIDES_SHIFT, sh.p, sh.p - 1
    return InverseCase.COPRIME, 1, sh.p - 1


@criterion(1, "prime-power inverses, exhaustive")
def test_c1_prime_power_exhaustive():
    for M in PRIME_POWER_MODULI:
        m = make_modulus(M)
        p = m.shape.p
        for i, j in _pairs(M):
            si = construct_scaled_inverse(i, j, m)
            prod = ring_mul(monomial_diff(i, j, m), si.u)
            assert prod.coeffs == (p,) + (0,) * (m.phi - 1), (M, i, j)
            assert si.norm <= p - 1, (M, i, j)
            assert si.scale == p


@criterion(2, "prime-power tightness at (1, 0)")
def test_c2_prime_power_tightness():
    for M in PRIME_POWER_MODULI:
        m = make_modulus(M)
        si = construct_scaled_inverse(1, 0, m)
        assert si.norm == m.shape.p - 1, M
        assert abs(si.u.coeffs[0]) == m.shape.p - 1, M


@criterion(3, "two-prime inverses, exhaustive case table")
def test_c3_two_prime_exhaustive():
    for M in TWO_PRIME_MODULI:
        m = make_modulus(M)
        for i, j in _pairs(M):
            si = construct_scaled_inverse(i, j, m)
            case, scale, bound = _expected_two_prime(m, i - j)
            assert si.case == case, (M, i, j)
            assert si.scale == scale, (M, i, j)
            assert si.norm <= bound, (M, i, j)
            prod = ring_mul(monomial_diff(i, j, m), si.u)
            assert prod.coeffs == (scale,) + (0,) * (m.phi - 1), (M, i, j)


@criterion(4, "coprime-case norm extremes via sweep")
def test_c4_norm_extremes_via_sweep(capsys):
    results = {}
    for M in (35, 33):
        code = cli.main(["sweep", str(M), "--format", "json"])
        assert code == 0
        results[M] = json.loads(capsys.readouterr().out)
    with capsys.disabled():
        assert results[33]["case_max"]["coprime"]["norm"] == 2, \
            "M=33 coprime-case sweep maximum differs from 2"
        got35 = results[35]["case_max"]["coprime"]
        reported = (got35["norm"], (got35["i"], got35["j"]))
        assert reported == (4, (5, 4)), (
            f"M=35 coprime-case sweep: expected max-norm 4 at (i, j) = "
            f"(5, 4), sweep reported {reported[0]} at {reported[1]}")
        # the reported witness again, by the resultant/Bezout route
        m = make_modulus(35)
        gen = generic_scaled_inverse(monomial_diff(got35["i"], got35["j"], m))
        assert (gen.scale, gen.norm) == (1, got35["norm"]), (
            f"M=35 Bezout route at {reported[1]}: scale {gen.scale}, norm "
            f"{gen.norm}; sweep reported norm {got35['norm']}")


@criterion(5, "near-tight coprime witness and closed form")
def test_c5_near_tight_witness():
    for M in TWO_PRIME_MODULI:
        m = make_modulus(M)
        p = m.shape.p
        i, j = m.inflation * (p - 1), m.inflation * (p - 2)
        si = construct_scaled_inverse(i, j, m)
        assert si.norm >= p - 2, M
        alt = alternative_coprime_form(m)
        assert alt.coeffs[0] == -(p - 2) or (p == 2 and alt.coeffs[0] == 0), M
        padded = tuple(alt.coeffs) + (0,) * (m.phi - len(alt.coeffs))
        assert padded == si.u.coeffs, M


@criterion(6, "constructive vs resultant/Bezout oracle")
def test_c6_oracle_equivalence():
    rng = np.random.default_rng(20210901)
    for M in PRIME_POWER_MODULI + TWO_PRIME_MODULI:
        m = make_modulus(M)
        # one full Bezout run per gap k; x^j is a unit, so the generic
        # result for (i, j) is the gap result shifted by x^(M-j)
        per_gap = {k: generic_scaled_inverse(monomial_diff(k, 0, m))
                   for k in range(1, M)}
        for i, j in _pairs(M):
            gen = per_gap[i - j]
            gen_u = reduce(gen.u.to_poly().shift(M - j), m)
            con = construct_scaled_inverse(i, j, m)
            assert con.scale % gen.scale == 0, (M, i, j)
            ratio = con.scale // gen.scale
            assert con.u == ratio * gen_u, (M, i, j)
        # the shift identity itself, spot-checked against direct Bezout runs
        all_pairs = [(i, j) for i, j in _pairs(M)]
        if M <= 21:
            sample = all_pairs
        else:
            sample = [all_pairs[int(n)] for n in
                      rng.choice(len(all_pairs), size=40, replace=False)]
        for i, j in sample:
            direct = generic_scaled_inverse(monomial_diff(i, j, m))
            assert direct.scale == per_gap[i - j].scale, (M, i, j)
            assert direct.u == reduce(
                per_gap[i - j].u.to_poly().shift(M - j), m), (M, i, j)

    # generic scale equals the lcm of the rational cofactor denominators
    for M in (15, 16, 21):
        m = make_modulus(M)
        done = 0
        while done < 500:
            coeffs = rng.integers(-5, 6, size=m.phi)
            if np.count_nonzero(coeffs) < 2:
                continue  # skip zero and monomial draws
            a = element(m, [int(c) for c in coeffs])
            si = generic_scaled_inverse(a)
            _, _, st = fraction_bezout(a.to_poly(), m.poly)
            assert si.scale == st.denominator_lcm()
            done += 1


R21_EXPECTED = np.hstack([
    np.eye(12, dtype=np.int64),
    np.array([
        # columns 12..20 of the published 12x21 reduction matrix
        [-1, -1, -1, 0, 0, 0, 0, 1, 1],
        [1, 0, 0, -1, 0, 0, 0, -1, 0],
        [0, 1, 0, 0, -1, 0, 0, 0, -1],
        [-1, -1, 0, 0, 0, -1, 0, 1, 1],
        [1, 0, 0, 0, 0, 0, -1, -1, 0],
        [0, 1, 0, 0, 0, 0, 0, -1, -1],
        [-1, -1, 0, 0, 0, 0, 0, 1, 0],
        [0, -1, -1, 0, 0, 0, 0, 0, 1],
        [1, 1, 0, -1, 0, 0, 0, -1, -1],
        [-1, 0, 0, 0, -1, 0, 0, 1, 0],
        [0, -1, 0, 0, 0, -1, 0, 0, 1],
        [1, 1, 0, 0, 0, 0, -1, -1, -1],
    ], dtype=np.int64),
])


@criterion(7, "reduction matrices bit-exact")
def test_c7_reduction_matrix_bit_exact():
    r7 = np.asarray(reduction_matrix(make_modulus(7)).entries, dtype=np.int64)
    want7 = np.hstack([np.eye(6, dtype=np.int64),
                       -np.ones((6, 1), dtype=np.int64)])
    assert np.array_equal(r7, want7)
    r21 = np.asarray(reduction_matrix(make_modulus(21)).entries,
                     dtype=np.int64)
    assert np.array_equal(r21, R21_EXPECTED)


def _squarefree_pairs(limit):
    primes = [n for n in range(2, limit) if all(n % d for d in range(2, n))]
    return [(p, q) for n, p in enumerate(primes) for q in primes[n + 1:]
            if p * q <= limit]


@criterion(8, "structural suite for all pq <= 200")
def test_c8_structural_suite():
    st = cycloring.structure
    rng = np.random.default_rng(8)
    for p, q in _squarefree_pairs(200):
        m = make_modulus(p * q)
        phi = m.phi
        assert m.poly.evaluate(1) == 1
        assert m.poly.rev() == m.poly
        bits, table = st.diff_quotient_coeffs(p, q)  # division vs Diophantine
        assert all(bits[t * p] == 0 for t in range(phi // p + 1)
                   if t * p < phi)
        assert all((bits[i] == 0) == (i % p == 0) for i in range(min(q, phi)))
        assert all(table.solvable[i] for i in range(phi, p * q))
        assert all(bits[i] + bits[phi - 1 - i] == 1 for i in range(phi))
        for k in range(q):
            st.high_monomial_form(k, p, q)  # closed forms vs direct reduction
        for k in range(p):
            assert monomial_reduce(phi + k, m).max_norm() == 1
        for k in range(p - 1):
            col = monomial_reduce(phi + k, m).coeffs
            assert col[0] == -1 and col[phi - 1] == 1
        assert st.rev_symmetry_check(p, q)
        entries = np.asarray(reduction_matrix(m).entries, dtype=np.int64)
        assert int(np.abs(entries).max()) <= 1
        for j in range(p):
            st.residue_class_pattern(j, m)
            assert st.column_family_sum(j, m).is_zero()
            assert st.random_subset_norm_check(j, m, 200, rng)
    for M in (9, 27, 45, 63, 75):
        assert cycloring.kron_check(make_modulus(M))


@criterion(9, "expansion factors with randomized oracle")
def test_c9_expansion_factors():
    targets = [(8, 1), (16, 1), (32, 1),
               (9, 2), (27, 2), (25, 2), (49, 2),
               (15, 6), (21, 6), (33, 6), (35, 10), (45, 6), (63, 6)]
    for M, expect in targets:
        m = make_modulus(M)
        report = max_expansion_factor(m)
        assert report.max_factor == expect, M
        sh = m.shape
        if isinstance(sh, cycloring.PrimePower):
            wk = (sh.p - 1) * sh.p ** (sh.s - 1)
        else:
            wk = ((sh.p - 1) * (sh.q - 1) - 1) * m.inflation
        if not (isinstance(sh, cycloring.PrimePower) and sh.p == 2):
            assert report.per_k[wk] == expect, M
        assert randomized_expansion_check(report.witness_k, m, 1000,
                                          seed=1234), M
        prod = ring_mul(monomial_reduce(report.witness_k, m),
                        report.witness_g)
        assert prod.max_norm() == expect * report.witness_g.max_norm(), M


@criterion(10, "CLI verify contract and mutation sensitivity")
def test_c10_cli_contract(capsys, monkeypatch):
    for M in PRIME_POWER_MODULI + TWO_PRIME_MODULI:
        code = cli.main(["verify", str(M), "--suite", "all",
                         "--trials", "200"])
        capsys.readouterr()
        assert code == 0, f"verify {M} should exit 0"

    good_band_form = cycloring.structure.band_form

    def crooked_band_form(k, p, q):
        return good_band_form(k, p, q) * IntPoly((0, 1))  # off by one power

    monkeypatch.setattr(cycloring.structure, "band_form", crooked_band_form)
    code = cli.main(["verify", "21", "--suite", "all", "--trials", "50"])
    out = capsys.readouterr().out
    assert code == 1, "mutated closed form must make verify exit 1"
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert any("tail_columns_closed_form" in line
               or "block_band_columns" in line for line in failing), failing
