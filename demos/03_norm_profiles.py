"""
Norm profiles across a whole modulus
====================================

Sweeping every pair 0 <= j < i < M records how large the coefficients of
the scaled inverses actually get, case by case. Two phenomena show up for
the scale-1 (coprime) case: the worst coefficient over all pairs depends
on more than the gap i - j (multiplying by the unit x^j moves norms), and
different M of the same shape behave differently: M = 33 tops out at
p - 1 = 2 while M = 35 reaches p - 1 = 4 only at four unit-gap pairs and
stays at p - 2 = 3 for every pure gap x^k - 1.
"""
from collections import Counter

from cycloring import (InverseCase, construct_scaled_inverse,
                       generic_scaled_inverse, make_modulus,
                       monomial_diff, norm_profile)

for M in (33, 35):
    m = make_modulus(M)
    prof = norm_profile(m)
    rows = [r for r in prof.rows if r.case == InverseCase.COPRIME]
    hist = Counter(r.norm for r in rows)
    norm, i, j = prof.case_max[InverseCase.COPRIME]
    print(f"M={M} (p={m.shape.p}, q={m.shape.q})")
    print(f"  coprime-case norm histogram: {dict(sorted(hist.items()))}")
    print(f"  max {norm} first attained at (i,j)=({i},{j})")
    gap_max = max(r.norm for r in rows if r.j == 0)
    print(f"  max over pure gaps (j = 0): {gap_max}")

# Constructed scales are minimal: each is 1, or a prime p (or q) with every
# coefficient below it in absolute value, so none shares its factor. The
# generic route, minimal by its own proof, finds the same scale per gap.
for M in (33, 35, 45):
    m = make_modulus(M)
    same = all(generic_scaled_inverse(monomial_diff(g, 0, m)).scale
               == construct_scaled_inverse(g, 0, m).scale for g in range(1, M))
    print(f"M={M}: generic and constructed scales agree on every gap: {same}")
