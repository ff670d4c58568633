"""
Scaled inverses of x^i - x^j
============================

x^i - x^j is a zero divisor nowhere mod Phi_M (M = p^s or p^s q^t), but its
inverse usually needs a scale: the smallest positive integer c such that
(x^i - x^j) * u = c has an integer-coefficient solution u. The constructive
route reads u off the paper's case table, as a quotient by x^d - 1, and
guarantees both the scale and a coefficient bound; the generic route recovers the same element
from the resultant and an integral Bezout cofactor, divided by their common content.
"""
from cycloring import (construct_scaled_inverse, generic_scaled_inverse,
                       make_modulus, monomial_diff)

print(f"{'M':>4} {'i':>3} {'j':>3} {'case':>16} {'scale':>5} "
      f"{'norm':>4} {'bound':>5}")
for M, i, j in [(4, 1, 0), (16, 9, 1), (121, 77, 11),
                (15, 2, 1), (15, 3, 0), (15, 5, 0),
                (45, 27, 9), (63, 11, 2), (35, 5, 4)]:
    m = make_modulus(M)
    si = construct_scaled_inverse(i, j, m)
    print(f"{M:>4} {i:>3} {j:>3} {si.case.value:>16} {si.scale:>5} "
          f"{si.norm:>4} {si.bound:>5}")

# The two routes agree: the generic inverse carries the provably minimal
# scale, and the constructive result is an exact integer multiple of it
# (here always the identical element, since the constructed scale shares no
# factor with the coefficients).
m = make_modulus(21)
for i, j in [(5, 2), (9, 2), (20, 13)]:
    con = construct_scaled_inverse(i, j, m)
    gen = generic_scaled_inverse(monomial_diff(i, j, m))
    same = con.scale == gen.scale and con.u == gen.u
    print(f"M=21 (i,j)=({i},{j}): constructive == generic: {same}")

# A worked example, in full: M = 4, i = 1, j = 0.
m = make_modulus(4)
si = construct_scaled_inverse(1, 0, m)
print(f"\n(x - 1) * ({si.u}) = {si.scale}  (mod x^2 + 1), "
      f"norm {si.norm} <= bound {si.bound}")
