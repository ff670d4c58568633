"""Exact arithmetic in cyclotomic rings Z[x]/Phi_M(x) for M = p^s or p^s q^t.

The package computes scaled inverses of x^i - x^j with guaranteed scales and
coefficient bounds, materializes the reduction matrix R_M with its block
structure, checks the structural facts behind those bounds by brute force,
and measures expansion factors of monomials. Everything is integer-exact.
"""

from .cyclotomic import (MAX_MATRIX_CELLS, MAX_MODULUS, BlockRanges,
                         CycloModulus, PrimePower, ReductionMatrix,
                         RingElement, TwoPrime, element, kron_check,
                         make_modulus, monomial_diff, monomial_reduce, reduce,
                         reduction_matrix, ring_mul)
from .errors import (BadRange, CycloringError, GenericTooLarge,
                     InexactDivision, MatrixTooLarge, ModulusMismatch,
                     ModulusTooLarge, NotApplicable, NotCoprime, OutOfRange,
                     PatternViolation, Refused, SweepTooLarge,
                     UnsupportedModulus, ZeroElement, ZeroPolynomial)
from .expansion import (ExpansionReport, max_expansion_factor,
                        monomial_expansion_factor, randomized_expansion_check)
from .poly import IntPoly, divrem, exact_div, resultant_bezout
from .scaled_inverse import (MAX_GENERIC_COST, MAX_SWEEP_COST, InverseCase,
                             NormProfile, ProfileRow, ScaledInverse,
                             alternative_coprime_form,
                             construct_scaled_inverse, generic_scaled_inverse,
                             norm_profile)
from .structure import (DiophantineTable, PatternClass, band_form,
                        column_family_sum, diff_quotient_coeffs,
                        high_monomial_form, inflated_pattern_check,
                        low_tail_form, random_subset_norm_check,
                        residue_class_pattern, rev_symmetry_check,
                        solvable_table)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"
