"""Exception types shared across the package.

Every error is a CycloringError. A refusal, an input outside a stated
precondition or above a cost ceiling (refused before any work), is a
Refused; the CLI answers any Refused with exit 2, UnsupportedModulus with
exit 3 and any other CycloringError with exit 1. A new refusal is declared
by its base class alone.
"""


class CycloringError(Exception):
    """Base class for all cycloring errors."""


class Refused(CycloringError, ValueError):
    """Base class of the refusals: the CLI's exit 2."""


class ZeroPolynomial(Refused):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class InexactDivision(Refused, ArithmeticError):
    """Polynomial division left a remainder or a non-integer quotient.

    Raised when a divisibility hypothesis is violated.
    """


class NotCoprime(CycloringError, ArithmeticError):
    """gcd(a, f) is nontrivial: f is reducible or a vanished mod f."""


class UnsupportedModulus(CycloringError, ValueError):
    """M is not of the form p^s or p^s q^t with p, q prime."""


class ModulusTooLarge(Refused):
    """M is above the supported ceiling; refused before any factorization."""


class SweepTooLarge(Refused):
    """An exhaustive (i, j) sweep above the cost ceiling; refused before any
    allocation."""


class MatrixTooLarge(Refused):
    """A reduction matrix R_M above the cell ceiling; refused before any
    allocation."""


class GenericTooLarge(Refused):
    """A generic (resultant/Bezout) inverse above the cost ceiling, or
    beyond the supply of its primes; refused before any allocation."""


class ModulusMismatch(CycloringError, ValueError):
    """Ring elements from different moduli were combined."""


class ZeroElement(Refused):
    """The zero ring element has no scaled inverse."""


class BadRange(Refused):
    """Exponents (i, j) outside the required range 0 <= j < i < M."""


class NotApplicable(Refused):
    """The requested structural check is undefined for this modulus shape."""


class OutOfRange(Refused):
    """An index parameter lies outside the range the closed form covers."""


class PatternViolation(CycloringError):
    """A reduction-matrix row failed the two-class pattern classification.

    Carries (j, row, multiset) for debugging.
    """

    def __init__(self, j, row, multiset):
        self.j = j
        self.row = row
        self.multiset = multiset
        super().__init__(f"row {row} for stride class j={j} has coefficient "
                         f"multiset {sorted(multiset)}, expected all zero or "
                         f"one +1 with one -1")
