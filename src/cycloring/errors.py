"""Exception types shared across the package."""


class CycloringError(Exception):
    """Base class for all cycloring errors."""


class ZeroPolynomial(CycloringError, ValueError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class InexactDivision(CycloringError, ArithmeticError):
    """Polynomial division left a remainder or a non-integer quotient.

    Raised when a divisibility hypothesis is violated.
    """


class NotCoprime(CycloringError, ArithmeticError):
    """gcd(a, f) is nontrivial: f is reducible or a vanished mod f."""


class UnsupportedModulus(CycloringError, ValueError):
    """M is not of the form p^s or p^s q^t with p, q prime."""


class ModulusTooLarge(CycloringError, ValueError):
    """M is above the supported ceiling; refused before any factorization."""


class SweepTooLarge(CycloringError, ValueError):
    """An exhaustive (i, j) sweep above the cost ceiling; refused before any
    allocation."""


class MatrixTooLarge(CycloringError, ValueError):
    """A reduction matrix R_M above the cell ceiling; refused before any
    allocation."""


class GenericTooLarge(CycloringError, ValueError):
    """A generic (resultant/Bezout) inverse above the cost ceiling, or
    beyond the supply of its primes; refused before any allocation."""


class ModulusMismatch(CycloringError, ValueError):
    """Ring elements from different moduli were combined."""


class ZeroElement(CycloringError, ValueError):
    """The zero ring element has no scaled inverse."""


class BadRange(CycloringError, ValueError):
    """Exponents (i, j) outside the required range 0 <= j < i < M."""


class NotApplicable(CycloringError, ValueError):
    """The requested structural check is undefined for this modulus shape."""


class OutOfRange(CycloringError, ValueError):
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
