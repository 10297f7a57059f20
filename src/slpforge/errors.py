"""Exception hierarchy used across the workbench.

Every failure mode of the library raises a subclass of SlpforgeError, so
callers (and the CLI) can catch one type.  Errors that have a finite witness
carry it as an attribute for diagnostics.
"""


class SlpforgeError(Exception):
    """Base class for all slpforge errors."""


class FormatError(SlpforgeError):
    """Malformed .cay / .slp file."""


class OutOfRangeError(SlpforgeError):
    """A table entry, generator or target is not an element index."""


class NotAssociativeError(SlpforgeError):
    """Cayley table fails associativity; carries a witness triple."""

    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")


class EmptyGeneratorsError(SlpforgeError):
    """Closure of the empty set was requested."""


class BudgetExceededError(SlpforgeError):
    """A configured enumeration/substitution budget was exceeded."""


class NotCompletelyRegularError(SlpforgeError):
    """Semigroup has an element s with s^(w+1) != s."""


class HNotCongruenceError(SlpforgeError):
    """The H-relation is not a congruence: not a band of groups."""


class BandNotNormalError(SlpforgeError):
    """Quotient band fails the identity uxyv = uyxv."""


class NotAGroupError(SlpforgeError):
    """Table is not a group; carries a witness element."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotNormalError(SlpforgeError):
    """Subgroup is not normal; carries a conjugation witness (g, h)."""

    def __init__(self, g, h):
        self.witness = (g, h)
        super().__init__(f"not normal: conjugate of {g} by {h} escapes the subgroup")


class InvalidProgramError(SlpforgeError):
    """Static SLP validation failed (unassigned read, bad symbol, ...)."""


class InverseOutsideGroupError(SlpforgeError):
    """INV instruction evaluated without a group."""


class DiameterExceededError(SlpforgeError):
    """No generator word of length <= D evaluates to the target."""


class NotPermutativeError(SlpforgeError):
    """Central commutation refuted at every level <= kmax."""


class UnreachableError(SlpforgeError):
    """No exponent tuple realizes the target in the permutative normal form."""


class NotInSubgroupError(SlpforgeError):
    """Cube search exhausted without reaching the target."""


class NotAdaptedError(SlpforgeError):
    """Generating set is not adapted to the given subnormal series."""


class NotSolvableError(SlpforgeError):
    """Derived series does not reach the trivial subgroup."""


class ChainVerificationFailedError(SlpforgeError):
    """Induced polycyclic chain failed verification (indicates a bug)."""


class DecompositionFailedError(SlpforgeError):
    """Band-of-groups decomposition failed where one was required."""


class NotEligibleError(SlpforgeError):
    """No ideal power satisfies the sandwich identity: general pipeline refused."""


class NotAHomomorphismError(SlpforgeError):
    """Linking map of a Clifford construction is not a homomorphism."""


class UnknownFamilyError(SlpforgeError):
    """Zoo family tag not recognised."""


class CompressorFailedError(SlpforgeError):
    """Oracle says member but the certificate strategy failed."""
