"""Exception hierarchy shared by every lacuna module."""


class LacunaError(Exception):
    """Base class for all package-specific failures."""


# -- group construction and arithmetic ---------------------------------------

class OrderTooSmall(LacunaError):
    """A cyclic factor order below 2 was requested."""


class SizeLimitExceeded(LacunaError):
    """The product of factor orders exceeds the configured group size limit."""


class GroupMismatch(LacunaError):
    """Two objects that must live on the same group do not."""


# -- character systems and dissociation ---------------------------------------

class TrivialCharacterPresent(LacunaError):
    """A character system contains the trivial character."""


class DuplicateCharacter(LacunaError):
    """A character system contains the same character twice."""


class BudgetExceeded(LacunaError):
    """An exponent enumeration would exceed its tuple budget."""


class ModulusTooSmall(LacunaError):
    """The cyclic modulus cannot host the requested lacunary frequencies."""


class StaircaseViolated(LacunaError):
    """A digit-position set adds no position unseen in the preceding sets."""


class PositionOutOfRange(LacunaError):
    """A digit position falls outside the ambient group's coordinates."""


class NotDissociated(LacunaError):
    """An operation requires a dissociated system and got a witness instead."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateOrder(LacunaError):
    """A closed-form coefficient law was requested for character orders <= 2d."""


# -- chaos polynomials ---------------------------------------------------------

class DegreeExceedsSystem(LacunaError):
    """A tetrahedral chaos of degree d needs at least d distinct characters."""


# -- norms and gradients --------------------------------------------------------

class InvalidQ(LacunaError):
    """The function-norm exponent q is outside its admissible range."""


class InvalidP(LacunaError):
    """The coefficient-norm exponent p is outside its admissible range."""


# -- command line ----------------------------------------------------------------

class ConfigInvalid(LacunaError):
    """A run configuration failed validation."""
