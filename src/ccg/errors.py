"""Exception types shared across the package."""


class CcgError(Exception):
    """Base class for all library errors."""


class InvalidGameError(CcgError):
    """A congestion game violates its structural invariants."""


class InvalidProfileError(CcgError):
    """A strategy profile does not fit the game it is used with."""


class InvalidBlockError(CcgError):
    """A coalition block index is out of range."""


class InvalidVectorError(CcgError):
    """A congestion vector does not fit the game."""


class InvalidIndicesError(CcgError):
    """Player or strategy indices passed to a strategic-form query are bad."""


class InvalidParamsError(CcgError):
    """Generator or experiment parameters are out of range."""


class MismatchedResourcesError(CcgError):
    """A congestion vector and its resource set do not fit together."""


class SizeLimitExceededError(CcgError):
    """An enumeration would exceed the configured size limit."""


class BlockLargerThanResourceSetError(CcgError):
    """A block cannot assign distinct resources to all its members."""


class PreconditionViolatedError(CcgError):
    """An operation was called outside its stated preconditions."""


class RearrangementInfeasibleError(CcgError):
    """The distinct-resource arrangement could not be completed.

    Raised defensively: feasibility holds whenever the peak congestion does
    not exceed the block count, so this signals an implementation bug.
    """


class LoopBoundExceededError(CcgError):
    """The hub improvement loop ran longer than its proven bound."""


class NotNashAtExitError(CcgError):
    """The constructive solver produced a profile that fails verification."""


class InvariantViolationError(CcgError):
    """An executable form of a proven statement found a counterexample.

    Any subclass being raised means a bug somewhere in this package, never a
    legitimate analysis outcome.
    """


class NeLiftViolationError(InvariantViolationError):
    """Distinct-resource profile with equilibrium congestion failed the
    coalition equilibrium check."""


class LinearityEquivalenceViolationError(InvariantViolationError):
    """Cost linearity and exact-potential existence disagreed on a game
    where they must coincide."""


class CoverageMismatchError(CcgError):
    """A partial profile does not cover exactly the frozen sub-agents."""


class GameFileError(CcgError):
    """A game file could not be parsed."""


class NotTwoBlocksError(CcgError):
    """Matrix rendering requires exactly two coalition blocks."""
