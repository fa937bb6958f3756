"""Exception types shared across the library.

Every guarded search raises ``BudgetExceeded`` instead of silently
truncating, so a bounded answer is never presented as a complete one.
"""


class InvgpdError(Exception):
    """Base class for all library errors."""


class MalformedFunctor(InvgpdError):
    """A functor breaks src/tgt, identity or composition preservation."""


class CodomainMismatch(InvgpdError):
    """Two maps fed to a limit construction do not share a codomain."""


class NonCommutingSquare(InvgpdError):
    """A lifting problem whose boundary square does not commute."""


class BudgetExceeded(InvgpdError):
    """An enumeration outgrew the configured candidate budget."""


class ShapeMismatch(InvgpdError):
    """A cell attachment got data of the wrong shape."""


class InvalidAttachment(InvgpdError):
    """An attaching map violates the equivariance condition of its cell."""


class NotTrivialCofibration(InvgpdError):
    """Cell decomposition was asked of a map outside its precondition."""


class IterationCapExceeded(InvgpdError):
    """The gluing construction did not converge within the step cap."""


class NotAFibration(InvgpdError):
    """A dependent-product base map is not a levelwise isofibration."""


class MalformedSliceMorphism(InvgpdError):
    """A slice-category morphism whose triangle does not commute."""


class NotSmall(InvgpdError):
    """Classification was asked of a map that is not a small fibration."""


class BaseTooSmall(InvgpdError):
    """A universe check needs a larger base set than was provided."""


class MalformedDocument(InvgpdError):
    """A text document that fails to parse or resolve."""


class InvariantViolated(InvgpdError):
    """A construction broke one of its own invariants: a defect of the
    library, not of the input. Raised, not asserted, so it fires under
    ``python -O`` too."""
