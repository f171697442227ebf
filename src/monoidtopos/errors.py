"""Exception hierarchy shared by all modules."""


class MonoidToposError(Exception):
    """Base class for every error raised by this package."""


class StructureError(MonoidToposError):
    """Malformed carrier data: bad table shape, invalid indices, non-ideal sets."""


class UsageError(MonoidToposError):
    """Operands that do not belong together (e.g. ideals of different monoids)."""


class CapacityError(MonoidToposError):
    """An enumeration or construction would exceed its configured budget."""


class ValidationError(MonoidToposError):
    """Input fails a type invariant (non-Hermitian matrix, bad family, ...)."""


class NumericError(MonoidToposError):
    """A numeric routine failed to converge."""


class DomainError(MonoidToposError):
    """A function argument lies outside the function's declared domain."""


class MissingNameError(MonoidToposError):
    """Reference to an undeclared object (projector id, state name, ...)."""


class PreconditionError(MonoidToposError):
    """A documented operation precondition does not hold."""


class ContextError(PreconditionError):
    """A contextual truth value was requested outside its context."""
