"""Exception types shared across the package."""


class DeepdictError(Exception):
    """Base class for all deepdict errors."""


class EmptyCorpus(DeepdictError):
    """No documents were supplied."""


class EmptyDocument(DeepdictError):
    """A document contained zero symbols."""


class InvalidParam(DeepdictError):
    """A parameter was outside its allowed range."""


class Infeasible(DeepdictError):
    """The instance admits no feasible solution."""


class TooLarge(DeepdictError):
    """The instance exceeds a size limit, or the memory to solve it."""


class NumericalFailure(DeepdictError):
    """The solver could not reach the requested tolerances."""


class DegenerateTraining(DeepdictError):
    """Training data does not support fitting a model."""


class DimensionMismatch(DeepdictError):
    """Matrix or vector shapes do not agree."""
