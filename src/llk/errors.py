"""Exception types shared across the toolkit.

Everything derives from GeometryError so callers can catch one type; the
subclasses mirror the distinct failure modes of the geometric operations
(domain violations, unrealizable triangles, causal pathologies, ...).
"""


class GeometryError(ValueError):
    """Base class for all geometric and structural failures."""


class DomainError(GeometryError):
    """Point or parameter outside the open domain of an operation."""


class ParameterError(GeometryError):
    """Argument outside the documented parameter range of an operation."""


class InfeasibleError(GeometryError):
    """No configuration in the model space matches the given data."""


class SizeBoundError(InfeasibleError):
    """A timelike side reaches or exceeds the model diameter pi."""


class ReverseTriangleError(InfeasibleError):
    """Side data violates the reverse triangle inequality."""


class UndefinedAngleError(GeometryError):
    """Comparison angle requested for a non-timelike configuration."""


class StructuralError(GeometryError):
    """Malformed input: shape mismatch, bad file field, unknown kind."""


class CausalityError(GeometryError):
    """The causal relation is not a partial order: a cycle among distinct
    points, or a relation that is not transitive."""


class ChainError(GeometryError):
    """No chain exists, or a supplied chain is stale or disconnected."""


class ConvergenceError(GeometryError):
    """An iterative construction failed to stabilize within its budget."""


class ExtractionError(GeometryError):
    """Slice extraction cannot metrize the fibers, taken by the closed-form
    fiber distance: two fibers share no timelike pair, their distances
    violate the metric axioms, or two points share one time on one
    fiber."""
