"""Exception hierarchy for tropicurve.

Exceptions are grouped by the surface that raises them.  Everything derives
from :class:`TropicurveError` so callers can catch broadly.
"""


class TropicurveError(Exception):
    """Base class for all errors raised by this package."""


# -- graph construction / geometry -----------------------------------------

class DisconnectedGraph(TropicurveError):
    pass


class NonpositiveLength(TropicurveError):
    pass


class DanglingEndpoint(TropicurveError):
    pass


class PointNotInterior(TropicurveError):
    pass


class WrongCardinality(TropicurveError):
    pass


class UnknownEdge(TropicurveError):
    pass


class UnknownVertex(TropicurveError):
    pass


class DuplicateId(TropicurveError):
    pass


class InvalidOffset(TropicurveError):
    pass


# -- scalars and linear algebra -----------------------------------------------
# Also ValueErrors, so that `except ValueError` handlers catch them.

class InvalidExtRational(TropicurveError, ValueError):
    """A finite `ExtRational` without a value, or a sign not -1, 0 or +1."""


class SingularMatrix(TropicurveError, ValueError):
    pass


class ZeroVector(TropicurveError, ValueError):
    pass


# -- divisors and piecewise linear functions -------------------------------

class NonzeroDegree(TropicurveError):
    pass


class NotPrincipal(TropicurveError):
    pass


class NonIntegralCoefficient(TropicurveError):
    """A divisor coefficient that is not an integer."""


class WrongDegree(TropicurveError):
    pass


class InvalidPillars(TropicurveError):
    pass


class NotComplement(TropicurveError):
    pass


class DiscontinuousFunction(TropicurveError):
    pass


# -- tropicalization --------------------------------------------------------

class EmptyCoordinates(TropicurveError):
    pass


class InvalidCoordinate(TropicurveError):
    """A function attached to an embedding fails the harmonicity checks."""


class DivisorCollision(TropicurveError):
    pass


class NonSimplePoint(TropicurveError):
    pass


# -- synthesis pipelines -----------------------------------------------------

class NotSeparated(TropicurveError):
    pass


class PillarFailure(TropicurveError):
    pass


class PillarSearchExhausted(TropicurveError):
    """Raised with the constraint set that could not be met."""


class NoRoom(TropicurveError):
    pass


class EqualEdges(TropicurveError):
    pass


class Stage0Failure(TropicurveError):
    pass


class CertificateFailure(TropicurveError):
    pass


class MonotonicityViolation(TropicurveError):
    """Singular-vertex count failed to decrease; indicates a bug."""


# -- i/o ----------------------------------------------------------------------

class ParseError(TropicurveError):
    pass
