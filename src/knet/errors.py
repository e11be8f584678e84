"""Exception types shared across the package."""


class KnetError(Exception):
    """Base class for all package errors."""


# -- network construction ----------------------------------------------------

class DisconnectedGraph(KnetError):
    pass


class DuplicateEdge(KnetError):
    pass


class IsolatedVertex(KnetError):
    pass


class NonPositiveLength(KnetError):
    pass


class PointsOnDifferentNetworks(KnetError):
    pass


class VertexNotInterior(KnetError):
    pass


# -- problem data ------------------------------------------------------------

class InvalidCoefficientSign(KnetError):
    pass


# -- discretization ----------------------------------------------------------

class MonotonicityProbeFailed(KnetError):
    """Carries the witness node and perturbation direction."""

    def __init__(self, message, node=None, direction=None):
        super().__init__(message)
        self.node = node
        self.direction = direction


# -- solver ------------------------------------------------------------------

class BarrierConstructionFailed(KnetError):
    pass


class LocalRootBracketFailed(KnetError):
    pass


class SingularLinearization(KnetError):
    pass


# -- oracle ------------------------------------------------------------------

class ProblemNotLinear(KnetError):
    pass


class ProblemNotEikonal(KnetError):
    """Raised by oracle.flux_limited_reference off its degenerate eikonal
    networks."""


class GridTooCoarse(KnetError):
    pass


class SingularSystem(KnetError):
    pass


class NonPositiveError(KnetError):
    pass


# -- analysis ----------------------------------------------------------------

class WindowTooLarge(KnetError):
    pass


class EmptyInteriorSet(KnetError):
    pass


class NoActiveProbe(KnetError):
    pass
