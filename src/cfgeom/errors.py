"""Exception types shared across the package."""


class CFGeomError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CFGeomError, ValueError):
    """An input is malformed or of the wrong kind for the algorithm it was given to."""


class IncompatibleShapesError(CFGeomError):
    """A predicate was asked about a shape pairing it does not support."""


class DegenerateGeometryError(CFGeomError):
    """Boundaries are not in general position; the caller must perturb."""


class GenerationError(CFGeomError):
    """A generator could not produce an instance honoring its parameters."""


class PlanarityError(CFGeomError):
    """No low-degree vertex exists during a peel; the input family is invalid."""


class ColorerContractError(CFGeomError):
    """A supplied proper colorer exceeded its palette or produced an improper coloring."""

    def __init__(self, message, sub_hypergraph=None):
        super().__init__(message)
        self.sub_hypergraph = sub_hypergraph


class ListExhaustedError(CFGeomError):
    """A vertex ran out of admissible colors; its list was too small."""

    def __init__(self, vertex):
        super().__init__(f"color list of vertex {vertex} exhausted before it was colored")
        self.vertex = vertex


class ColoringSizeError(CFGeomError):
    """A coloring does not give one color to each shape of its scene."""


class VerificationError(CFGeomError):
    """A coloring that must be valid by construction failed its check."""
