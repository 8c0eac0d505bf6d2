"""Exception types shared across the package."""


class ParageomError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateJet(ParageomError):
    """Jet operation is undefined (division by a jet with ~zero constant
    term, sqrt of a non-positive constant term)."""


class OrderExceeded(ParageomError):
    """A partial derivative of total order > 3 was requested."""


class ShapeError(ParageomError):
    """Vector/matrix dimensions do not match the operation's contract."""


class GenerationError(ParageomError):
    """Random generation exhausted its redraw budget."""


class ChartLeak(ParageomError):
    """A chart point left the domain where the immersion formula is valid."""


class DegenerateFrame(ParageomError):
    """The tangent-plus-transversal frame is singular or too ill-conditioned."""


class DegenerateMetric(ParageomError):
    """The second fundamental form is singular where an inverse is needed."""


class BasePointNotFound(ParageomError):
    """No admissible base point was found on the quadric after the search budget."""
