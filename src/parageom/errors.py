"""Exception types shared across the package, and the per-sample failure
record of a batched analysis."""

import numpy as np


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


class NoAdmissibleSamples(GenerationError):
    """No candidate in the chart box passed the sample screen."""


class ChartLeak(ParageomError):
    """A chart point left the domain where the immersion formula is valid."""


class DegenerateFrame(ParageomError):
    """The tangent-plus-transversal frame is singular or too ill-conditioned."""


class DegenerateMetric(ParageomError):
    """The second fundamental form is singular where an inverse is needed."""


class BasePointNotFound(ParageomError):
    """No admissible base point was found on the quadric after the search budget."""


def no_failures(shape) -> np.ndarray:
    """An empty failure record: one slot per sample of a batch of ``shape``,
    ``()`` for a single point."""
    return np.full(shape, None, dtype=object)


def failed(faults: np.ndarray) -> np.ndarray:
    """Where a failure record holds a failure."""
    return np.array([f is not None for f in faults.flat], dtype=bool).reshape(faults.shape)


def record_failures(faults: np.ndarray, bad, failure) -> np.ndarray:
    """Keep the exception ``failure(k)`` as the failure of each sample ``k``
    (a flat index) where ``bad`` holds and none is kept yet, and return
    ``failed(faults)``.

    A batched stage keeps each sample's failure in ``faults`` and goes on
    with harmless values in its place, so one bad sample stops no other.  A
    single point (``faults`` of shape ``()``) has nowhere to keep one, so its
    failure is raised at once.
    """
    flat = faults.reshape(-1)
    for k in np.flatnonzero(bad):
        if flat[k] is None:
            flat[k] = failure(k)
            if faults.ndim == 0:
                raise flat[k]
    return failed(faults)
