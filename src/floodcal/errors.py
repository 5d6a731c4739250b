"""Exception types raised across the package.

Each stage of the pipeline raises a specific subclass so callers (and the
CLI exit-code mapping) can distinguish bad configuration, missing inputs,
and numerical failures.
"""


class FloodcalError(Exception):
    """Base class for all package-specific errors."""


# --- grid ---------------------------------------------------------------

class TargetOutOfBounds(FloodcalError):
    """Interpolation target lies outside the grid's cell-center hull."""


class NodataNeighbor(FloodcalError):
    """A nodata cell would participate in an interpolation or lookup."""


class LocationNotOnGrid(FloodcalError):
    """A requested location does not coincide with any cell center."""


# --- design -------------------------------------------------------------

class AllExpensiveRemoved(FloodcalError):
    """A hold-out of expensive runs left fewer than 2 to fit the emulators."""


# --- reduce -------------------------------------------------------------

class DegenerateEnsemble(FloodcalError):
    """Run matrix has zero variance (all rows identical)."""


class DimensionMismatch(FloodcalError):
    """Array shapes are inconsistent with the basis or emulator."""


# --- emulator -----------------------------------------------------------

class NotPositiveDefinite(FloodcalError):
    """Covariance matrix failed Cholesky even after jitter escalation."""


class AllStartsFailed(FloodcalError):
    """Every optimizer start diverged or produced a non-finite objective."""


class ExtrapolationWarning(UserWarning):
    """Prediction requested outside the training parameter space."""


# --- calibrate ----------------------------------------------------------

class ChainTooShort(FloodcalError):
    """Chain has fewer retained samples than requested by thinning."""


class ModelRunFailed(FloodcalError):
    """The forward model raised at a posterior sample."""

    def __init__(self, theta, cause):
        self.theta = theta
        self.cause = cause
        super().__init__(f"model run failed at theta={theta!r}: {cause}")


# --- diagnostics --------------------------------------------------------

class EmptyInput(FloodcalError):
    """Metric requested on an empty vector."""


class LengthMismatch(FloodcalError):
    """Paired vectors have different lengths."""


class NoObservedFlood(FloodcalError):
    """Observation has no flooded cells, extent metrics are undefined."""


class GeometryMismatch(FloodcalError):
    """Grids do not share origin, cell size, and shape."""


class NonPositiveDf(FloodcalError):
    """Degrees of freedom for the reference distribution is not positive."""


# --- cli ----------------------------------------------------------------

class ConfigError(FloodcalError):
    """Experiment configuration is missing or invalid."""


class MissingArtifact(FloodcalError):
    """An upstream pipeline artifact was not found."""


class MalformedArtifact(FloodcalError):
    """An upstream pipeline artifact exists but is unreadable or inconsistent."""
