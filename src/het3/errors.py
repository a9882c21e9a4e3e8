"""Exception hierarchy for the het3 engine."""

import math


class Het3Error(Exception):
    """Base class for all engine errors.  A validation error
    (``geometry.raise_first``) sets ``invalid_samples``, per sample whether
    it fails a check; every other error leaves it None."""

    invalid_samples = None


class AntisymmetryViolation(Het3Error):
    """Structure constants are not antisymmetric in the first two indices."""


class JacobiViolation(Het3Error):
    """Structure constants fail the Jacobi identity."""


class TraceMismatch(Het3Error):
    """Supplied scalar does not equal the trace of the supplied Ricci grid."""


class NonUnitAxis(Het3Error):
    """Distinguished axis xi is not of unit length."""


class NotSkewTorsion(Het3Error):
    """Operation requires a contorsion of the form alpha * g."""


class ScenarioValidationError(Het3Error):
    """Scenario violates a structural requirement (kappa, h, beta, phi)."""


class NonPositiveKappa(ScenarioValidationError):
    """The coupling constant kappa must be strictly positive."""


class NonFiniteResidual(Het3Error):
    """A residual or the curvature of a valid scenario overflows the float range."""


class NonNegativeScalar(Het3Error):
    """Constructor requires a strictly negative scalar curvature."""


class DegeneratesToSkew(Het3Error):
    """Generic-reducible parameters whose torsion is purely skew by the test a
    report applies, Contorsion.is_pure_skew_torsion: |gamma| <= 1.5e-10."""


class InvalidSampleCount(Het3Error, ValueError):
    """A sweep needs at least two sample points."""


class OutOfWindow(Het3Error):
    """kappa * s_g lies outside the admissible open interval (-24, 0); a
    second line names the s_g window at kappa (s_g < 0 if -24/kappa overflows)."""

    def __init__(self, kappa_s: float, window: tuple[float, float], kappa: float):
        self.kappa_s = kappa_s
        self.window = window
        self.kappa = kappa
        low, high = window[0] / kappa, window[1] / kappa
        s_window = f"({low:g}, {high:g})" if math.isfinite(low) else f"s_g < {high:g}"
        super().__init__(
            f"kappa*s_g = {kappa_s:g} outside the admissible window "
            f"({window[0]:g}, {window[1]:g})\n"
            f"admissible s_g window for kappa={kappa:g}: {s_window}"
        )
