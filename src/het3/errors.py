"""Exception hierarchy for the het3 engine, and its one first-failure rule."""

import functools
import math
import operator

import numpy as np


class Het3Error(Exception):
    """Base class for all engine errors.  An error of a per-sample check
    (``raise_first``) sets ``invalid_samples``, the samples that fail a check
    of its call; an error of a whole argument (a sign, a count) leaves None."""

    invalid_samples = None


def every(masks) -> np.ndarray:
    """The samples that are True in every one of masks, which broadcast."""
    return functools.reduce(operator.and_, masks)


def raise_first(checks: list) -> None:
    """Raise the error of the first of checks that any sample fails.

    A check is (passed, error): per sample whether it passes (numpy bools,
    which broadcast), and a function of ``at`` that makes the error, where
    at(values) is values at the first sample failing the check, as a float.
    The error's ``invalid_samples`` marks the samples failing any of checks.
    One reduction when all pass, none for one sample (np.True_ is a numpy
    singleton), and a slow truth test per check only on failure.
    """
    passed = every(passed for passed, _ in checks)
    if passed is not np.True_ and not passed.all():
        bad, error = next((~check, error) for check, error in checks if not check.all())
        exc = error(lambda values: float(np.broadcast_to(values, bad.shape)[bad][0]))
        exc.invalid_samples = ~passed
        raise exc


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
    report applies, Contorsion.is_pure_skew_torsion: |gamma| <= 1.5 SKEW_TOL,
    as Theta's largest entry is 2 |gamma| / 3."""


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
