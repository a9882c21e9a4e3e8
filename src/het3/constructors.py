"""Exact soliton scenarios for every classified family, plus classification.

Families:

* GENERIC_REDUCIBLE_HEISENBERG -- Heisenberg model with contorsion
  A = alpha g + gamma xi (x) xi, solving s = -2 alpha^2 and
  kappa (2 alpha + gamma)^2 = 1 (both root signs exposed).
* SKEW_HEISENBERG -- purely skew torsion on the Heisenberg model, the unique
  root 4 kappa alpha^2 = 1 with kappa s = -1/2.
* SKEW_HYPERBOLIC -- purely skew torsion on the hyperbolic model, admissible
  exactly for kappa s in the open window (-24, 0) via
  kappa (h^2 + 12 alpha^2)^2 = 48 h^2.
* BOUNDARY_VANISHING_TORSION -- the alpha = 0 limit at kappa s = -24 with
  D = nabla^g and h = sqrt(48/kappa).

Each constructor checks its arguments, derives the family's parameters and
returns through one tail, which checks that every derived value is finite
(h = sqrt(-2 s) overflows at s = -1e308) before it builds any array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, residuals, torsion
from .errors import (
    DegeneratesToSkew,
    NonNegativeScalar,
    NonPositiveKappa,
    OutOfWindow,
    ScenarioValidationError,
)

AXIS = np.array([0.0, 0.0, 1.0])
CLASSIFY_TOL = 1e-9  # eigenvalue equalities in classify

HEISENBERG_GENERIC = "heisenberg-generic"
HEISENBERG_SKEW = "heisenberg-skew"
HYPERBOLIC = "hyperbolic"
BOUNDARY = "boundary"

FAMILIES = (HEISENBERG_GENERIC, HEISENBERG_SKEW, HYPERBOLIC, BOUNDARY)


@dataclass(frozen=True)
class ConstructedSoliton:
    """A scenario plus the derived parameters of its family."""

    scenario: residuals.SolitonScenario
    family: str
    alpha: float
    gamma: float
    h: float
    scalar: float
    model_parameter: float  # lambda for Heisenberg, a for hyperbolic


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ScenarioValidationError(f"{name} = {value:g} must be finite")


def _require_kappa(kappa: float) -> None:
    _require_finite(kappa=kappa)
    if not kappa > 0:
        raise NonPositiveKappa(f"kappa = {kappa:g} must be positive")


def _constructed(
    family: str, model, model_parameter: float, *,
    alpha: float, gamma: float, h: float, scalar: float, kappa: float,
) -> ConstructedSoliton:
    """The one exit of every constructor: check the derived values, then build.

    ``model`` maps ``model_parameter`` to the structure constants; the
    contorsion is A = alpha g + gamma xi (x) xi along AXIS.
    """
    _require_finite(alpha=alpha, gamma=gamma, h=h, s_g=scalar, model_parameter=model_parameter)
    if gamma == 0.0:
        contorsion = torsion.skew(alpha)
    else:
        contorsion = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=alpha, beta=0.0, gamma=gamma, xi=AXIS)
        )
    sc = residuals.SolitonScenario(
        model=model(model_parameter), contorsion=contorsion, h=h, kappa=kappa
    )
    return ConstructedSoliton(sc, family, alpha, gamma, h, scalar, model_parameter)


def construct_generic_reducible(
    kappa: float, scalar: float, sign: int = +1
) -> ConstructedSoliton:
    """Heisenberg soliton with generic reducible torsion at the given s_g.

    alpha = sqrt(-s/2), lambda = 2 alpha, h = sqrt(-2 s), and
    gamma = sign/sqrt(kappa) - 2 alpha from kappa (2 alpha + gamma)^2 = 1.
    """
    _require_kappa(kappa)
    _require_finite(s_g=scalar)
    if not scalar < 0:
        raise NonNegativeScalar(f"s_g = {scalar:g} must be negative")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    alpha = math.sqrt(-0.5 * scalar)
    gamma = sign / math.sqrt(kappa) - 2.0 * alpha
    if abs(gamma) < 1e-12:
        raise DegeneratesToSkew(
            "gamma = 0: these parameters give purely skew torsion, "
            "use the skew Heisenberg constructor"
        )
    h = math.sqrt(-2.0 * scalar)
    return _constructed(HEISENBERG_GENERIC, geometry.heisenberg, 2.0 * alpha,
                        alpha=alpha, gamma=gamma, h=h, scalar=scalar, kappa=kappa)


def construct_skew_heisenberg(kappa: float) -> ConstructedSoliton:
    """The unique skew-torsion Heisenberg soliton: 4 kappa alpha^2 = 1."""
    _require_kappa(kappa)
    alpha = 0.5 / math.sqrt(kappa)
    h = 1.0 / math.sqrt(kappa)
    scalar = -2.0 * alpha * alpha  # = -1/(2 kappa)
    return _constructed(HEISENBERG_SKEW, geometry.heisenberg, 2.0 * alpha,
                        alpha=alpha, gamma=0.0, h=h, scalar=scalar, kappa=kappa)


def scalar_window(kappa: float) -> tuple[float, float]:
    """Admissible open interval for s_g of hyperbolic skew solitons."""
    _require_kappa(kappa)
    return (-24.0 / kappa, 0.0)


def construct_hyperbolic_skew(kappa: float, scalar: float) -> ConstructedSoliton:
    """Hyperbolic skew-torsion soliton for kappa * s_g in (-24, 0).

    a = sqrt(-s/6), h = sqrt(-2s), and alpha > 0 solves
    kappa (h^2 + 12 alpha^2)^2 = 48 h^2 on the positive square-root branch.
    """
    _require_kappa(kappa)
    ks = kappa * scalar
    if not (-24.0 < ks < 0.0):
        raise OutOfWindow(ks, (-24.0, 0.0))
    a = math.sqrt(-scalar / 6.0)
    h2 = -2.0 * scalar
    alpha_sq = (math.sqrt(48.0 * h2 / kappa) - h2) / 12.0
    # strictly positive inside the open window
    alpha = math.sqrt(alpha_sq)
    return _constructed(HYPERBOLIC, geometry.hyperbolic_model, a,
                        alpha=alpha, gamma=0.0, h=math.sqrt(h2), scalar=scalar, kappa=kappa)


def boundary_vanishing_torsion(kappa: float) -> ConstructedSoliton:
    """The alpha = 0 boundary soliton: hyperbolic with kappa s_g = -24."""
    _require_kappa(kappa)
    scalar = -24.0 / kappa
    a = math.sqrt(4.0 / kappa)
    h = math.sqrt(48.0 / kappa)
    return _constructed(BOUNDARY, geometry.hyperbolic_model, a,
                        alpha=0.0, gamma=0.0, h=h, scalar=scalar, kappa=kappa)


@dataclass(frozen=True)
class ClassificationVerdict:
    """Ricci eigenvalue profile of the underlying model."""

    kind: str  # HEISENBERG_TYPE | HYPERBOLIC_TYPE | FLAT | OTHER
    ricci_eigenvalues: np.ndarray  # sorted ascending
    simple_axis: np.ndarray | None


def classify(sc: residuals.SolitonScenario) -> ClassificationVerdict:
    """Label the model by its Ricci eigenvalue pattern.

    HEISENBERG_TYPE: eigenvalues (mu, -mu, -mu) with mu > 0;
    HYPERBOLIC_TYPE: Einstein with s < 0; FLAT: Ric = 0, each up to
    CLASSIFY_TOL.  Takes a single scenario, not a batch.
    """
    ricci = sc.curvature_g.ricci
    if ricci.ndim != 2:
        raise ValueError(
            f"classify takes one scenario, not a batch of shape {ricci.shape[:-2]}"
        )
    vals, vecs = np.linalg.eigh(ricci)
    if np.max(np.abs(vals)) <= CLASSIFY_TOL:
        return ClassificationVerdict("FLAT", vals, None)
    if np.max(vals) - np.min(vals) <= CLASSIFY_TOL:
        kind = "HYPERBOLIC_TYPE" if vals[0] < 0 else "OTHER"
        return ClassificationVerdict(kind, vals, None)
    mu = vals[2]
    if mu > CLASSIFY_TOL and np.all(np.abs(vals[:2] + mu) <= CLASSIFY_TOL):
        axis = vecs[:, 2]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        return ClassificationVerdict("HEISENBERG_TYPE", vals, axis)
    return ClassificationVerdict("OTHER", vals, None)


@dataclass(frozen=True)
class SweepRow:
    scalar: float
    kappa_scalar: float
    alpha: float | None
    h: float | None
    residual_norm: float | None
    verdict: str  # SOLUTION | NOT_SOLUTION | OUT_OF_WINDOW


# Samples per full_report in a sweep.  A block's scenarios and arrays take
# about 10 kB per sample, so this bounds a sweep's working memory (about
# 10 MB) at any number of points; only the returned rows grow with it.
SWEEP_BLOCK = 1024


def _sweep_rows(kappa: float, scalars, tol: float) -> list[SweepRow]:
    """Rows for samples of s_g at one kappa.

    Per block of SWEEP_BLOCK samples, each in-window sample is built on its
    own, then they are stacked into one batch scenario for one full_report.
    """
    rows: list = []
    for start in range(0, len(scalars), SWEEP_BLOCK):
        block = []  # (row index, constructed soliton) per in-window sample
        for scalar in scalars[start : start + SWEEP_BLOCK]:
            try:
                built = construct_hyperbolic_skew(kappa, scalar)
            except OutOfWindow:
                rows.append(SweepRow(scalar, kappa * scalar, None, None, None, "OUT_OF_WINDOW"))
                continue
            block.append((len(rows), built))
            rows.append(None)
        if not block:
            continue
        batch = residuals.SolitonScenario.stack([built.scenario for _, built in block])
        report = residuals.full_report(batch, tol=tol)
        worst = report.worst
        for n, (index, built) in enumerate(block):
            rows[index] = SweepRow(
                scalar=built.scalar,
                kappa_scalar=kappa * built.scalar,
                alpha=built.alpha,
                h=built.h,
                residual_norm=float(worst[n]),
                verdict=str(report.verdict[n]),
            )
    return rows


def sweep_row(kappa: float, scalar: float, tol: float = residuals.DEFAULT_TOL) -> SweepRow:
    """Evaluate a single hyperbolic-skew sample, marking out-of-window values."""
    return _sweep_rows(kappa, [scalar], tol)[0]


def sweep_window(
    kappa: float,
    n_points: int,
    s_min: float | None = None,
    s_max: float | None = None,
    tol: float = residuals.DEFAULT_TOL,
) -> list[SweepRow]:
    """Sample s_g across the admissible window (interior by default)."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    low, high = scalar_window(kappa)
    if s_min is None and s_max is None:
        # strictly interior grid of the open window
        step = (high - low) / (n_points + 1)
        samples = [low + (i + 1) * step for i in range(n_points)]
    else:
        lo = low if s_min is None else s_min
        hi = high if s_max is None else s_max
        _require_finite(s_min=lo, s_max=hi)
        samples = list(np.linspace(lo, hi, n_points))
    return _sweep_rows(kappa, samples, tol)
