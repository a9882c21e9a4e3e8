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

Each constructor checks its arguments in one ``errors.raise_first`` call,
derives the family's parameters and returns through one tail, which checks
that every derived value is finite (h = sqrt(-2 s) overflows at s = -1e308),
and builds the contorsion with ``torsion.reducible``, the one writer of the
normal form A = alpha g + gamma xi (x) xi.

The constructors take arrays: kappa and s_g may carry a batch axis, the
parameters are derived elementwise (np.sqrt and + - * / round as math.sqrt
and float arithmetic do, so every sample is bit for bit its own single
construction), and the tail builds one batched SolitonScenario.  A single
construction is the batch shape () case, with float parameters.  A check
that fails gives the value of the first sample that fails it.

``classify`` takes any batch shape too: one eigh over the batch, then each
sample's kind from its Python floats.  A batch gives an array of kinds and a
(..., 3) grid of simple axes, NaN rows where the kind is not
HEISENBERG_TYPE; a single scenario gives a str kind and an axis or None.

The hyperbolic window -24 < kappa s_g < 0 is one predicate, ``in_window``:
``construct_hyperbolic_skew`` raises OutOfWindow on any sample outside it,
and a sweep uses it to mark OUT_OF_WINDOW rows.  A sweep checks kappa and
the window once, for all its samples, and passes the in-window samples of
each SWEEP_BLOCK, with their kappa s_g, unchecked to ``_hyperbolic``: the
derivation that ``construct_hyperbolic_skew`` runs after its own checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geometry, residuals, torsion
from .errors import (
    DegeneratesToSkew,
    InvalidSampleCount,
    NonNegativeScalar,
    NonPositiveKappa,
    OutOfWindow,
    ScenarioValidationError,
    raise_first,
)

AXIS = np.array([0.0, 0.0, 1.0])
CLASSIFY_TOL = 1e-9  # eigenvalue equalities in classify

HEISENBERG_GENERIC = "heisenberg-generic"
HEISENBERG_SKEW = "heisenberg-skew"
HYPERBOLIC = "hyperbolic"
BOUNDARY = "boundary"

FAMILIES = (HEISENBERG_GENERIC, HEISENBERG_SKEW, HYPERBOLIC, BOUNDARY)


class ConstructedSoliton(NamedTuple):
    """A scenario plus the derived parameters of its family.

    For a batch every parameter is an array of the batch shape; for a single
    construction each is a float.
    """

    scenario: residuals.SolitonScenario
    family: str
    alpha: float | np.ndarray
    gamma: float | np.ndarray
    h: float | np.ndarray
    scalar: float | np.ndarray
    model_parameter: float | np.ndarray  # lambda for Heisenberg, a for hyperbolic


def _finite(name: str, value) -> tuple:
    """The check, for ``errors.raise_first``, that ``value`` is finite."""
    return np.isfinite(value), lambda at: ScenarioValidationError(
        f"{name} = {at(value):g} must be finite")


def _kappa_checks(kappa) -> list:
    """The checks of a kappa argument, in order: finite, then positive."""
    return [_finite("kappa", kappa), (np.greater(kappa, 0), lambda at: NonPositiveKappa(
        f"kappa = {at(kappa):g} must be positive"))]


def _constructed(
    family: str, model, model_parameter, *, alpha, gamma, h, scalar, kappa,
) -> ConstructedSoliton:
    """The one exit of every constructor: check the derived values, then build.

    ``model`` maps ``model_parameter`` to the structure constants; the
    contorsion is torsion.reducible's A = alpha g + gamma xi (x) xi along
    AXIS.  The values broadcast to one batch shape, and the scenario is one
    batch of it; for batch shape () they are floats.
    """
    values = {"alpha": alpha, "gamma": gamma, "h": h, "s_g": scalar,
              "model_parameter": model_parameter, "kappa": kappa}
    shape = np.broadcast(*values.values()).shape
    grid = np.empty((len(values),) + shape)  # the values broadcast, a row per name
    for n, value in enumerate(values.values()):
        grid[n] = value
    if not np.isfinite(grid).all():  # one reduction; row by row only on failure
        raise_first([_finite(name, row) for name, row in zip(values, grid)])
    alpha, gamma, h, scalar, model_parameter, kappa = grid if shape else grid.tolist()
    sc = residuals.SolitonScenario(
        model=model(model_parameter), contorsion=torsion.reducible(alpha, gamma, AXIS),
        h=h, kappa=kappa, phi=np.zeros(shape + (3,)),
    )
    return ConstructedSoliton(sc, family, alpha, gamma, h, scalar, model_parameter)


def construct_generic_reducible(kappa, scalar, sign: int = +1) -> ConstructedSoliton:
    """Heisenberg soliton with generic reducible torsion at the given s_g.

    alpha = sqrt(-s/2), lambda = 2 alpha, h = sqrt(-2 s), and
    gamma = sign/sqrt(kappa) - 2 alpha from kappa (2 alpha + gamma)^2 = 1.
    kappa and s_g may be arrays; sign is one root for the whole batch.
    """
    raise_first(_kappa_checks(kappa) + [_finite("s_g", scalar), (np.less(scalar, 0), lambda at:
                NonNegativeScalar(f"s_g = {at(scalar):g} must be negative"))])
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    scalar = np.asarray(scalar, dtype=float)
    with np.errstate(over="ignore"):  # an overflow to inf fails the tail's check
        alpha = np.sqrt(-0.5 * scalar)
        gamma = sign / np.sqrt(kappa) - 2.0 * alpha
        h = np.sqrt(-2.0 * scalar)
    built = _constructed(HEISENBERG_GENERIC, geometry.heisenberg, 2.0 * alpha,
                         alpha=alpha, gamma=gamma, h=h, scalar=scalar, kappa=kappa)
    # the rule a report applies to decide whether the torsion is skew
    raise_first([(~built.scenario.contorsion.is_pure_skew_torsion(), lambda at: DegeneratesToSkew(
        f"gamma = {at(built.gamma):g}: the torsion is purely skew within "
        f"SKEW_TOL = {torsion.SKEW_TOL:g}, use the skew Heisenberg constructor"))])
    return built


def construct_skew_heisenberg(kappa) -> ConstructedSoliton:
    """The unique skew-torsion Heisenberg soliton: 4 kappa alpha^2 = 1.
    kappa may be an array."""
    raise_first(_kappa_checks(kappa))
    with np.errstate(over="ignore"):
        alpha = 0.5 / np.sqrt(kappa)
        h = 1.0 / np.sqrt(kappa)
        scalar = -2.0 * alpha * alpha  # = -1/(2 kappa)
    return _constructed(HEISENBERG_SKEW, geometry.heisenberg, 2.0 * alpha,
                        alpha=alpha, gamma=0.0, h=h, scalar=scalar, kappa=kappa)


# The admissible open interval of kappa * s_g for hyperbolic skew solitons.
WINDOW = (-24.0, 0.0)


def in_window(kappa_scalar) -> np.ndarray:
    """The window predicate: kappa * s_g in the open interval WINDOW, per sample."""
    return (WINDOW[0] < kappa_scalar) & (kappa_scalar < WINDOW[1])


def _kappa_scalar(kappa, scalar) -> np.ndarray:
    # quietly: an overflow to -inf, or the NaN of inf * 0, lies outside the window
    with np.errstate(over="ignore", invalid="ignore"):
        return np.multiply(kappa, scalar)


def _window_low(kappa: float) -> float:
    """-24/kappa, the window's lower end in s_g, quietly: an inf or NaN fails its check."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return float(np.divide(WINDOW[0], kappa))


def scalar_window(kappa: float) -> tuple[float, float]:
    """Admissible open interval for s_g of hyperbolic skew solitons.

    Raises when -24/kappa overflows (kappa below about 1.3e-307).
    """
    low = _window_low(kappa)
    raise_first(_kappa_checks(kappa) + [_finite("-24/kappa", low)])
    return (low, WINDOW[1])


def construct_hyperbolic_skew(kappa, scalar) -> ConstructedSoliton:
    """Hyperbolic skew-torsion soliton for kappa * s_g in (-24, 0).

    a = sqrt(-s/6), h = sqrt(-2s), and alpha > 0 solves
    kappa (h^2 + 12 alpha^2)^2 = 48 h^2 on the positive square-root branch.
    kappa and s_g may be arrays; every sample must lie in the window.
    """
    kappa_scalar = _kappa_scalar(kappa, scalar)
    raise_first(_kappa_checks(kappa) + [(in_window(kappa_scalar), lambda at: OutOfWindow(
        at(kappa_scalar), WINDOW, at(kappa)))])
    return _hyperbolic(kappa, scalar, kappa_scalar)


def _hyperbolic(kappa, scalar, kappa_scalar) -> ConstructedSoliton:
    """The derivation of ``construct_hyperbolic_skew``, unchecked: kappa
    positive and every kappa_scalar = kappa * s_g in the window are the
    caller's to check."""
    scalar = np.asarray(scalar, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.sqrt(-scalar / 6.0)
        h2 = -2.0 * scalar
        r = np.sqrt(48.0 * h2 / kappa)
        # 12 alpha^2 = r - h^2 = 2 h^2 (24 + kappa s_g) / (kappa (r + h^2)).
        # The second form does not cancel next to the lower end of the
        # window, where 24 + kappa s_g is exact, and is strictly positive
        # inside it.  Where r underflows (kappa = 1e200, s = -1e-200) or
        # overflows (kappa = 1e-300, s = -1e301), r - h^2 is negative or inf,
        # and the NaN or inf alpha fails the tail's check.
        accurate = (h2 <= r) & (r < np.inf)
        alpha_sq = np.where(
            accurate,
            2.0 * h2 * (kappa_scalar - WINDOW[0]) / (12.0 * kappa * (r + h2)),
            (r - h2) / 12.0,
        )
        alpha = np.sqrt(alpha_sq)
        h = np.sqrt(h2)
    return _constructed(HYPERBOLIC, geometry.hyperbolic_model, a,
                        alpha=alpha, gamma=0.0, h=h, scalar=scalar, kappa=kappa)


def boundary_vanishing_torsion(kappa) -> ConstructedSoliton:
    """The alpha = 0 boundary soliton: hyperbolic with kappa s_g = -24.
    kappa may be an array."""
    raise_first(_kappa_checks(kappa))
    with np.errstate(over="ignore"):
        scalar = WINDOW[0] / np.asarray(kappa, dtype=float)
        a = np.sqrt(4.0 / kappa)
        h = np.sqrt(48.0 / kappa)
    return _constructed(BOUNDARY, geometry.hyperbolic_model, a,
                        alpha=0.0, gamma=0.0, h=h, scalar=scalar, kappa=kappa)


class ClassificationVerdict(NamedTuple):
    """Ricci eigenvalue profile of the underlying model.

    For a batch, ``kind`` is an array of strings of the batch shape and
    ``simple_axis`` a (..., 3) grid with a NaN row wherever the kind is not
    HEISENBERG_TYPE; for a single scenario they are a str and an axis or None.
    """

    kind: str | np.ndarray  # HEISENBERG_TYPE | HYPERBOLIC_TYPE | FLAT | OTHER
    ricci_eigenvalues: np.ndarray  # sorted ascending
    simple_axis: np.ndarray | None


_NO_AXIS = [np.nan] * 3  # a batch's simple_axis row where the kind is not HEISENBERG_TYPE


def _kind(lo: float, mid: float, mu: float) -> str:
    """The kind of one sample's Ricci eigenvalues, Python floats in the
    ascending order of eigh: the spread np.max(vals) - np.min(vals) is
    mu - lo, and a NaN fails every test as it fails the array forms
    (lo <= mid catches one in the middle)."""
    if abs(lo) <= CLASSIFY_TOL and abs(mid) <= CLASSIFY_TOL and abs(mu) <= CLASSIFY_TOL:
        return "FLAT"
    if mu - lo <= CLASSIFY_TOL and lo <= mid:
        return "HYPERBOLIC_TYPE" if lo < 0 else "OTHER"
    if mu > CLASSIFY_TOL and abs(lo + mu) <= CLASSIFY_TOL and abs(mid + mu) <= CLASSIFY_TOL:
        return "HEISENBERG_TYPE"
    return "OTHER"


def _oriented(axis: list) -> list:
    """The axis, negated if its largest component (the first of equals) is negative."""
    return [-x for x in axis] if max(axis, key=abs) < 0 else axis


def classify(sc: residuals.SolitonScenario) -> ClassificationVerdict:
    """Label the model by its Ricci eigenvalue pattern, per sample.

    HEISENBERG_TYPE: eigenvalues (mu, -mu, -mu) with mu > 0, with the
    eigenvector of mu as its simple axis; HYPERBOLIC_TYPE: Einstein with s < 0;
    FLAT: Ric = 0, each up to CLASSIFY_TOL.
    """
    vals, vecs = np.linalg.eigh(sc.curvature_g.ricci)
    kinds = [_kind(*sample) for sample in vals.reshape(-1, 3).tolist()]
    # the eigenvector of the largest eigenvalue, per sample, as floats
    tops = vecs[..., 2].reshape(-1, 3).tolist()
    axes = [_oriented(top) if kind == "HEISENBERG_TYPE" else _NO_AXIS
            for kind, top in zip(kinds, tops)]
    if vals.ndim == 1:
        kind = kinds[0]
        axis = np.array(axes[0]) if kind == "HEISENBERG_TYPE" else None
        return ClassificationVerdict(kind, vals, axis)
    return ClassificationVerdict(
        np.array(kinds).reshape(vals.shape[:-1]), vals, np.array(axes).reshape(vals.shape)
    )


class SweepRow(NamedTuple):
    """One sample of a sweep.  The record rule: a record that only holds
    fields is a named tuple, as here: no code to write; every other record is
    a class with an __init__, with __slots__ unless it caches on itself
    (frame.cached_property).  No record is frozen: by contract, none has a
    field rebound or is changed in place after it is built."""

    scalar: float
    kappa_scalar: float
    alpha: float | None  # None, with h and residual_norm, out of the window
    h: float | None
    residual_norm: float | None
    verdict: str  # SOLUTION | NOT_SOLUTION | OUT_OF_WINDOW


# Samples per full_report in a sweep.  One full block peaks at about 4.0 MB
# of working memory (tracemalloc over sweep_window(1.0, 1024): scenario,
# curvature gathers, report and rows), so this bounds a sweep's working
# memory at any number of points; only the returned rows grow with it.
SWEEP_BLOCK = 1024


def _sweep_rows(kappa: float, scalars, tol: float) -> list[SweepRow]:
    """Rows for samples of s_g at one kappa.

    The caller checks kappa, and the window predicate, evaluated once over
    all samples, marks the out-of-window ones.  Per block of SWEEP_BLOCK
    samples, the in-window ones and their kappa s_g reach the derivation
    (``_hyperbolic``) unchecked, as one batch scenario for one full_report.
    """
    scalars = np.asarray(scalars, dtype=float)
    kappa_scalars = _kappa_scalar(kappa, scalars)
    inside = in_window(kappa_scalars)
    s_list, ks_list = scalars.tolist(), kappa_scalars.tolist()
    rows: list = []
    for start in range(0, len(s_list), SWEEP_BLOCK):
        stop = min(start + SWEEP_BLOCK, len(s_list))
        index = np.flatnonzero(inside[start:stop])
        # (alpha, h, residual norm, verdict) per row of the block
        fields = [(None, None, None, "OUT_OF_WINDOW")] * (stop - start)
        if index.size:
            at = start + index  # the block's in-window samples, in the whole sweep
            built = _hyperbolic(kappa, scalars[at], kappa_scalars[at])
            report = residuals.full_report(built.scenario, tol=tol)
            solved = zip(built.alpha.tolist(), built.h.tolist(),
                         report.worst.tolist(), report.verdict.tolist())
            for i, values in zip(index.tolist(), solved):
                fields[i] = values
        rows += map(SweepRow, s_list[start:stop], ks_list[start:stop], *zip(*fields))
    return rows


def sweep_row(kappa: float, scalar: float, tol: float = residuals.DEFAULT_TOL) -> SweepRow:
    """Evaluate a single hyperbolic-skew sample, marking out-of-window values."""
    raise_first(_kappa_checks(kappa))
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
        raise InvalidSampleCount("n_points must be at least 2")
    if s_min is None and s_max is None:
        low, high = scalar_window(kappa)
        # strictly interior grid of the open window
        step = (high - low) / (n_points + 1)
        samples = low + np.arange(1, n_points + 1) * step
    else:
        # the window's lower end, -24/kappa, only when s_min is not given
        lo, name = (_window_low(kappa), "-24/kappa") if s_min is None else (s_min, "s_min")
        hi = WINDOW[1] if s_max is None else s_max
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the check
            step = (hi - lo) / (n_points - 1)
        raise_first(_kappa_checks(kappa) + [
            _finite(name, lo), _finite("s_max", hi),
            _finite("(s_max - s_min)/(points - 1)", step)])
        samples = np.linspace(lo, hi, n_points)
    return _sweep_rows(kappa, samples, tol)
