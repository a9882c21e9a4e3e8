"""Residual evaluation of the 3D Heterotic soliton system.

A scenario is a homogeneous model plus a contorsion, a positive constant
h (the Hodge dual of the torsion 3-form H = h vol), a frame-constant closed
1-form phi, and the coupling kappa.  The equations evaluated here are

    Einstein:    Ric^g + nabla^g phi - (h^2/2) g + kappa R^D o_g R^D = 0
    Yang-Mills:  d*_D R^D + phi . R^D = 0
    dilaton:     delta phi + |phi|^2 - h^2 + kappa |R^D|^2 = 0
    Maxwell:     d h = h phi   (frame-constant h: residual -h phi)

together with the kappa-independent trace identity
s = 3 delta phi + 2|phi|^2 - h^2/2 and, for skew torsion, the recombined
identity obtained by subtracting the trace identity from the trace of the
Einstein equation.

A scenario may be a batch: structure constants (..., 3, 3, 3), contorsion
(..., 3, 3) and phi (..., 3) share leading axes, and h and kappa are scalars
or arrays that broadcast against them.  A single scenario is batch shape ();
every residual and norm then has the shape and the value it has for that
scenario alone.  ``SolitonScenario.stack`` joins single scenarios into one
batch, so that one ``full_report`` evaluates them all.

Each scenario derives its geometry once: ``SolitonScenario.connection``
(the torsion connection D, whose ``.base`` holds the Levi-Civita
coefficients), ``curvature_g`` (Riemann, Ricci and scalar curvature of g)
and ``curvature_D`` (the curvature R^D) are cached on first use, and every
residual below reads them from there.  Every reader shares the cached
objects, so neither they nor the scenario's arrays may be changed in place.

Sign convention for the divergence: (d*_D R)(X) = -(D_{e_i} R)_{e_i, X},
which reproduces the skew-torsion specialization
d^{nabla} Ric(X) + 3 alpha * Ric_0(X) componentwise (the sign of the
alpha-odd term goes with the fixed 2-form action convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry, torsion
from .errors import NonPositiveKappa, NotSkewTorsion, ScenarioValidationError
from .frame import (
    _P,
    _Q,
    EPS,
    CurvatureOperator,
    as_vec,
    curv_compose,
    curv_norm_sq,
    dot,
    star_matrix,
)

DEFAULT_TOL = 1e-9
VALIDATE_TOL = 1e-10  # skew part of the contorsion and d phi in validate_scenario


def _per_grid(x) -> np.ndarray:
    """A per-sample scalar, shaped to broadcast against (..., 3, 3) grids."""
    return np.asarray(x)[..., None, None]


def _norm(x: np.ndarray, core: int) -> np.ndarray:
    """Frobenius norm over the last ``core`` axes: per sample, the same
    float that np.linalg.norm gives for that sample alone."""
    flat = x.reshape(x.shape[: x.ndim - core] + (-1,))
    return np.sqrt(dot(flat, flat))


@dataclass(frozen=True)
class SolitonScenario:
    """One candidate Heterotic soliton on a homogeneous 3D model, or a batch
    of them along leading axes."""

    model: geometry.StructureConstants
    contorsion: torsion.Contorsion
    h: float | np.ndarray
    kappa: float | np.ndarray
    phi: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "phi", as_vec(self.phi))

    @cached_property
    def connection(self) -> torsion.TorsionConnection:
        """D = nabla^g + bbA; ``.base`` holds the Levi-Civita coefficients."""
        return torsion.connection_with_torsion(self.model, self.contorsion)

    @cached_property
    def curvature_g(self) -> geometry.CurvatureData:
        """Riemann operator, Ricci tensor and scalar curvature of the metric."""
        return geometry.curvature(self.model, self.connection.base)

    @cached_property
    def curvature_D(self) -> CurvatureOperator:
        """R^D, the curvature of the torsion connection."""
        return torsion.curvature_D(self.model, self.connection)

    @classmethod
    def stack(cls, scenarios) -> "SolitonScenario":
        """Join single scenarios into one batch of shape (len(scenarios),)."""
        return cls(
            model=geometry.StructureConstants(np.stack([s.model.c for s in scenarios])),
            contorsion=torsion.Contorsion(np.stack([s.contorsion.a for s in scenarios])),
            h=np.array([s.h for s in scenarios], dtype=float),
            kappa=np.array([s.kappa for s in scenarios], dtype=float),
            phi=np.stack([s.phi for s in scenarios]),
        )


def validate_scenario(sc: SolitonScenario) -> None:
    """Structural checks: finite inputs, model validity, kappa > 0, h > 0,
    beta = 0 and phi closed, the last two up to VALIDATE_TOL.  A batch
    passes only if every sample does."""
    for name, value in [
        ("structure constants", sc.model.c),
        ("contorsion", sc.contorsion.a),
        ("h", sc.h),
        ("kappa", sc.kappa),
        ("phi", sc.phi),
    ]:
        if not np.isfinite(value).all():
            raise ScenarioValidationError(f"{name} must be finite (no NaN or inf)")
    geometry.validate(sc.model)
    if not np.greater(sc.kappa, 0).all():
        raise NonPositiveKappa(f"kappa = {np.min(sc.kappa):g} must be positive")
    if not np.greater(sc.h, 0).all():
        raise ScenarioValidationError(f"h = {np.min(sc.h):g} must be positive")
    zeta = sc.contorsion.skew_vector
    if np.abs(zeta).max() > VALIDATE_TOL:
        raise ScenarioValidationError(
            "contorsion has a skew component (beta != 0 along the axis), "
            "excluded on compact models since delta xi = 2 beta"
        )
    # closedness of a frame-constant 1-form: phi([e_i, e_j]) = 0
    dphi = np.einsum("...ijk,...k->...ij", sc.model.c, sc.phi)
    if np.abs(dphi).max() > VALIDATE_TOL:
        raise ScenarioValidationError("phi is not closed: phi([e_i,e_j]) != 0")


def grad_phi(sc: SolitonScenario) -> np.ndarray:
    """(nabla^g phi)[i, j] = -phi(nabla_{e_i} e_j) for frame-constant phi."""
    return -np.einsum("...ijm,...m->...ij", sc.connection.base, sc.phi)


def delta_phi(sc: SolitonScenario) -> np.ndarray:
    """Codifferential delta^g phi = -trace(nabla phi)."""
    return -grad_phi(sc).trace(axis1=-2, axis2=-1)


def ric_gH(model: geometry.StructureConstants, h) -> np.ndarray:
    """Symmetric part of Ric^{g,H} for H = h vol with frame-constant h.

    H o_g H = h^2 g in 3D and the delta H term drops, leaving
    Ric^g - (h^2/2) g.
    """
    data = geometry.curvature(model, geometry.levi_civita(model))
    return data.ricci - _per_grid(0.5 * h * h) * np.eye(3)


def einstein_residual(sc: SolitonScenario) -> np.ndarray:
    """Full (possibly non-symmetric) grid of the first soliton equation."""
    r_d = sc.curvature_D
    return (
        sc.curvature_g.ricci
        + grad_phi(sc)
        - _per_grid(0.5 * sc.h * sc.h) * np.eye(3)
        + _per_grid(sc.kappa) * curv_compose(r_d, r_d)
    )


def yang_mills_residual(sc: SolitonScenario) -> np.ndarray:
    """General divergence path: rows are the dual components of the 2-form
    (d*_D R^D + phi . R^D)(e_x)."""
    r_d = sc.curvature_D
    rform = geometry.endo_from_operator(r_d)
    dr = torsion.covariant_derivative(sc.connection.total, rform)
    # divergence -(sum_i (D_{e_i} R)[e_i, e_x, p, q]) read at the cyclic pairs
    # (p, q), plus the phi contraction R_{phi, e_x}: row x of (*phi) R^D
    return (
        -np.einsum("...iixpq->...xpq", dr)[..., :, _P, _Q]
        + star_matrix(sc.phi) @ r_d.entries
    )


def yang_mills_skew_path(sc: SolitonScenario) -> np.ndarray:
    """Skew-torsion specialization of the Yang-Mills residual.

    Requires contorsion alpha g (in every sample of a batch); equals
    d^{nabla} Ric(X) + 3 alpha * Ric_0(X) + R^g_{phi,X} + alpha^2 phi ^ X
    (the +3 alpha sign goes with the fixed 2-form action convention).
    """
    ct = sc.contorsion
    if not ct.is_pure_skew_torsion().all():
        raise NotSkewTorsion("contorsion is not of the form alpha * g")
    alpha = ct.trace_part
    data = sc.curvature_g
    ric0 = data.ricci - _per_grid(data.scalar / 3.0) * np.eye(3)
    dric = torsion.covariant_derivative(sc.connection.base, data.ricci)
    # row x: sum_j e_j x (nabla_{e_j} Ric)(e_x) + 3 alpha Ric_0(e_x)
    #        + R^g_{phi, e_x} + alpha^2 phi ^ e_x; row x of *phi is phi x e_x
    return (
        np.einsum("ajm,...jxm->...xa", EPS, dric)
        + _per_grid(3.0 * alpha) * np.swapaxes(ric0, -1, -2)
        + star_matrix(sc.phi)
        @ (data.riemann.entries + _per_grid(alpha * alpha) * np.eye(3))
    )


def dilaton_residual(sc: SolitonScenario) -> np.ndarray:
    return (
        delta_phi(sc)
        + dot(sc.phi, sc.phi)
        - sc.h * sc.h
        + sc.kappa * curv_norm_sq(sc.curvature_D)
    )


def maxwell_residual(sc: SolitonScenario) -> np.ndarray:
    """Residual of d h = h phi; frame-constant h gives -h phi."""
    return -np.asarray(sc.h)[..., None] * sc.phi


def trace_identity_residual(sc: SolitonScenario) -> np.ndarray:
    """Residual of s = 3 delta phi + 2 |phi|^2 - h^2/2 (kappa-independent)."""
    return (
        sc.curvature_g.scalar
        - 3.0 * delta_phi(sc)
        - 2.0 * dot(sc.phi, sc.phi)
        + 0.5 * sc.h * sc.h
    )


def remark_identity_residual(sc: SolitonScenario) -> np.ndarray:
    """Skew-torsion recombination:
    2k|Ric_0|^2 + 2|phi|^2 - 2h^2 + (k/6)(s - 6a^2)^2 + 2 delta phi.

    Equals trace(einstein_residual) - trace_identity_residual.  Requires
    contorsion alpha g in every sample of a batch.
    """
    ct = sc.contorsion
    if not ct.is_pure_skew_torsion().all():
        raise NotSkewTorsion("contorsion is not of the form alpha * g")
    alpha = ct.trace_part
    data = sc.curvature_g
    ric0 = data.ricci - _per_grid(data.scalar / 3.0) * np.eye(3)
    s = data.scalar
    return (
        2.0 * sc.kappa * (ric0 * ric0).sum(axis=(-2, -1))
        + 2.0 * dot(sc.phi, sc.phi)
        - 2.0 * sc.h * sc.h
        + (sc.kappa / 6.0) * (s - 6.0 * alpha * alpha) ** 2
        + 2.0 * delta_phi(sc)
    )


def _worst(norms: dict) -> np.ndarray:
    return np.maximum.reduce(list(norms.values()))


@dataclass(frozen=True)
class ResidualReport:
    """All residuals of a scenario plus their norms and the verdict.

    For a batch every field but ``tolerance`` carries the batch axes, and
    ``verdict`` is an array of strings; for a single scenario the norms are
    numpy floats and the verdict a string.
    """

    einstein_sym: np.ndarray
    einstein_skew: np.ndarray
    yang_mills: np.ndarray
    dilaton: np.ndarray
    maxwell: np.ndarray
    trace_identity: np.ndarray
    remark_identity: np.ndarray | None
    norms: dict
    tolerance: float
    verdict: str | np.ndarray

    @property
    def worst(self) -> np.ndarray:
        """The largest norm, per sample: what the verdict compares to the tolerance."""
        return _worst(self.norms)

    @property
    def is_solution(self) -> bool | np.ndarray:
        return self.verdict == "SOLUTION"


def full_report(sc: SolitonScenario, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Evaluate every equation of the system and aggregate a verdict.

    The remark identity is reported only when every sample has skew
    torsion; otherwise it is None.
    """
    validate_scenario(sc)
    ein = einstein_residual(sc)
    ein_t = np.swapaxes(ein, -1, -2)
    ein_sym = 0.5 * (ein + ein_t)
    ein_skew = 0.5 * (ein - ein_t)
    ym = yang_mills_residual(sc)
    dil = dilaton_residual(sc)
    mx = maxwell_residual(sc)
    tr_id = trace_identity_residual(sc)
    try:
        rem = remark_identity_residual(sc)
    except NotSkewTorsion:
        rem = None
    norms = {
        "einstein": _norm(ein_sym, 2),
        "einstein_skew": _norm(ein_skew, 2),
        "yang_mills": _norm(ym, 2),
        "dilaton": np.abs(dil),
        "maxwell": _norm(mx, 1),
    }
    # [()] turns the 0-d array of a single scenario into a string
    verdict = np.where(_worst(norms) <= tol, "SOLUTION", "NOT_SOLUTION")[()]
    return ResidualReport(
        einstein_sym=ein_sym,
        einstein_skew=ein_skew,
        yang_mills=ym,
        dilaton=dil,
        maxwell=mx,
        trace_identity=tr_id,
        remark_identity=rem,
        norms=norms,
        tolerance=tol,
        verdict=verdict,
    )
