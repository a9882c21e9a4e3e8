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

Each scenario is validated once, by the one ``validate_scenario`` call of
``full_report`` (or of ``cli.parse_scenario``, for classify), and derives
every shared term once: ``SolitonScenario.connection``
(the torsion connection D, whose ``.base`` holds the Levi-Civita
coefficients), ``curvature_g`` (Riemann, Ricci and scalar curvature of g)
and ``curvature_D`` (the curvature R^D), both from one
``geometry.curvature_pair`` pass, ``nabla_phi`` (nabla^g phi),
``delta_phi`` (delta^g phi) and ``phi_sq`` (|phi|^2) are cached on first
use, and every residual below reads them from there.  Every reader shares
them and the scenario's arrays: not rebound, not changed in place is a
contract for every het3 record, as no record is frozen (the record rule of
``constructors.SweepRow``).  A report computes the two identities only
when they are read: a sweep never reads them.

The Einstein term kappa R^D o_g R^D is ``frame.curv_square``, the Hodge
closed form tr(M) g - M of the Gram matrix M of the rows of R^D.entries,
which gives the bits of the direct contraction ``frame.curv_compose``.

Sign convention for the divergence: (d*_D R)(X) = -(D_{e_i} R)_{e_i, X},
which reproduces the skew-torsion specialization
d^{nabla} Ric(X) + 3 alpha * Ric_0(X) componentwise (the sign of the
alpha-odd term goes with the fixed 2-form action convention).

The divergence is evaluated in the dual basis, without expanding R^D to
its rank-4 components: with K = R^D.entries, Gamma the coefficients of D,
v_m = Gamma_iim, B_xa = Gamma_ixm eps_ima and
M_icb = Gamma_{i P_c m} eps_{m Q_c b} + Gamma_{i Q_c m} eps_{P_c m b}
(at the cyclic pairs (P_c, Q_c) of frame._P, frame._Q), the Yang-Mills
residual is

    Y = (*v + B + *phi) K + eps_ixa K_ab M_icb.

Every factor of eps is +-1 or 0, so Y sums the products of the
expand-and-trace evaluation in another order only.

A residual that overflows the float range fails the report with
NonFiniteResidual (``errors.raise_first``), not a verdict: it names the
first equation that a sample fails, and in ``invalid_samples`` each sample
whose norm is not finite.  The scenario checks its Ricci tensor likewise,
once, where it computes it (residuals, identities and classify share it),
and a report each identity where it computes it, at skew samples only for
the remark identity.
"""

from __future__ import annotations

import numpy as np

from . import geometry, torsion
from .errors import (
    NonFiniteResidual,
    NonPositiveKappa,
    NotSkewTorsion,
    ScenarioValidationError,
    every,
    raise_first,
)
from .frame import (
    _P,
    _Q,
    EPS,
    IDENTITY,
    CurvatureOperator,
    _max_abs,
    _per_grid,
    as_vec,
    cached_property,
    curv_norm_sq,
    curv_square,
    dot,
    star_matrix,
)

DEFAULT_TOL = 1e-9
VALIDATE_TOL = 1e-10  # d phi in validate_scenario; the skew part has torsion.SKEW_TOL

# An overflow shows as inf or NaN in a residual, which the report rejects.
_OVERFLOW_QUIET = dict(over="ignore", invalid="ignore")

# The Yang-Mills terms linear in Gamma, as constant maps on its flat
# indices: (*v + B)_xa = sum_ijm Gamma_ijm _YM_LINEAR[ijm, xa] and
# M_icb = sum_jm Gamma_ijm _YM_M[jm, bc].
_YM_LINEAR = (
    np.einsum("jx,ima->ijmxa", np.eye(3), EPS) + np.einsum("ij,xam->ijmxa", np.eye(3), EPS)
).reshape(27, 9)
_YM_M = (
    np.einsum("cj,mcb->jmbc", np.eye(3)[_P], EPS[:, _Q, :])
    + np.einsum("cj,cmb->jmbc", np.eye(3)[_Q], EPS[_P])
).reshape(9, 9)
# eps_ixa as [(x, i), a]: _YM_EPS @ K is eps_ixa K_ab as [(x, i), b]
_YM_EPS = np.ascontiguousarray(np.swapaxes(EPS, 0, 1).reshape(9, 3))


def _norm(x: np.ndarray, core: int) -> np.ndarray:
    """Frobenius norm over the last ``core`` axes: per sample, the same
    float that np.linalg.norm gives for that sample alone."""
    flat = x.reshape(x.shape[: x.ndim - core] + (-1,))
    return np.sqrt(dot(flat, flat))


class SolitonScenario:
    """One candidate Heterotic soliton on a homogeneous 3D model, or a batch
    of them along leading axes."""

    def __init__(self, model: geometry.StructureConstants, contorsion: torsion.Contorsion,
                 h: float | np.ndarray, kappa: float | np.ndarray, phi=(0.0, 0.0, 0.0)):
        self.model, self.contorsion, self.h, self.kappa = model, contorsion, h, kappa
        self.phi = as_vec(phi)

    @cached_property
    def connection(self) -> torsion.TorsionConnection:
        """D = nabla^g + bbA; ``.base`` holds the Levi-Civita coefficients."""
        return torsion.connection_with_torsion(self.model, self.contorsion)

    @cached_property
    def _curvatures(self) -> tuple[geometry.CurvatureData, CurvatureOperator]:
        """R^g, its Ricci (checked finite) and scalar curvature, and R^D, in one pass."""
        conn = self.connection
        with np.errstate(**_OVERFLOW_QUIET):
            pair = geometry.curvature_pair(self.model, conn.base, conn.total)
        raise_first([_overflow("Ricci tensor", np.isfinite(pair[0].ricci).all(axis=(-2, -1)))])
        return pair

    @cached_property
    def curvature_g(self) -> geometry.CurvatureData:
        """Riemann operator, Ricci tensor and scalar curvature of the metric."""
        return self._curvatures[0]

    @cached_property
    def curvature_D(self) -> CurvatureOperator:
        """R^D, the curvature of the torsion connection."""
        return self._curvatures[1]

    @cached_property
    def nabla_phi(self) -> np.ndarray:
        """nabla^g phi, the grid of ``grad_phi``."""
        return grad_phi(self)

    @cached_property
    def delta_phi(self) -> np.ndarray:
        """Codifferential delta^g phi = -trace(nabla^g phi)."""
        return -self.nabla_phi.trace(axis1=-2, axis2=-1)

    @cached_property
    def phi_sq(self) -> np.ndarray:
        """|phi|^2, per sample."""
        return dot(self.phi, self.phi)

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


def structural_checks(sc: SolitonScenario) -> list:
    """The checks of ``validate_scenario``, in order, as
    ``errors.raise_first`` reads them: finite inputs, model validity
    (``geometry.model_checks``), kappa > 0, h > 0, beta = 0 up to
    torsion.SKEW_TOL and phi closed up to VALIDATE_TOL.  The finite check
    is one check per input in the order of ``inputs``, folded into one."""
    inputs = {
        "structure constants": sc.model.c,
        "contorsion": sc.contorsion.a,
        "h": sc.h,
        "kappa": sc.kappa,
        "phi": sc.phi,
    }
    # one reduction over every input, and per sample only when it fails
    finite = np.isfinite(np.concatenate([np.ravel(value) for value in inputs.values()])).all() or (
        every(np.isfinite(value).all(axis=tuple(range(-core, 0)))
              for value, core in zip(inputs.values(), (3, 2, 0, 0, 1))))
    # the bound of Contorsion.is_pure_skew_torsion, which then ignores zeta;
    # quietly, as every check reads inputs that may not be finite
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = _max_abs(sc.contorsion.skew_vector, 1)
        # closedness of a frame-constant 1-form: phi([e_i, e_j]) = 0
        dphi = _max_abs(np.einsum("...ijk,...k->...ij", sc.model.c, sc.phi), 2)
    return [
        (finite, lambda at: ScenarioValidationError(
            f"{next(name for name, value in inputs.items() if not np.isfinite(value).all())} "
            "must be finite (no NaN or inf)")),
        *geometry.model_checks(sc.model),
        (np.greater(sc.kappa, 0),
         lambda at: NonPositiveKappa(f"kappa = {at(sc.kappa):g} must be positive")),
        (np.greater(sc.h, 0),
         lambda at: ScenarioValidationError(f"h = {at(sc.h):g} must be positive")),
        # these two fail only a value past their bound: a NaN, which
        # opposite overflows in the sums of d phi can give, passes
        (~(zeta > torsion.SKEW_TOL), lambda at: ScenarioValidationError(
            "contorsion has a skew component (beta != 0 along the axis), "
            "excluded on compact models since delta xi = 2 beta")),
        (~(dphi > VALIDATE_TOL),
         lambda at: ScenarioValidationError("phi is not closed: phi([e_i,e_j]) != 0")),
    ]


def validate_scenario(sc: SolitonScenario) -> None:
    """Raise the error of the first of ``structural_checks`` that a sample
    fails, naming in its ``invalid_samples`` every sample that fails one: a
    batch passes only if every sample does."""
    raise_first(structural_checks(sc))


def grad_phi(sc: SolitonScenario) -> np.ndarray:
    """(nabla^g phi)[i, j] = -phi(nabla_{e_i} e_j) for frame-constant phi.

    Residuals read it once per scenario, as ``sc.nabla_phi``.
    """
    return -np.einsum("...ijm,...m->...ij", sc.connection.base, sc.phi)


def einstein_residual(sc: SolitonScenario) -> np.ndarray:
    """Full (possibly non-symmetric) grid of the first soliton equation."""
    return (
        sc.curvature_g.ricci
        + sc.nabla_phi
        - _per_grid(0.5 * sc.h * sc.h) * IDENTITY
        + _per_grid(sc.kappa) * curv_square(sc.curvature_D)
    )


def yang_mills_residual(sc: SolitonScenario) -> np.ndarray:
    """General divergence path: rows are the dual components of the 2-form
    (d*_D R^D + phi . R^D)(e_x).

    Y = (*v + B + *phi) K + eps_ixa K_ab M_icb, in the dual basis (see the
    module docstring): the divergence -(sum_i (D_{e_i} R)[e_i, e_x]) read at
    the cyclic pairs, plus the phi contraction R_{phi, e_x}.
    """
    k = sc.curvature_D.entries
    gamma = sc.connection.total
    lead = gamma.shape[:-3]
    linear = gamma.reshape(lead + (1, 27)) @ _YM_LINEAR
    m = gamma.reshape(lead + (3, 9)) @ _YM_M  # M_icb as [i, (b, c)]
    eps_k = _YM_EPS @ k  # eps_ixa K_ab as [(x, i), b]
    return (
        (linear.reshape(lead + (3, 3)) + star_matrix(sc.phi)) @ k
        + eps_k.reshape(lead + (3, 9)) @ m.reshape(lead + (9, 3))
    )


def _alpha_ric0(sc: SolitonScenario) -> tuple[np.ndarray, np.ndarray]:
    """alpha = tr(A)/3 and the traceless Ricci tensor Ric_0, per sample."""
    data = sc.curvature_g
    return sc.contorsion.trace_part, data.ricci - _per_grid(data.scalar / 3.0) * IDENTITY


def _skew_alpha_ric0(sc: SolitonScenario) -> tuple[np.ndarray, np.ndarray]:
    """alpha and Ric_0 of a scenario with contorsion alpha g in every sample."""
    raise_first([(sc.contorsion.is_pure_skew_torsion(),
                  lambda at: NotSkewTorsion("contorsion is not of the form alpha * g"))])
    return _alpha_ric0(sc)


def yang_mills_skew_path(sc: SolitonScenario) -> np.ndarray:
    """Skew-torsion specialization of the Yang-Mills residual.

    Requires contorsion alpha g (in every sample of a batch); equals
    d^{nabla} Ric(X) + 3 alpha * Ric_0(X) + R^g_{phi,X} + alpha^2 phi ^ X
    (the +3 alpha sign goes with the fixed 2-form action convention).
    """
    alpha, ric0 = _skew_alpha_ric0(sc)
    data = sc.curvature_g
    dric = torsion.covariant_derivative(sc.connection.base, data.ricci)
    # row x: sum_j e_j x (nabla_{e_j} Ric)(e_x) + 3 alpha Ric_0(e_x)
    #        + R^g_{phi, e_x} + alpha^2 phi ^ e_x; row x of *phi is phi x e_x
    return (
        np.einsum("ajm,...jxm->...xa", EPS, dric)
        + _per_grid(3.0 * alpha) * np.swapaxes(ric0, -1, -2)
        + star_matrix(sc.phi)
        @ (data.riemann.entries + _per_grid(alpha * alpha) * IDENTITY)
    )


def dilaton_residual(sc: SolitonScenario) -> np.ndarray:
    return (
        sc.delta_phi
        + sc.phi_sq
        - sc.h * sc.h
        + sc.kappa * curv_norm_sq(sc.curvature_D)
    )


def maxwell_residual(sc: SolitonScenario) -> np.ndarray:
    """Residual of d h = h phi: -h phi for a frame-constant h > 0, so a
    SOLUTION needs |phi| <= tol/h."""
    return -np.asarray(sc.h)[..., None] * sc.phi


def trace_identity_residual(sc: SolitonScenario) -> np.ndarray:
    """Residual of s = 3 delta phi + 2 |phi|^2 - h^2/2 (kappa-independent)."""
    return (
        sc.curvature_g.scalar
        - 3.0 * sc.delta_phi
        - 2.0 * sc.phi_sq
        + 0.5 * sc.h * sc.h
    )


def remark_identity_residual(sc: SolitonScenario) -> np.ndarray:
    """Skew-torsion recombination:
    2k|Ric_0|^2 + 2|phi|^2 - 2h^2 + (k/6)(s - 6a^2)^2 + 2 delta phi.

    Equals trace(einstein_residual) - trace_identity_residual.  Requires
    contorsion alpha g in every sample of a batch.
    """
    return _remark(sc, *_skew_alpha_ric0(sc))


def _remark(sc: SolitonScenario, alpha: np.ndarray, ric0: np.ndarray) -> np.ndarray:
    """The recombined identity of ``remark_identity_residual``, unchecked."""
    s = sc.curvature_g.scalar
    shift = s - 6.0 * alpha * alpha
    # squared by pow at every batch shape, as a single float64's ** 2 squares
    # it: an array's ** 2 multiplies, off in the last bit in 7 of 10000 draws
    square = np.float_power(shift, 2)
    return (
        2.0 * sc.kappa * (ric0 * ric0).sum(axis=(-2, -1))
        + 2.0 * sc.phi_sq
        - 2.0 * sc.h * sc.h
        + (sc.kappa / 6.0) * square
        + 2.0 * sc.delta_phi
    )


def _overflow(what: str, finite) -> tuple:
    """The check, for ``errors.raise_first``, that ``what`` is finite: per
    sample, ``finite``; its error is NonFiniteResidual."""
    return finite, lambda at: NonFiniteResidual(
        f"the {what} is not finite: the scenario overflows the float range")


class ResidualReport:
    """All residuals of a scenario plus their norms and the verdict.

    ``worst`` is the largest norm per sample, which the verdict compares
    with ``tolerance``.  For a batch every field but ``tolerance`` carries
    the batch axes, and ``verdict`` is an array of strings; for a single
    scenario the norms are numpy floats and the verdict a string.  The two
    identities are computed on first read, from ``scenario``.
    """

    def __init__(self, scenario: SolitonScenario, einstein_sym, einstein_skew, yang_mills,
                 dilaton, maxwell, norms: dict, worst, tolerance: float, verdict):
        self.scenario, self.norms, self.worst = scenario, norms, worst
        self.einstein_sym, self.einstein_skew = einstein_sym, einstein_skew
        self.yang_mills, self.dilaton, self.maxwell = yang_mills, dilaton, maxwell
        self.tolerance, self.verdict = tolerance, verdict

    @property
    def is_solution(self) -> bool | np.ndarray:
        return self.verdict == "SOLUTION"

    @cached_property
    def trace_identity(self) -> np.ndarray:
        """``trace_identity_residual`` of the scenario."""
        with np.errstate(**_OVERFLOW_QUIET):
            trace = trace_identity_residual(self.scenario)
        raise_first([_overflow("trace identity residual", np.isfinite(trace))])
        return trace

    @cached_property
    def remark_identity(self) -> np.ndarray | None:
        """``remark_identity_residual`` at the samples with skew torsion: None
        when no sample has it, and NaN at the samples of a batch without it.
        Only the skew samples are checked finite."""
        skew = self.scenario.contorsion.is_pure_skew_torsion()
        if not skew.any():
            return None
        with np.errstate(**_OVERFLOW_QUIET):
            remark = _remark(self.scenario, *_alpha_ric0(self.scenario))
        raise_first([_overflow("remark identity residual", np.isfinite(remark) | ~skew)])
        # [()]: a numpy float, not a 0-d array, for a single scenario
        return np.where(skew, remark, np.nan)[()]


def full_report(sc: SolitonScenario, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Evaluate every equation of the system and aggregate a verdict.

    Raises NonFiniteResidual, naming the first equation in the order of
    ``norms``, when a residual or its norm overflows.
    """
    validate_scenario(sc)
    with np.errstate(**_OVERFLOW_QUIET):
        ein = einstein_residual(sc)
        ein_t = np.swapaxes(ein, -1, -2)
        ein_sym = 0.5 * (ein + ein_t)
        ein_skew = 0.5 * (ein - ein_t)
        ym = yang_mills_residual(sc)
        dil = dilaton_residual(sc)
        mx = maxwell_residual(sc)
        norms = {
            "einstein": _norm(ein_sym, 2),
            "einstein_skew": _norm(ein_skew, 2),
            "yang_mills": _norm(ym, 2),
            "dilaton": np.abs(dil),
            "maxwell": _norm(mx, 1),
        }
    worst = np.maximum.reduce(list(norms.values()))
    if not np.isfinite(worst).all():
        raise_first([_overflow(f"{name} residual", np.isfinite(norm))
                     for name, norm in norms.items()])
    # a str for a single scenario, which then builds no string array
    verdict = (np.where(worst <= tol, "SOLUTION", "NOT_SOLUTION") if worst.ndim
               else "SOLUTION" if worst <= tol else "NOT_SOLUTION")
    return ResidualReport(
        scenario=sc,
        einstein_sym=ein_sym,
        einstein_skew=ein_skew,
        yang_mills=ym,
        dilaton=dil,
        maxwell=mx,
        norms=norms,
        worst=worst,
        tolerance=tol,
        verdict=verdict,
    )
