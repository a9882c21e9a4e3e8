"""Homogeneous 3D models: structure constants, Levi-Civita connection, curvature.

A homogeneous model is encoded by the bracket coefficients c_{ijk} of a
global orthonormal frame, [e_i, e_j] = sum_k c_{ijk} e_k.  Connection
coefficients are stored as gamma[i, j, k] = <nabla_{e_i} e_j, e_k>.

Curvature convention: R_{X,Y} Z = D_X D_Y Z - D_Y D_X Z - D_{[X,Y]} Z, and
the identification of the curvature with a section of Lambda^2 x Lambda^2
pairs the cyclic 2-form basis with the endomorphism components
<R_{e_i, e_j} e_k, e_l>.  Under this convention the hyperbolic model of
sectional curvature -1 has operator grid +Id (R_{X,Y} = X ^ Y).

Moving between the endomorphism components and the 3x3 operator grid is a
gather at the cyclic pairs frame._P, frame._Q one way and a contraction
with frame.EPS the other; the reconstruction from Ricci gathers rows and
columns of *Ric.  Each contraction in them has one nonzero term per entry,
so it is exact.

Every kernel accepts leading batch axes: structure constants (..., 3, 3, 3),
connection coefficients (..., 3, 3, 3), endomorphism components
(..., 3, 3, 3, 3); a single model is batch shape ().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AntisymmetryViolation, JacobiViolation, TraceMismatch
from .frame import _P, _Q, EPS, CurvatureOperator, star_matrix

STRUCT_TOL = 1e-12
TRACE_TOL = 1e-9  # trace(Ric) against the given s in the closed forms


@dataclass(frozen=True)
class StructureConstants:
    """Dense bracket coefficients c[..., i, j, k], antisymmetric in (i, j)."""

    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.c, dtype=float)
        if a.shape[-3:] != (3, 3, 3):
            raise ValueError("structure constants must be a 3x3x3 grid")
        object.__setattr__(self, "c", a)

    @classmethod
    def from_entries(cls, entries) -> "StructureConstants":
        """Build from sparse (i, j, k, value) entries with 0-based i < j."""
        c = np.zeros((3, 3, 3))
        for i, j, k, v in entries:
            c[i, j, k] += v
            c[j, i, k] -= v
        return cls(c)

    def bracket(self, x, y) -> np.ndarray:
        return np.einsum(
            "...i,...j,...ijk->...k", np.asarray(x, float), np.asarray(y, float), self.c
        )

    def ad_trace(self) -> np.ndarray:
        """Trace of ad: the unimodularity obstruction, tr(ad_{e_i}) per i."""
        return np.einsum("...ijj->...i", self.c)


def abelian() -> StructureConstants:
    return StructureConstants(np.zeros((3, 3, 3)))


def heisenberg(lam: float) -> StructureConstants:
    """Nilpotent model [e1, e2] = lam * e3."""
    return StructureConstants.from_entries([(0, 1, 2, lam)])


def hyperbolic_model(a: float) -> StructureConstants:
    """Solvable model [e1, e2] = a e2, [e1, e3] = a e3; curvature -a^2."""
    return StructureConstants.from_entries([(0, 1, 1, a), (0, 2, 2, a)])


def milnor(l1: float, l2: float, l3: float) -> StructureConstants:
    """Unimodular normal form [e2,e3] = l1 e1, [e3,e1] = l2 e2, [e1,e2] = l3 e3."""
    return StructureConstants.from_entries(
        [(1, 2, 0, l1), (2, 0, 1, l2), (0, 1, 2, l3)]
    )


def jacobi_defect(sc: StructureConstants) -> np.ndarray:
    """Max-norm of the cyclic Jacobi sum over all index triples, per model."""
    c = sc.c
    # [[e_i,e_j],e_k] contributes c_{ijm} c_{mkl}
    t = np.einsum("...ijm,...mkl->...ijkl", c, c)
    cyc = t + np.einsum("...jkil->...ijkl", t) + np.einsum("...kijl->...ijkl", t)
    return np.abs(cyc).max(axis=(-4, -3, -2, -1))


def validate(sc: StructureConstants) -> None:
    """Raise unless every model's c is antisymmetric in (i, j) and satisfies
    Jacobi up to STRUCT_TOL; the message gives the worst deviation."""
    anti = np.abs(sc.c + sc.c.swapaxes(-3, -2)).max()
    if anti > STRUCT_TOL:
        raise AntisymmetryViolation(f"c_ijk + c_jik deviates by {anti:g}")
    defect = jacobi_defect(sc).max()
    if defect > STRUCT_TOL:
        raise JacobiViolation(f"Jacobi identity violated by {defect:g}")


def levi_civita(sc: StructureConstants) -> np.ndarray:
    """Koszul formula in an orthonormal frame: 2 gamma_ijk = c_ijk - c_jki + c_kij."""
    c = sc.c
    return 0.5 * (c - np.einsum("...jki->...ijk", c) + np.einsum("...kij->...ijk", c))


def curvature_endo(sc: StructureConstants, gamma: np.ndarray) -> np.ndarray:
    """Endomorphism components R[i,j,k,l] = <R_{e_i,e_j} e_k, e_l>."""
    r = (
        np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
        - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
        - np.einsum("...ijm,...mkl->...ijkl", sc.c, gamma)
    )
    return r


def operator_from_endo(rendo: np.ndarray) -> CurvatureOperator:
    """Collapse endomorphism components onto the dual 2-form basis:
    K[a, b] = R[i, j, k, l] at the cyclic pairs (i, j) of a and (k, l) of b."""
    k = rendo[..., _P[:, None], _Q[:, None], _P, _Q]
    # a C-contiguous copy: curv_norm_sq sums a strided grid in another order
    return CurvatureOperator(np.ascontiguousarray(k))


def endo_from_operator(r: CurvatureOperator) -> np.ndarray:
    """Expand the dual grid back to full endomorphism components:
    R[i, j] is the skew grid of the 2-form with dual eps_{ija} K[a, :]."""
    return star_matrix(EPS @ r.entries[..., None, :, :])


@dataclass(frozen=True)
class CurvatureData:
    """Riemann operator, Ricci tensor, and scalar curvature of a model."""

    riemann: CurvatureOperator
    ricci: np.ndarray
    scalar: np.ndarray  # batch shape; a numpy float for a single model


def curvature(sc: StructureConstants, gamma: np.ndarray) -> CurvatureData:
    """Curvature of a metric-compatible frame-constant connection."""
    rendo = curvature_endo(sc, gamma)
    # Ric(Y, Z) = sum_i <R_{e_i, Y} Z, e_i>
    ric = np.einsum("...ijki->...jk", rendo)
    return CurvatureData(
        riemann=operator_from_endo(rendo),
        ricci=ric,
        scalar=ric.trace(axis1=-2, axis2=-1),
    )


def _check_trace(ric: np.ndarray, s: float) -> None:
    if abs(np.trace(ric) - s) > TRACE_TOL:
        raise TraceMismatch(f"trace(ricci) = {np.trace(ric):g} but s = {s:g}")


def curvature_via_ricci(ricci, s: float) -> CurvatureOperator:
    """Reconstruct the 3D Riemann operator from Ricci and scalar curvature.

    R_{X,Y} = (s/2) X ^ Y + Y ^ Ric(X) + Ric(Y) ^ X.
    """
    ric = np.asarray(ricci, dtype=float)
    _check_trace(ric, s)
    # row a at the pair (X, Y) = (e_i, e_j) of *e_a = e_i ^ e_j: X ^ Y = *e_a,
    # and e_j ^ w, w ^ e_i are column j and row i of the skew grid *w
    star_ric = star_matrix(ric.T)  # star_ric[i] = *(Ric e_i)
    return CurvatureOperator(0.5 * s * np.eye(3) + star_ric[_P, :, _Q] + star_ric[_Q, _P])


def ricci_square_identity(ricci, s: float) -> np.ndarray:
    """3D closed form: R o_g R = -Ric.Ric + s Ric + (|Ric|^2 - s^2/2) g."""
    ric = np.asarray(ricci, dtype=float)
    _check_trace(ric, s)
    ric_sq = float(np.sum(ric * ric))
    return -ric @ ric + s * ric + (ric_sq - 0.5 * s * s) * np.eye(3)
