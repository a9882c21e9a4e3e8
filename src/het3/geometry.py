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

The curvature has two implementations.  ``curvature_endo``, collapsed by
``operator_from_endo`` and an einsum over i for Ricci (``curvature``), is
the definition.  ``curvature_pair`` is what scenarios use: R^g, Ric^g,
s_g and R^D in one pass, from a fixed index table (built here from
frame._P, frame._Q) that lists the factors of every product the results
read, summed in the einsum's order, so that it gives the definition's bits.

Every kernel accepts leading batch axes: structure constants (..., 3, 3, 3),
connection coefficients (..., 3, 3, 3), endomorphism components
(..., 3, 3, 3, 3); a single model is batch shape ().
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import AntisymmetryViolation, JacobiViolation, TraceMismatch, raise_first
from .frame import _P, _Q, EPS, IDENTITY, CurvatureOperator, _max_abs, star_matrix

STRUCT_TOL = 1e-12
TRACE_TOL = 1e-9  # trace(Ric) against the given s in the closed forms


class StructureConstants:
    """Dense bracket coefficients c[..., i, j, k], antisymmetric in (i, j)."""

    __slots__ = ("c",)

    def __init__(self, c):
        a = np.asarray(c, dtype=float)
        if a.shape[-3:] != (3, 3, 3):
            raise ValueError("structure constants must be a 3x3x3 grid")
        self.c = a

    @classmethod
    def from_entries(cls, entries) -> "StructureConstants":
        """Build from sparse (i, j, k, value) entries with 0-based i < j.

        A value may be an array: the values broadcast to the batch shape.
        """
        shape = np.broadcast(*[v for *_, v in entries]).shape
        rows = np.zeros((27,) + shape)  # rows[9 i + 3 j + k] is c[..., i, j, k]
        for i, j, k, v in entries:
            rows[9 * i + 3 * j + k] += v
            rows[9 * j + 3 * i + k] -= v
        return cls(np.ascontiguousarray(rows.reshape(27, -1).T).reshape(shape + (3, 3, 3)))

    def ad_trace(self) -> np.ndarray:
        """Trace of ad: the unimodularity obstruction, tr(ad_{e_i}) per i."""
        return np.einsum("...ijj->...i", self.c)


def abelian() -> StructureConstants:
    return StructureConstants(np.zeros((3, 3, 3)))


def heisenberg(lam) -> StructureConstants:
    """Nilpotent model [e1, e2] = lam * e3; an array of lam gives a batch."""
    return StructureConstants.from_entries([(0, 1, 2, lam)])


def hyperbolic_model(a) -> StructureConstants:
    """Solvable model [e1, e2] = a e2, [e1, e3] = a e3; curvature -a^2.
    An array of a gives a batch."""
    return StructureConstants.from_entries([(0, 1, 1, a), (0, 2, 2, a)])


def milnor(l1, l2, l3) -> StructureConstants:
    """Unimodular normal form [e2,e3] = l1 e1, [e3,e1] = l2 e2, [e1,e2] = l3 e3."""
    return StructureConstants.from_entries(
        [(1, 2, 0, l1), (2, 0, 1, l2), (0, 1, 2, l3)]
    )


def _cyclic_tables() -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of t[j, k, i, l] and t[k, i, j, l] at each flat
    index 27 i + 9 j + 3 k + l of a (3, 3, 3, 3) grid t."""
    i, j, k, l = np.indices((3, 3, 3, 3)).reshape(4, 81)
    return 27 * j + 9 * k + 3 * i + l, 27 * k + 9 * i + 3 * j + l


_JKI, _KIJ = _cyclic_tables()


def jacobi_defect(sc: StructureConstants) -> np.ndarray:
    """Max-norm of the cyclic Jacobi sum over all index triples, per model:
    the one reduction of the Jacobi identity, which ``validate`` compares
    with STRUCT_TOL.  Opposite overflows in a sum give inf - inf, quietly:
    the defect is then NaN."""
    c = sc.c
    # [[e_i,e_j],e_k] contributes c_{ijm} c_{mkl}, flat over (i, j, k, l)
    t = np.einsum("...ijm,...mkl->...ijkl", c, c).reshape(c.shape[:-3] + (81,))
    # the cyclic relabelings t[jkil] and t[kijl], gathered from the flat entries
    with np.errstate(invalid="ignore"):
        return _max_abs(t + t.take(_JKI, axis=-1) + t.take(_KIJ, axis=-1), 1)


def model_checks(sc: StructureConstants) -> list:
    """The checks of ``validate``, in order, as ``errors.raise_first`` reads
    them: per check, whether each model passes it, and its error, which
    gives the deviation of the first model that fails it.  A NaN deviation
    fails, and a Jacobi sum that overflows is named as such."""
    c = sc.c
    # each deviation reduced once per model, quietly: an overflow or a NaN
    # fails its check
    with np.errstate(over="ignore", invalid="ignore"):
        anti = _max_abs(c + c.swapaxes(-3, -2), 3)
        defect = jacobi_defect(sc)
    return [
        (anti <= STRUCT_TOL,
         lambda at: AntisymmetryViolation(f"c_ijk + c_jik deviates by {at(anti):g}")),
        (defect <= STRUCT_TOL, lambda at: JacobiViolation(
            "structure constants overflow the float range in the Jacobi sums"
            if not math.isfinite(at(defect)) else
            f"Jacobi identity violated by {at(defect):g}")),
    ]


def validate(sc: StructureConstants) -> None:
    """Raise unless every model's c is antisymmetric in (i, j) and satisfies
    Jacobi up to STRUCT_TOL: the error of the first of ``model_checks`` that
    a model fails."""
    raise_first(model_checks(sc))


def levi_civita(sc: StructureConstants) -> np.ndarray:
    """Koszul formula in an orthonormal frame: 2 gamma_ijk = c_ijk - c_jki + c_kij."""
    c = sc.c
    # the cyclic relabelings c[jki] and c[kij] as views of c: the views that
    # einsum "...jki->...ijk" and "...kij->...ijk" return
    n = c.ndim - 3
    lead = tuple(range(n))
    jki = c.transpose(lead + (n + 2, n, n + 1))
    kij = c.transpose(lead + (n + 1, n + 2, n))
    return 0.5 * (c - jki + kij)


def curvature_endo(sc: StructureConstants, gamma: np.ndarray) -> np.ndarray:
    """Endomorphism components R[i,j,k,l] = <R_{e_i,e_j} e_k, e_l>."""
    # sum_m gamma_jkm gamma_iml; the second quadratic term, sum_m gamma_ikm
    # gamma_jml, is the same grid with i and j swapped
    t = np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
    return t - np.swapaxes(t, -4, -3) - np.einsum("...ijm,...mkl->...ijkl", sc.c, gamma)


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


class CurvatureData(NamedTuple):
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


def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """The index table of ``curvature_pair``, as (left, right) factor indices
    into the flat [gamma^g | gamma^D | c] vector, each of shape
    (3 terms, 3 m, 45 entries).

    Entries: the 9 grid entries R^g[P_a, Q_a, P_b, Q_b] (a, b row-major), the
    27 Ricci terms R^g[i, j, k, i] (i, j, k row-major), then the 9 grid
    entries of R^D.  Terms, as in ``curvature_endo``: t[ijkl] =
    gamma_jkm gamma_iml, t[jikl] = gamma_ikm gamma_jml and
    ct[ijkl] = c_ijm gamma_mkl.
    """
    grid = [np.repeat(_P, 3), np.repeat(_Q, 3), np.tile(_P, 3), np.tile(_Q, 3)]
    i, j, k = np.indices((3, 3, 3)).reshape(3, 27)
    ricci = [i, j, k, i]
    i, j, k, l = (np.concatenate(axis) for axis in zip(grid, ricci, grid))
    g = np.repeat([0, 27], [36, 9])  # the offset of gamma^g or gamma^D
    m = np.arange(3)[:, None]
    left = np.stack([g + 9 * j + 3 * k + m, g + 9 * i + 3 * k + m, 54 + 9 * i + 3 * j + m])
    right = np.stack([g + 9 * i + 3 * m + l, g + 9 * j + 3 * m + l, g + 9 * m + 3 * k + l])
    return left, right


_LEFT, _RIGHT = _pair_table()

# Samples per gather in curvature_pair: the two gathered factor grids of a
# chunk take 2 x 405 x 8 B per sample, about 0.8 MB, at any batch size.
_PAIR_CHUNK = 128


def curvature_pair(
    sc: StructureConstants, gamma_g: np.ndarray, gamma_d: np.ndarray
) -> tuple[CurvatureData, CurvatureOperator]:
    """``curvature(sc, gamma_g)`` and ``curvature(sc, gamma_d).riemann`` in
    one pass over the index table, bit for bit.

    The factors of the products are gathered, _PAIR_CHUNK samples at a
    time, from a flat [gamma^g | gamma^D | c] grid with one row per index,
    and summed in the einsums' order: over m from a zero start, then
    (t[ijkl] - t[jikl]) - ct, then the Ricci terms over i.  Only the entries
    the results read are formed: 45 of the 162 of the two curvature_endo
    grids.  The batch shape is that of the three inputs broadcast together.
    """
    arrays = (gamma_g, gamma_d, sc.c)
    if not gamma_g.shape == gamma_d.shape == sc.c.shape:
        arrays = np.broadcast_arrays(*arrays)
    shape = arrays[0].shape[:-3]
    # one row per index and one column per sample: a table entry gathers a row
    x = np.concatenate([a.reshape(-1, 27).T for a in arrays])
    n = x.shape[1]
    s = np.empty((3, 45, n))  # the sums over m of the three terms
    for start in range(0, n, _PAIR_CHUNK):
        cols = slice(start, start + _PAIR_CHUNK)
        xc = x[:, cols]
        p = xc.take(_LEFT, axis=0)
        p *= xc.take(_RIGHT, axis=0)
        np.add(p[:, 0], p[:, 1], out=s[:, :, cols])
        s[:, :, cols] += p[:, 2]
    t, t_swapped, ct = s
    r = (t - t_swapped) - ct
    # the einsums add to a +0 start, so none of their sums, and no entry of
    # R, is -0; here three -0 products sum to -0, which can leave a -0 in r,
    # and adding +0 turns it to +0 and leaves every other value as it is
    r += 0.0
    ric = (r[9:18] + r[18:27]) + r[27:36]
    # one C-contiguous (batch, 9) block per grid: curv_norm_sq and the
    # Frobenius sums of Ric_0 would sum a strided grid in another order
    grids = np.concatenate((r[:9], ric, r[36:])).reshape(3, 9, -1).transpose(0, 2, 1).copy()
    rg, ric, rd = grids.reshape((3,) + shape + (3, 3))
    data = CurvatureData(
        riemann=CurvatureOperator(rg), ricci=ric, scalar=ric.trace(axis1=-2, axis2=-1)
    )
    return data, CurvatureOperator(rd)


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
    return CurvatureOperator(0.5 * s * IDENTITY + star_ric[_P, :, _Q] + star_ric[_Q, _P])


def ricci_square_identity(ricci, s: float) -> np.ndarray:
    """3D closed form: R o_g R = -Ric.Ric + s Ric + (|Ric|^2 - s^2/2) g."""
    ric = np.asarray(ricci, dtype=float)
    _check_trace(ric, s)
    ric_sq = float(np.sum(ric * ric))
    return -ric @ ric + s * ric + (ric_sq - 0.5 * s * s) * IDENTITY
