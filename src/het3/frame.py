"""Exterior algebra of an oriented 3D orthonormal frame.

Everything lives in a single global orthonormal frame e1, e2, e3 with the
metric equal to the identity, so vectors and 1-forms share the same three
components.  2-forms are stored through the Hodge duality Lambda^2 = Lambda^1:
a 2-form is represented by its coefficients in the basis (*e1, *e2, *e3),
with the orientation fixed by *e1 = e2 ^ e3 (cyclic).  The Levi-Civita
symbol EPS and the cyclic pair indices _P, _Q below are the one place that
states it; the other modules contract with EPS or gather at _P, _Q.

Inner products on Lambda^k use the determinant convention, under which the
basis (*e1, *e2, *e3) is orthonormal and the dual-component dot product is
the 2-form inner product.

The wedge of two vectors has the cross product as its dual components.  Sign
convention for the interior product: (v . w)(u) = w(v, u), which in dual
components reads v . w = cross(w_dual, v).  This is the adjoint of the wedge
product: <u ^ v, w> = <v, u . w>.

Vectors, grids and curvature operators may carry leading batch axes: a
vector has shape (..., 3) and a grid (..., 3, 3).  A single object is batch
shape ().

The curvature quadratic R o_g R has two implementations.  ``curv_compose``
is the definition, the direct contraction <X . R1, Y . R2> over 2-forms; the
two-path identity checks compare against it.  ``curv_square`` is the Hodge
closed form of the case R1 = R2 that reports use; it is bit for bit
``curv_compose(r, r)`` on finite entries.
"""

from __future__ import annotations

import numpy as np

# The orientation, stated here only.  Cyclic index pairs: *e_a = e_i ^ e_j
# for (i, j) = (_P[a], _Q[a]), so that x[..., _P, _Q] picks the pairs of the
# last two axes.
_P, _Q = np.array([1, 2, 0]), np.array([2, 0, 1])

_DIAG = np.arange(3)

# The metric g of the orthonormal frame, built once and read-only: the
# kernels scale it per sample instead of building np.eye(3) on every call.
IDENTITY = np.eye(3)
IDENTITY.flags.writeable = False

# Levi-Civita symbol eps_{ijk} = <e_i x e_j, e_k>.
EPS = np.cross(np.eye(3)[:, None], np.eye(3))


class cached_property:
    """functools.cached_property without the lock that Python 3.11 takes on
    every first read (3.12 dropped it): the first read stores the value in
    the instance dict, which then shadows this non-data descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def as_vec(v) -> np.ndarray:
    """Coerce to float vectors of shape (..., 3)."""
    a = np.asarray(v, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected 3 components, got shape {a.shape}")
    return a


def as_grid(m) -> np.ndarray:
    """Coerce to float grids of shape (..., 3, 3)."""
    a = np.asarray(m, dtype=float)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 grid, got shape {a.shape}")
    return a


def _per_grid(x) -> np.ndarray:
    """A per-sample scalar, shaped to broadcast against (..., 3, 3) grids."""
    return np.asarray(x)[..., None, None]


def _max_abs(x: np.ndarray, core: int) -> np.ndarray:
    """The largest |x| over the last ``core`` axes, per sample: one
    np.maximum.reduce over the flattened core, where a NaN entry gives NaN."""
    a = np.abs(x)
    return np.maximum.reduce(a.reshape(a.shape[: a.ndim - core] + (-1,)), axis=-1)


def dot(u, v) -> np.ndarray:
    """Dot product over the last axis, batched over the leading ones.

    Built on matmul, so each sample is bit-identical to ``u @ v`` on
    vectors (a plain ``(u * v).sum(-1)`` can differ in the last bit); two
    vectors get ``u @ v`` itself.
    """
    if u.ndim == 1 and v.ndim == 1:
        return u @ v
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class CurvatureOperator:
    """A section of Lambda^2 x Lambda^2 stored as a 3x3 dual-coefficient grid.

    entries[a, b] is the pairing of the tensor with *e_a in the first
    Lambda^2 factor and *e_b in the second.  Evaluating the first factor on a
    frame pair (e_i, e_j) yields the 2-form whose dual components are
    cross(e_i, e_j) @ entries.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = as_grid(entries)


def curv_compose(r1: CurvatureOperator, r2: CurvatureOperator) -> np.ndarray:
    """The symmetric bilinear form (R1 o_g R2)(X, Y) = <X . R1, Y . R2>.

    With r1 = r2 this is the curvature quadratic sourcing the Einstein
    equation; it is then symmetric positive semidefinite.  This loop over
    2-forms is the definition, which the closed forms are checked against;
    reports square R^D with ``curv_square`` instead, which gives the same
    bits.
    """
    k1, k2t = r1.entries, np.swapaxes(r2.entries, -1, -2)
    out = np.zeros(np.broadcast_shapes(k1.shape, k2t.shape))
    for p in range(3):
        for q in range(3):
            acc = 0.0
            for i in range(3):
                # a as a row and b as a column, so that a @ b is the matmul
                # dot product of frame.dot
                a = np.cross(IDENTITY[p], IDENTITY[i])[None, :] @ k1
                b = k2t @ np.cross(IDENTITY[q], IDENTITY[i])[:, None]
                acc += a @ b
            out[..., p, q] = acc[..., 0, 0]
    return out


def curv_square(r: CurvatureOperator) -> np.ndarray:
    """R o_g R through the Hodge duality: the form reports use, and bit for
    bit ``curv_compose(r, r)`` on finite entries.

    With K = r.entries and M_ab = dot(K_a, K_b), the Gram matrix of its rows,
    R o_g R = tr(M) g - M.  Each entry is the sum the loop of curv_compose
    makes, less its zero terms: -M_pq off the diagonal (M is symmetric bit
    for bit, and a zero comes out +0, as from the loop's 0.0 start), and
    M_aa + M_bb over the two indices a, b other than p on it, not
    tr(M) - M_pp, which rounds differently.  A non-finite entry of K makes
    the result non-finite where M is, while the loop spreads NaN over the
    whole grid (0 * inf).
    """
    k = r.entries
    m = dot(k[..., :, None, :], k[..., None, :, :])
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    out = 0.0 - m
    out[..., _DIAG, _DIAG] = diag[..., _P] + diag[..., _Q]
    return out


def curv_norm_sq(r: CurvatureOperator) -> np.ndarray:
    """|R|^2 = (1/2) tr(R o_g R); equals the Frobenius norm^2 of the grid."""
    return (r.entries * r.entries).sum(axis=(-2, -1))


def star_matrix(zeta) -> np.ndarray:
    """The 2-form *zeta as a skew 3x3 grid: (*zeta)_{ij} = eps_{ijk} zeta_k."""
    return np.einsum("ijk,...k->...ij", EPS, as_vec(zeta))
