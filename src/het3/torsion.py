"""Contorsion tensors, metric connections with torsion, and their curvature.

A contorsion is encoded by the 2-tensor A with bbA_X = *(A(X)); the induced
connection acts on frame-constant fields by

    nabla^{g,A}_X Y = nabla^g_X Y + Y x A(X),

where x is the cross product: bbA_X is the matrix of the 2-form *(A(X)).
Its frame coefficients are therefore one contraction of A with the
Levi-Civita symbol (``contorsion_coefficients``), exact entry by entry.
A splits into a trace part, a traceless symmetric part Theta, and a skew
part *zeta.

The reducible normal form is A = alpha g + beta *xi + gamma xi (x) xi for a
unit axis xi; beta is forced to vanish on compact models (delta xi = 2 beta)
and is therefore rejected by scenario validation, though the algebra here
accepts it.

Contorsions and connection coefficients accept leading batch axes
(A has shape (..., 3, 3)); a single contorsion is batch shape ().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import NonUnitAxis
from .frame import _P, _Q, CurvatureOperator, as_grid, as_vec, star_matrix

UNIT_TOL = 1e-9
SKEW_TOL = 1e-10  # Theta and zeta of a purely skew torsion A = alpha g


@dataclass(frozen=True)
class Contorsion:
    """The tensor A of a metric connection D = nabla^g + *(A(.))."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_grid(self.a))

    @property
    def trace_part(self) -> np.ndarray:
        """alpha' = Tr(A)/3."""
        return self.a.trace(axis1=-2, axis2=-1) / 3.0

    @property
    def traceless_sym(self) -> np.ndarray:
        """Theta: traceless symmetric component."""
        sym = 0.5 * (self.a + self.a.swapaxes(-1, -2))
        return sym - self.trace_part[..., None, None] * np.eye(3)

    @property
    def skew_vector(self) -> np.ndarray:
        """zeta with skew(A) = *zeta."""
        k = 0.5 * (self.a - self.a.swapaxes(-1, -2))
        return k[..., _P, _Q]

    def is_pure_skew_torsion(self) -> np.ndarray:
        """True when A = alpha g up to SKEW_TOL, i.e. the torsion is a 3-form;
        per sample."""
        return (np.abs(self.traceless_sym).max(axis=(-2, -1)) <= SKEW_TOL) & (
            np.abs(self.skew_vector).max(axis=-1) <= SKEW_TOL
        )


def decompose(a) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a 3x3 grid into (Tr(A)/3, Theta, zeta); exact reconstruction."""
    ct = Contorsion(as_grid(a))
    return ct.trace_part, ct.traceless_sym, ct.skew_vector


def reconstruct(alpha_prime: float, theta, zeta) -> np.ndarray:
    """Inverse of decompose: A = alpha' g + Theta + *zeta."""
    return alpha_prime * np.eye(3) + np.asarray(theta, float) + star_matrix(zeta)


@dataclass(frozen=True)
class ReducibleTorsionParams:
    """Normal-form parameters (alpha, beta, gamma) along a unit axis xi."""

    alpha: float
    beta: float
    gamma: float
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", as_vec(self.xi))
        if abs(float(self.xi @ self.xi) - 1.0) > UNIT_TOL:
            raise NonUnitAxis(f"|xi|^2 = {float(self.xi @ self.xi):g}")


def build_reducible(params: ReducibleTorsionParams) -> Contorsion:
    """A = alpha g + beta *xi + gamma xi (x) xi."""
    xi = params.xi
    a = (
        params.alpha * np.eye(3)
        + params.beta * star_matrix(xi)
        + params.gamma * np.outer(xi, xi)
    )
    return Contorsion(a)


def skew(alpha: float) -> Contorsion:
    """Purely skew-symmetric torsion: A = alpha g."""
    return Contorsion(alpha * np.eye(3))


@dataclass(frozen=True)
class TorsionConnection:
    """Levi-Civita coefficients plus the contorsion contribution."""

    base: np.ndarray
    contorsion: Contorsion
    total: np.ndarray


def contorsion_coefficients(ct: Contorsion) -> np.ndarray:
    """Frame coefficients of bbA: delta_gamma[i,j,k] = <e_j x A(e_i), e_k>.

    bbA_X acts on Y as the matrix of the 2-form *(A(X)): with the fixed
    orientation this is Y x A(X).  Under this choice the Heisenberg model
    [e1,e2] = 2 alpha e3 has D-parallel axis e3 for A = alpha g, tying the
    structure constant to the torsion parameter with a positive alpha.
    """
    # <e_j x v, e_k> = eps_{jmk} v_m = -(*v)_{jk}
    return -star_matrix(ct.a)


def connection_with_torsion(
    sc: geometry.StructureConstants, ct: Contorsion
) -> TorsionConnection:
    """D = nabla^g + bbA over the given model."""
    base = geometry.levi_civita(sc)
    return TorsionConnection(base=base, contorsion=ct, total=base + contorsion_coefficients(ct))


def covariant_derivative(gamma: np.ndarray, tensor) -> np.ndarray:
    """Covariant derivative of a frame-constant covariant tensor.

    Returns DT with DT[i, j1, ..., jr] = (D_{e_i} T)(e_{j1}, ..., e_{jr});
    only connection terms survive since the components are constant.  A
    batch of connections (..., 3, 3, 3) takes tensors with the same leading
    axes, (..., 3, ..., 3).
    """
    t = np.asarray(tensor, dtype=float)
    lead = gamma.ndim - 3
    batch, rank = t.shape[:lead], t.ndim - lead
    out = np.zeros(batch + (3,) + t.shape[lead:])
    g9 = gamma.reshape(gamma.shape[:lead] + (9, 3))
    for slot in range(rank):
        # -gamma(i, j_slot, m) T[..., m, ...]: the matrix product
        # np.tensordot(gamma, t, axes=([2], [slot])) makes, one per sample
        ts = np.moveaxis(t, lead + slot, lead)
        contr = g9 @ ts.reshape(batch + (3, -1))
        # contr[i, j_slot, rest...] -> move j_slot back into place
        contr = contr.reshape(batch + (3,) + ts.shape[lead:])
        out -= np.moveaxis(contr, lead + 1, lead + slot + 1)
    return out


def torsion_tensor(conn: TorsionConnection) -> np.ndarray:
    """T[i,j,k] = <bbA_{e_i} e_j - bbA_{e_j} e_i, e_k>."""
    d = conn.total - conn.base
    return d - np.swapaxes(d, -3, -2)


def curvature_D(
    sc: geometry.StructureConstants, conn: TorsionConnection
) -> CurvatureOperator:
    """Curvature of the torsion connection by direct frame contraction."""
    return geometry.curvature(sc, conn.total).riemann


def reducible_curvature_closed_form(
    r_g: CurvatureOperator, alpha: float, gamma: float, xi
) -> CurvatureOperator:
    """R^{g,A} = R^g + alpha^2 (X ^ Y) + 2 alpha gamma <*xi, X^Y> *xi.

    Valid whenever A = alpha g + gamma xi (x) xi and nabla^g xi = alpha *xi.
    """
    x = as_vec(xi)
    k = r_g.entries + alpha * alpha * np.eye(3) + 2.0 * alpha * gamma * np.outer(x, x)
    return CurvatureOperator(k)


def rara_closed_form(alpha: float, gamma: float, s: float, xi) -> np.ndarray:
    """R^{g,A} o_g R^{g,A} = (3 a^2 - s/2 + 2 a c)^2 (g - xi (x) xi)."""
    x = as_vec(xi)
    factor = 3.0 * alpha * alpha - 0.5 * s + 2.0 * alpha * gamma
    return factor * factor * (np.eye(3) - np.outer(x, x))


def skew_rr_closed_form(ricci, s: float, alpha: float) -> np.ndarray:
    """R^{g,a} o_g R^{g,a} for purely skew torsion A = alpha g.

    Equals -Ric.Ric + (s - 2a^2) Ric + (|Ric|^2 - s^2/2 + 2a^4) g.
    """
    ric = np.asarray(ricci, dtype=float)
    a2 = alpha * alpha
    ric_sq = float(np.sum(ric * ric))
    return (
        -ric @ ric
        + (s - 2.0 * a2) * ric
        + (ric_sq - 0.5 * s * s + 2.0 * a2 * a2) * np.eye(3)
    )
