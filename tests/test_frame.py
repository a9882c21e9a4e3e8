"""Exterior algebra layer: Hodge duality, wedge, interior, curvature contractions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from het3 import frame, geometry, torsion

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
vec3 = arrays(np.float64, (3,), elements=finite)
grid3 = arrays(np.float64, (3, 3), elements=finite)


# The exterior algebra of 2-forms, as local helpers on frame.EPS: a 2-form
# is its dual vector w in the basis (*e1, *e2, *e3).


def wedge(u, v) -> np.ndarray:
    """Dual components of u ^ v: eps_{ijk} u_i v_j, the cross product."""
    return np.einsum("ijk,i,j->k", frame.EPS, np.asarray(u, float), np.asarray(v, float))


def evaluate(w, x, y) -> float:
    """The 2-form with dual components w on the pair (x, y)."""
    return float(np.asarray(w, float) @ wedge(x, y))


def interior(v, w) -> np.ndarray:
    """(v . w)(u) = w(v, u): component j is eps_{ijk} v_i w_k."""
    return np.einsum("ijk,i,k->j", frame.EPS, np.asarray(v, float), np.asarray(w, float))


def norm_sq(w) -> float:
    """|w|^2 in the determinant convention: half the sum of w(e_i, e_j)^2."""
    grid = np.einsum("ijk,k->ij", frame.EPS, np.asarray(w, float))
    return 0.5 * float(np.sum(grid * grid))


def first_factor(k, x, y) -> np.ndarray:
    """Dual components of R_{X,Y}: the first factor of the grid k on (x, y)."""
    return wedge(x, y) @ k


class TestHodgeStar:
    """A 2-form is stored as the dual vector: the vector v is *v."""

    def test_orientation_pin(self):
        # *e1 = e2 ^ e3
        w = np.array([1.0, 0.0, 0.0])
        e = np.eye(3)
        assert evaluate(w, e[1], e[2]) == 1.0
        np.testing.assert_array_equal(w, wedge([0, 1, 0], [0, 0, 1]))

    def test_zero(self):
        assert norm_sq(np.zeros(3)) == 0.0

    @given(vec3)
    def test_involution_and_isometry(self, v):
        # the skew grid w(e_i, e_j) gives back the dual vector exactly
        grid = np.array([[evaluate(v, x, y) for y in np.eye(3)] for x in np.eye(3)])
        np.testing.assert_array_equal(0.5 * np.einsum("ijk,ij->k", frame.EPS, grid), v)
        assert norm_sq(v) == pytest.approx(float(v @ v))


class TestWedge:
    def test_frame_pair(self):
        np.testing.assert_array_equal(wedge([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])

    def test_cross_product_oracle(self):
        np.testing.assert_array_equal(wedge([1, 0, 0], [0, 2, 0]), [0.0, 0.0, 2.0])
        u, v = np.array([0.3, -1.2, 2.0]), np.array([1.5, 0.25, -0.7])
        np.testing.assert_allclose(wedge(u, v), np.cross(u, v), rtol=0, atol=1e-15)

    @given(vec3, vec3)
    def test_alternating(self, u, v):
        uv = wedge(u, v)
        vu = wedge(v, u)
        np.testing.assert_allclose(uv, -vu, atol=1e-12)
        np.testing.assert_allclose(wedge(u, u), 0.0, atol=1e-12)

    @given(vec3, vec3, finite)
    def test_bilinear(self, u, v, t):
        np.testing.assert_allclose(wedge(t * u, v), t * wedge(u, v), atol=1e-9)


class TestInterior:
    def test_frame_examples(self):
        e = np.eye(3)
        w = wedge(e[0], e[1])
        np.testing.assert_allclose(interior(e[0], w), e[1])
        np.testing.assert_allclose(interior(e[2], w), 0.0)
        np.testing.assert_allclose(interior(e[0], [0, 0, 0]), 0.0)

    @given(vec3, vec3)
    def test_evaluation_contract(self, v, u):
        # (v . w)(u) = w(v, u)
        w = np.array([1.0, -2.0, 0.5])
        assert float(interior(v, w) @ u) == pytest.approx(evaluate(w, v, u), abs=1e-9)

    @given(vec3, vec3, vec3)
    def test_adjoint_of_wedge(self, u, v, w):
        # <u ^ v, w> = <v, u . w>
        lhs = float(wedge(u, v) @ w)
        rhs = float(v @ interior(u, w))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestCurvatureContractions:
    def test_zero(self):
        z = frame.CurvatureOperator(np.zeros((3, 3)))
        np.testing.assert_array_equal(frame.curv_compose(z, z), np.zeros((3, 3)))
        square = frame.curv_square(z)
        np.testing.assert_array_equal(square, np.zeros((3, 3)))
        assert not np.signbit(square).any()  # +0 everywhere, as the loop gives
        assert frame.curv_norm_sq(z) == 0.0

    def test_hyperbolic_skew_compose(self):
        # hyperbolic a=1 with skew torsion alpha=1: R o R = 8 Id
        model = geometry.hyperbolic_model(1.0)
        conn = torsion.connection_with_torsion(model, torsion.skew(1.0))
        r = torsion.curvature_D(model, conn)
        np.testing.assert_allclose(frame.curv_compose(r, r), 8.0 * np.eye(3), atol=1e-12)
        assert frame.curv_norm_sq(r) == pytest.approx(12.0, abs=1e-12)

    def test_heisenberg_reducible_compose(self):
        # Heisenberg lambda=2 with A = g - e3 (x) e3: R o R = 4 diag(1,1,0)
        model = geometry.heisenberg(2.0)
        params = torsion.ReducibleTorsionParams(alpha=1.0, beta=0.0, gamma=-1.0, xi=[0, 0, 1])
        conn = torsion.connection_with_torsion(model, torsion.build_reducible(params))
        r = torsion.curvature_D(model, conn)
        np.testing.assert_allclose(
            frame.curv_compose(r, r), 4.0 * np.diag([1.0, 1.0, 0.0]), atol=1e-12
        )

    def test_heisenberg_norm(self):
        # |R^g|^2 = |Ric|^2 - s^2/4 = 3/4 - 1/16 = 11/16 for lambda=1
        model = geometry.heisenberg(1.0)
        data = geometry.curvature(model, geometry.levi_civita(model))
        assert frame.curv_norm_sq(data.riemann) == pytest.approx(11.0 / 16.0, abs=1e-14)

    @given(grid3)
    def test_compose_symmetric_psd(self, k):
        r = frame.CurvatureOperator(k)
        q = frame.curv_compose(r, r)
        np.testing.assert_allclose(q, q.T, atol=1e-9)
        assert np.min(np.linalg.eigvalsh(q)) >= -1e-9

    @given(grid3)
    def test_norm_is_half_trace(self, k):
        r = frame.CurvatureOperator(k)
        assert frame.curv_norm_sq(r) == pytest.approx(
            0.5 * float(np.trace(frame.curv_compose(r, r))), abs=1e-8, rel=1e-9
        )

    @given(grid3, grid3)
    def test_compose_matches_vector_loop(self, k1, k2):
        # reference: the loop over 2-forms with vector dot products, bit for bit
        eye = np.eye(3)
        want = np.zeros((3, 3))
        for p in range(3):
            for q in range(3):
                for i in range(3):
                    a = np.cross(eye[p], eye[i]) @ k1
                    b = np.cross(eye[q], eye[i]) @ k2
                    want[p, q] += a @ b
        got = frame.curv_compose(frame.CurvatureOperator(k1), frame.CurvatureOperator(k2))
        np.testing.assert_array_equal(got, want)


class TestCurvSquare:
    """curv_square is curv_compose(r, r) bit for bit: the closed form reports
    use against the definition."""

    @pytest.mark.parametrize("shape", [(), (1,), (16,), (3, 4), (1024,)])
    def test_matches_compose_bit_for_bit(self, rng, shape):
        for scale in 10.0 ** np.arange(-8, 9, 4):
            k = rng.normal(size=shape + (3, 3)) * scale * 10.0 ** rng.uniform(-2, 2, shape + (3, 3))
            flat = k.reshape(-1, 3, 3)
            flat[::3, rng.integers(3)] = 0.0  # a zero row
            flat[1::3, :, rng.integers(3)] = 0.0  # a zero column
            r = frame.CurvatureOperator(k)
            got = frame.curv_square(r)
            assert got.shape == shape + (3, 3)
            assert np.array_equal(got, frame.curv_compose(r, r)), scale

    @pytest.mark.parametrize("signs", ["positive", "one_large_row"])
    def test_overflow_gives_the_same_infs(self, rng, signs):
        k = 10.0 ** rng.uniform(159, 161, (16, 3, 3))
        if signs == "one_large_row":
            # only M_00 overflows; the other dots stay finite
            k *= rng.choice([-1.0, 1.0], size=k.shape)
            k[:, 1:] *= 1e-160
        r = frame.CurvatureOperator(k)
        with np.errstate(over="ignore"):
            got, want = frame.curv_square(r), frame.curv_compose(r, r)
        assert np.isinf(got).any()
        assert np.array_equal(got, want)

    def test_non_finite_entry(self, rng):
        # the loop spreads a NaN over the whole grid (0 * inf) and the closed
        # form keeps it where M is not finite: both are non-finite per sample
        k = rng.normal(size=(27, 3, 3))
        for n in range(27):  # one entry per sample, every position
            k[n, n // 9, n // 3 % 3] = [np.nan, np.inf, -np.inf][n % 3]
        r = frame.CurvatureOperator(k)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = frame.curv_square(r), frame.curv_compose(r, r)
        for result in (got, want):
            assert not np.isfinite(result).all(axis=(-2, -1)).any()


def test_first_factor_matches_entries():
    k = np.arange(9.0).reshape(3, 3)
    # evaluating on (e1, e2) picks out the *e3 row
    np.testing.assert_array_equal(first_factor(k, [1, 0, 0], [0, 1, 0]), k[2])


def test_star_matrix_pairing():
    z = np.array([0.3, -1.2, 2.0])
    m = frame.star_matrix(z)
    np.testing.assert_allclose(m, -m.T, atol=1e-15)
    # (*zeta)(e_i, e_j) agrees with the 2-form evaluation
    eye = np.eye(3)
    for i in range(3):
        for j in range(3):
            assert m[i, j] == pytest.approx(evaluate(z, eye[i], eye[j]), abs=1e-14)
