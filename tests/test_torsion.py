"""Contorsion decomposition, torsion connections, closed-form curvature lemmas."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import model_corpus, random_model
from het3 import constructors, frame, geometry, torsion
from het3.errors import NonUnitAxis

grid3 = arrays(
    np.float64, (3, 3), elements=st.floats(min_value=-10, max_value=10, allow_nan=False)
)

AXIS = np.array([0.0, 0.0, 1.0])


def decompose(a):
    """Split a 3x3 grid into (Tr(A)/3, Theta, zeta) through Contorsion."""
    ct = torsion.Contorsion(a)
    return ct.trace_part, ct.traceless_sym, ct.skew_vector


def reconstruct(alpha_prime, theta, zeta):
    """Inverse of decompose: A = alpha' g + Theta + *zeta, with *zeta on frame.EPS."""
    return alpha_prime * np.eye(3) + theta + np.einsum("ijk,k->ij", frame.EPS, zeta)


def torsion_tensor(conn):
    """T[i,j,k] = <bbA_{e_i} e_j - bbA_{e_j} e_i, e_k>."""
    d = conn.total - conn.base
    return d - np.swapaxes(d, -3, -2)


class TestDecompose:
    def test_identity(self):
        alpha, theta, zeta = decompose(np.eye(3))
        assert alpha == 1.0
        assert np.all(theta == 0.0)
        assert np.all(zeta == 0.0)

    def test_pure_skew(self):
        alpha, theta, zeta = decompose(frame.star_matrix([0, 0, 1]))
        assert alpha == 0.0
        assert np.all(theta == 0.0)
        np.testing.assert_array_equal(zeta, [0.0, 0.0, 1.0])

    def test_projection_oracle(self):
        a = np.eye(3) + np.outer(AXIS, AXIS)
        alpha, theta, zeta = decompose(a)
        assert alpha == pytest.approx(4.0 / 3.0)
        np.testing.assert_allclose(theta, np.outer(AXIS, AXIS) - np.eye(3) / 3.0)
        assert np.all(zeta == 0.0)

    @given(grid3)
    def test_reconstruction(self, a):
        alpha, theta, zeta = decompose(a)
        np.testing.assert_allclose(reconstruct(alpha, theta, zeta), a, atol=1e-14)
        assert abs(np.trace(theta)) < 1e-13
        # components are mutually orthogonal in the tensor inner product
        assert abs(np.sum((alpha * np.eye(3)) * theta)) < 1e-12
        assert abs(np.sum(theta * frame.star_matrix(zeta))) < 1e-12


class TestPureSkew:
    @staticmethod
    def reference(ct):
        """is_pure_skew_torsion through Theta and zeta."""
        return (np.abs(ct.traceless_sym).max(axis=(-2, -1)) <= torsion.SKEW_TOL) & (
            np.abs(ct.skew_vector).max(axis=-1) <= torsion.SKEW_TOL
        )

    @pytest.mark.parametrize("shape", [(), (64,), (4, 16)])
    def test_matches_theta_and_zeta(self, rng, shape):
        tol = torsion.SKEW_TOL
        n = int(np.prod(shape))
        alpha = rng.normal(size=n)[:, None, None] * rng.choice([0.0, 1.0, 1e3], size=(n, 1, 1))
        # alpha g moved off by a step on either side of SKEW_TOL: at one
        # entry, or symmetric or skew at a pair; or noise
        step = rng.choice([0.5, 1.0, 2.0, 0.999999, 1.000001], size=n) * tol
        step *= rng.choice([-1.0, 1.0], size=n)
        a = alpha * np.eye(3) + np.zeros((n, 3, 3))
        i, j = rng.integers(3, size=(2, n))
        a[np.arange(n), i, j] += step
        a[np.arange(n), j, i] += step * rng.choice([0.0, 1.0, -1.0], size=n)
        noisy = rng.random(n) < 0.2
        a[noisy] += rng.normal(size=(int(noisy.sum()), 3, 3)) * 10.0 ** rng.uniform(
            -12, 0, (int(noisy.sum()), 1, 1)
        )
        ct = torsion.Contorsion(a.reshape(shape + (3, 3)))
        got = ct.is_pure_skew_torsion()
        assert got.shape == shape
        np.testing.assert_array_equal(got, self.reference(ct))
        if shape:
            assert 0 < got.sum() < n  # both outcomes occur

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (2, 1)])
    def test_nan_entry_is_not_skew(self, i, j):
        a = np.eye(3)
        a[i, j] = np.nan
        assert not torsion.Contorsion(a).is_pure_skew_torsion()

    def test_parts_computed_once(self):
        ct = torsion.Contorsion(np.eye(3))
        assert ct.is_pure_skew_torsion()
        assert ct.trace_part is ct.trace_part
        assert ct.traceless_sym is ct.traceless_sym
        assert ct.skew_vector is ct.skew_vector


class TestBuildReducible:
    def test_pure_skew_case(self):
        ct = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=0.7, beta=0.0, gamma=0.0, xi=AXIS)
        )
        np.testing.assert_allclose(ct.a, 0.7 * np.eye(3))
        assert ct.is_pure_skew_torsion()

    def test_axis_only(self):
        ct = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=0.0, beta=0.0, gamma=2.0, xi=AXIS)
        )
        np.testing.assert_allclose(ct.a, 2.0 * np.outer(AXIS, AXIS))

    def test_final_shape(self):
        ct = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=1.0, beta=0.0, gamma=-1.0, xi=AXIS)
        )
        np.testing.assert_allclose(ct.a, np.eye(3) - np.outer(AXIS, AXIS))
        assert not ct.is_pure_skew_torsion()

    def test_non_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            torsion.ReducibleTorsionParams(alpha=0.0, beta=0.0, gamma=1.0, xi=[0, 0, 2])

    def test_axis_per_sample(self, rng):
        # an (N, 3) axis: each grid is bit for bit its sample's own
        xi = rng.normal(size=(20, 3))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        alpha, beta, gamma = rng.normal(size=(3, 20))
        batch = torsion.build_reducible(torsion.ReducibleTorsionParams(alpha, beta, gamma, xi))
        for n in range(20):
            single = torsion.build_reducible(torsion.ReducibleTorsionParams(
                float(alpha[n]), float(beta[n]), float(gamma[n]), xi[n]))
            np.testing.assert_array_equal(batch.a[n], single.a)

    def test_non_unit_axis_in_a_batch(self):
        # the error names the first sample whose axis is not a unit vector
        xi = np.array([[0.0, 0.0, 1.0], [0.0, 3.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(NonUnitAxis, match=r"^\|xi\|\^2 = 9$"):
            torsion.ReducibleTorsionParams(alpha=0.0, beta=0.0, gamma=1.0, xi=xi)


def assert_same_bits(got, expected):
    """Equal entries and equal sign bits, so that +0.0 and -0.0 differ."""
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


class TestNormalFormReference:
    """reducible and build_reducible against formulas written out here:
    alpha g + gamma xi (x) xi, and the same plus beta *xi as EPS @ xi."""

    VALUES = (-0.7, 0.0, 1.3)

    @staticmethod
    def axes():
        v = np.random.default_rng(7).normal(size=3)
        v /= np.linalg.norm(v)
        return [sign * e for e in np.eye(3) for sign in (1.0, -1.0)] + [v]

    @staticmethod
    def compact(alpha, gamma, xi):
        return alpha * frame.IDENTITY + gamma * np.outer(xi, xi)

    def cases(self):
        """(alpha, beta, gamma, xi) over every sign of each and every axis."""
        return [(alpha, beta, gamma, xi) for alpha in self.VALUES for beta in self.VALUES
                for gamma in self.VALUES for xi in self.axes()]

    def test_single(self):
        for alpha, beta, gamma, xi in self.cases():
            assert_same_bits(torsion.reducible(alpha, gamma, xi).a, self.compact(alpha, gamma, xi))
            params = torsion.ReducibleTorsionParams(alpha, beta, gamma, xi)
            assert_same_bits(torsion.build_reducible(params).a,
                             self.compact(alpha, gamma, xi) + beta * (frame.EPS @ xi))

    def test_batch(self):
        alpha, beta, gamma, xi = (np.array(column) for column in zip(*self.cases()))
        compact = np.array([self.compact(*one) for one in zip(alpha, gamma, xi)])
        star = np.array([b * (frame.EPS @ x) for b, x in zip(beta, xi)])
        assert_same_bits(torsion.reducible(alpha, gamma, xi).a, compact)
        params = torsion.ReducibleTorsionParams(alpha, beta, gamma, xi)
        assert_same_bits(torsion.build_reducible(params).a, compact + star)


class TestConnection:
    def test_zero_contorsion(self):
        model = geometry.heisenberg(1.0)
        conn = torsion.connection_with_torsion(model, torsion.Contorsion(np.zeros((3, 3))))
        np.testing.assert_array_equal(conn.total, geometry.levi_civita(model))

    @pytest.mark.parametrize("model", model_corpus())
    def test_metric_compatibility(self, model, rng):
        ct = torsion.Contorsion(rng.normal(size=(3, 3)))
        conn = torsion.connection_with_torsion(model, ct)
        np.testing.assert_allclose(
            conn.total, -np.transpose(conn.total, (0, 2, 1)), atol=1e-13
        )

    def test_torsion_tensor(self, rng):
        model = geometry.milnor(1.0, 1.0, 1.0)
        ct = torsion.Contorsion(rng.normal(size=(3, 3)))
        conn = torsion.connection_with_torsion(model, ct)
        delta = torsion.contorsion_coefficients(ct)
        np.testing.assert_allclose(
            torsion_tensor(conn), delta - np.transpose(delta, (1, 0, 2)), atol=1e-14
        )

    @pytest.mark.parametrize("shape", [(), (12,), (3, 4)])
    def test_coefficients_match_cross_loop(self, rng, shape):
        # reference: e_j x A(e_i) per frame pair, bit for bit (exact zeros may
        # differ in sign)
        a = rng.normal(size=shape + (3, 3))
        want = np.zeros(shape + (3, 3, 3))
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                want[..., i, j, :] = np.cross(eye[j], a[..., i, :])
        got = torsion.contorsion_coefficients(torsion.Contorsion(a))
        np.testing.assert_array_equal(got, want)

    def test_heisenberg_parallel_axis(self):
        # A = (lambda/2) g makes e3 D-parallel on [e1,e2] = lambda e3
        lam = 1.0
        model = geometry.heisenberg(lam)
        conn = torsion.connection_with_torsion(model, torsion.skew(lam / 2))
        np.testing.assert_allclose(conn.total[:, 2, :], 0.0, atol=1e-14)


class TestCovariantDerivative:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_tensordot(self, rng, rank):
        # reference: one np.tensordot per slot, bit for bit
        gamma = rng.normal(size=(3, 3, 3))
        t = rng.normal(size=(3,) * rank)
        want = np.zeros((3,) + t.shape)
        for slot in range(rank):
            want -= np.moveaxis(np.tensordot(gamma, t, axes=([2], [slot])), 1, slot + 1)
        np.testing.assert_array_equal(torsion.covariant_derivative(gamma, t), want)

    def test_flat(self, rng):
        conn = torsion.connection_with_torsion(
            geometry.abelian(), torsion.Contorsion(np.zeros((3, 3)))
        )
        t = rng.normal(size=(3, 3))
        assert np.all(torsion.covariant_derivative(conn.total, t) == 0.0)

    def test_parallel_contorsion_heisenberg(self):
        params = torsion.ReducibleTorsionParams(alpha=1.0, beta=0.0, gamma=-1.0, xi=AXIS)
        ct = torsion.build_reducible(params)
        conn = torsion.connection_with_torsion(geometry.heisenberg(2.0), ct)
        da = torsion.covariant_derivative(conn.total, ct.a)
        np.testing.assert_allclose(da, 0.0, atol=1e-14)

    @pytest.mark.parametrize("model", model_corpus())
    def test_skew_contorsion_always_parallel(self, model):
        ct = torsion.skew(0.42)
        conn = torsion.connection_with_torsion(model, ct)
        np.testing.assert_allclose(
            torsion.covariant_derivative(conn.total, ct.a), 0.0, atol=1e-14
        )

    def test_metric_parallel(self, rng):
        model = random_model(rng)
        ct = torsion.Contorsion(rng.normal(size=(3, 3)))
        conn = torsion.connection_with_torsion(model, ct)
        np.testing.assert_allclose(
            torsion.covariant_derivative(conn.total, np.eye(3)), 0.0, atol=1e-13
        )

    def test_vector_rank(self):
        model = geometry.heisenberg(1.0)
        g = geometry.levi_civita(model)
        dxi = torsion.covariant_derivative(g, AXIS)
        # nabla^g xi = (lambda/2) * (X x xi)
        eye = np.eye(3)
        for i in range(3):
            np.testing.assert_allclose(dxi[i], 0.5 * np.cross(eye[i], AXIS), atol=1e-14)


# one kappa per decade of [1e-8, 1e8]
DECADE_KAPPAS = 10.0 ** np.arange(-8, 9)


class TestParallelTorsion:
    """The theorem's hypothesis D A = 0 holds on every exact family."""

    @pytest.mark.parametrize("build", [
        lambda k: constructors.construct_generic_reducible(k, -2.0 / k, sign=+1),
        lambda k: constructors.construct_generic_reducible(k, -2.0 / k, sign=-1),
        constructors.construct_skew_heisenberg,
        lambda k: constructors.construct_hyperbolic_skew(k, -6.0 / k),
        constructors.boundary_vanishing_torsion,
    ], ids=["generic+", "generic-", "heisenberg-skew", "hyperbolic", "boundary"])
    def test_exact_families_are_parallel(self, build):
        sc = build(DECADE_KAPPAS).scenario
        da = torsion.covariant_derivative(sc.connection.total, sc.contorsion.a)
        assert da.shape == (len(DECADE_KAPPAS), 3, 3, 3)
        assert np.all(da == 0.0)

    def test_parallel_under_d_not_under_levi_civita(self):
        sc = constructors.construct_generic_reducible(1.0, -2.0).scenario
        nabla_a = torsion.covariant_derivative(sc.connection.base, sc.contorsion.a)
        assert np.abs(nabla_a).max() == 1.0

    def test_perturbed_contorsion_is_not_parallel(self):
        sc = constructors.construct_hyperbolic_skew(1.0, -6.0).scenario
        ct = torsion.Contorsion(sc.contorsion.a + 0.1 * np.outer(AXIS, AXIS))
        conn = torsion.connection_with_torsion(sc.model, ct)
        da = torsion.covariant_derivative(conn.total, ct.a)
        assert np.abs(da).max() == pytest.approx(0.1, rel=1e-12)


class TestCurvatureD:
    def test_zero_contorsion_recovers_base(self):
        model = geometry.heisenberg(1.0)
        conn = torsion.connection_with_torsion(model, torsion.Contorsion(np.zeros((3, 3))))
        r = torsion.curvature_D(model, conn)
        base = geometry.curvature(model, geometry.levi_civita(model)).riemann
        np.testing.assert_allclose(r.entries, base.entries, atol=1e-14)

    def test_lemma_closed_form_heisenberg(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0.1, 2.0)
            gamma = rng.uniform(-2.0, 2.0)
            model = geometry.heisenberg(2 * alpha)
            ct = torsion.build_reducible(
                torsion.ReducibleTorsionParams(alpha=alpha, beta=0.0, gamma=gamma, xi=AXIS)
            )
            conn = torsion.connection_with_torsion(model, ct)
            direct = torsion.curvature_D(model, conn)
            base = geometry.curvature(model, geometry.levi_civita(model))
            closed = torsion.reducible_curvature_closed_form(base.riemann, alpha, gamma, AXIS)
            np.testing.assert_allclose(direct.entries, closed.entries, atol=1e-12)
            # rank-one form: (3a^2 - s/2 + 2ac) <*xi, X^Y> *xi
            factor = 3 * alpha**2 - 0.5 * base.scalar + 2 * alpha * gamma
            np.testing.assert_allclose(
                direct.entries, factor * np.outer(AXIS, AXIS), atol=1e-12
            )

    def test_rara_closed_form(self, rng):
        for _ in range(25):
            alpha = rng.uniform(0.1, 2.0)
            gamma = rng.uniform(-2.0, 2.0)
            model = geometry.heisenberg(2 * alpha)
            ct = torsion.build_reducible(
                torsion.ReducibleTorsionParams(alpha=alpha, beta=0.0, gamma=gamma, xi=AXIS)
            )
            conn = torsion.connection_with_torsion(model, ct)
            r = torsion.curvature_D(model, conn)
            s = geometry.curvature(model, geometry.levi_civita(model)).scalar
            closed = torsion.rara_closed_form(alpha, gamma, s, AXIS)
            np.testing.assert_allclose(frame.curv_compose(r, r), closed, atol=1e-11)
            np.testing.assert_allclose(closed @ AXIS, 0.0, atol=1e-14)

    def test_rara_examples(self):
        np.testing.assert_allclose(
            torsion.rara_closed_form(1.0, -1.0, -2.0, AXIS), 4.0 * np.diag([1, 1, 0.0])
        )
        np.testing.assert_allclose(
            torsion.rara_closed_form(0.5, 0.0, -0.5, AXIS), np.diag([1, 1, 0.0])
        )
        # root of the scalar factor: 3a^2 - s/2 + 2ac = 0
        alpha, s = 1.0, -2.0
        gamma = -(3 * alpha**2 - 0.5 * s) / (2 * alpha)
        np.testing.assert_allclose(torsion.rara_closed_form(alpha, gamma, s, AXIS), 0.0)

    def test_skew_curvature_shift(self, rng):
        # R^{g,a} = R^g + a^2 X ^ Y on any model
        for _ in range(25):
            model = random_model(rng)
            alpha = rng.normal()
            conn = torsion.connection_with_torsion(model, torsion.skew(alpha))
            r = torsion.curvature_D(model, conn)
            base = geometry.curvature(model, geometry.levi_civita(model)).riemann
            np.testing.assert_allclose(
                r.entries, base.entries + alpha**2 * np.eye(3), atol=1e-12
            )

    def test_skew_rr_closed_form(self, rng):
        for _ in range(25):
            model = random_model(rng)
            alpha = rng.normal()
            conn = torsion.connection_with_torsion(model, torsion.skew(alpha))
            r = torsion.curvature_D(model, conn)
            data = geometry.curvature(model, geometry.levi_civita(model))
            closed = torsion.skew_rr_closed_form(data.ricci, data.scalar, alpha)
            scale = max(1.0, float(np.abs(closed).max()))
            np.testing.assert_allclose(
                frame.curv_compose(r, r), closed, atol=1e-11 * scale
            )

    def test_skew_rr_examples(self):
        np.testing.assert_allclose(
            torsion.skew_rr_closed_form(-2.0 * np.eye(3), -6.0, 1.0), 8.0 * np.eye(3)
        )
        np.testing.assert_allclose(
            torsion.skew_rr_closed_form(np.diag([-0.5, -0.5, 0.5]), -0.5, 0.5),
            np.diag([1.0, 1.0, 0.0]),
            atol=1e-14,
        )
        np.testing.assert_allclose(torsion.skew_rr_closed_form(np.zeros((3, 3)), 0.0, 0.0), 0.0)
