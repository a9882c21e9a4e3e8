"""Solution families, the scalar-curvature window, classification, sweeps."""

import math

import numpy as np
import pytest

from het3 import constructors, geometry, residuals, torsion
from het3.errors import (
    DegeneratesToSkew,
    NonNegativeScalar,
    NonPositiveKappa,
    OutOfWindow,
)


def all_families(kappa=1.0):
    return [
        constructors.construct_skew_heisenberg(kappa),
        constructors.construct_generic_reducible(kappa, -2.0, +1),
        constructors.construct_generic_reducible(kappa, -2.0, -1),
        constructors.construct_hyperbolic_skew(kappa, -6.0 / kappa),
        constructors.boundary_vanishing_torsion(kappa),
    ]


class TestGenericReducible:
    def test_kappa_one_s_minus_two(self):
        built = constructors.construct_generic_reducible(1.0, -2.0, +1)
        assert built.alpha == pytest.approx(1.0)
        assert built.gamma == pytest.approx(-1.0)
        assert built.h == pytest.approx(2.0)
        assert built.model_parameter == pytest.approx(2.0)
        report = residuals.full_report(built.scenario)
        assert report.verdict == "SOLUTION"

    def test_opposite_root(self):
        built = constructors.construct_generic_reducible(1.0, -0.5, -1)
        assert built.alpha == pytest.approx(0.5)
        assert built.gamma == pytest.approx(-2.0)
        assert built.h == pytest.approx(1.0)
        assert residuals.full_report(built.scenario).verdict == "SOLUTION"

    def test_algebraic_constraints(self):
        for kappa, s, sign in [(1.0, -2.0, 1), (1.0, -8.0, -1), (0.3, -1.7, 1)]:
            built = constructors.construct_generic_reducible(kappa, s, sign)
            assert abs(built.scalar + 2 * built.alpha**2) <= 1e-12
            assert abs(kappa * (2 * built.alpha + built.gamma) ** 2 - 1) <= 1e-12

    def test_degenerates_to_skew(self):
        # kappa=1, s=-1/2, sign=+1 gives gamma = 0
        with pytest.raises(DegeneratesToSkew):
            constructors.construct_generic_reducible(1.0, -0.5, +1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonNegativeScalar):
            constructors.construct_generic_reducible(1.0, 0.0, +1)
        with pytest.raises(NonPositiveKappa):
            constructors.construct_generic_reducible(-1.0, -2.0, +1)
        with pytest.raises(ValueError):
            constructors.construct_generic_reducible(1.0, -2.0, 2)


class TestSkewHeisenberg:
    def test_kappa_one(self):
        built = constructors.construct_skew_heisenberg(1.0)
        assert built.alpha == pytest.approx(0.5)
        assert built.h == pytest.approx(1.0)
        assert built.scalar == pytest.approx(-0.5)
        data = geometry.curvature(
            built.scenario.model, geometry.levi_civita(built.scenario.model)
        )
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(data.ricci)), [-0.5, -0.5, 0.5], atol=1e-13
        )

    def test_kappa_four(self):
        built = constructors.construct_skew_heisenberg(4.0)
        assert built.alpha == pytest.approx(0.25)
        assert built.h == pytest.approx(0.5)
        assert built.scalar == pytest.approx(-0.125)

    @pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_root_identities(self, kappa):
        built = constructors.construct_skew_heisenberg(kappa)
        assert abs(4 * kappa * built.alpha**2 - 1) <= 1e-12
        assert abs(built.h**2 - 4 * built.alpha**2) <= 1e-12
        assert abs(kappa * built.scalar + 0.5) <= 1e-12

    def test_perturbed_alpha_fails(self):
        built = constructors.construct_skew_heisenberg(1.0)
        bad = residuals.SolitonScenario(
            model=built.scenario.model,
            contorsion=torsion.skew(0.4),
            h=built.h,
            kappa=1.0,
        )
        report = residuals.full_report(bad)
        assert report.verdict == "NOT_SOLUTION"
        assert max(report.norms.values()) > 1e-3


class TestHyperbolicSkew:
    def test_kappa_one_s_minus_six(self):
        built = constructors.construct_hyperbolic_skew(1.0, -6.0)
        assert built.model_parameter == pytest.approx(1.0)
        assert built.h == pytest.approx(2 * math.sqrt(3))
        assert built.alpha == pytest.approx(1.0)
        assert residuals.full_report(built.scenario).verdict == "SOLUTION"

    def test_kappa_two_s_minus_three(self):
        built = constructors.construct_hyperbolic_skew(2.0, -3.0)
        assert built.h**2 == pytest.approx(6.0)
        assert built.alpha**2 == pytest.approx(0.5)

    def test_constraint_identity(self):
        for kappa, s in [(1.0, -6.0), (2.0, -3.0), (0.5, -40.0), (1.0, -0.1)]:
            built = constructors.construct_hyperbolic_skew(kappa, s)
            lhs = kappa * (built.h**2 + 12 * built.alpha**2) ** 2
            assert abs(lhs - 48 * built.h**2) <= 1e-8

    def test_window_endpoints_rejected(self):
        with pytest.raises(OutOfWindow):
            constructors.construct_hyperbolic_skew(1.0, -24.0)
        with pytest.raises(OutOfWindow):
            constructors.construct_hyperbolic_skew(1.0, 0.0)
        with pytest.raises(OutOfWindow):
            constructors.construct_hyperbolic_skew(1.0, 1.0)
        with pytest.raises(OutOfWindow):
            constructors.construct_hyperbolic_skew(2.0, -13.0)

    def test_scalar_window(self):
        assert constructors.scalar_window(1.0) == (-24.0, 0.0)
        assert constructors.scalar_window(0.5) == (-48.0, 0.0)
        assert constructors.scalar_window(3.0) == (-8.0, 0.0)
        with pytest.raises(NonPositiveKappa):
            constructors.scalar_window(0.0)


class TestBoundary:
    def test_kappa_one(self):
        built = constructors.boundary_vanishing_torsion(1.0)
        assert built.scalar == pytest.approx(-24.0)
        assert built.h == pytest.approx(math.sqrt(48.0))
        assert built.alpha == 0.0
        assert residuals.full_report(built.scenario).verdict == "SOLUTION"

    def test_kappa_two(self):
        built = constructors.boundary_vanishing_torsion(2.0)
        assert built.scalar == pytest.approx(-12.0)
        assert built.h == pytest.approx(math.sqrt(24.0))

    def test_boundary_is_strict_for_nonzero_alpha(self):
        built = constructors.boundary_vanishing_torsion(1.0)
        bad = residuals.SolitonScenario(
            model=built.scenario.model,
            contorsion=torsion.skew(0.01),
            h=built.h,
            kappa=1.0,
        )
        assert residuals.full_report(bad).verdict == "NOT_SOLUTION"


class TestClassify:
    def test_heisenberg(self):
        built = constructors.construct_skew_heisenberg(1.0)
        verdict = constructors.classify(built.scenario)
        assert verdict.kind == "HEISENBERG_TYPE"
        np.testing.assert_allclose(verdict.ricci_eigenvalues, [-0.5, -0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(np.abs(verdict.simple_axis), [0, 0, 1], atol=1e-12)

    def test_hyperbolic(self):
        built = constructors.construct_hyperbolic_skew(1.0, -6.0)
        verdict = constructors.classify(built.scenario)
        assert verdict.kind == "HYPERBOLIC_TYPE"
        np.testing.assert_allclose(verdict.ricci_eigenvalues, -2.0, atol=1e-12)
        assert verdict.simple_axis is None

    def test_flat(self):
        sc = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=1.0
        )
        assert constructors.classify(sc).kind == "FLAT"

    def test_other(self):
        sc = residuals.SolitonScenario(
            model=geometry.milnor(1.0, 2.0, 3.0),
            contorsion=torsion.skew(0.0),
            h=1.0,
            kappa=1.0,
        )
        assert constructors.classify(sc).kind == "OTHER"

    def test_rejects_batch(self):
        batch = residuals.SolitonScenario.stack(
            [
                constructors.construct_skew_heisenberg(1.0).scenario,
                constructors.construct_skew_heisenberg(4.0).scenario,
                constructors.construct_hyperbolic_skew(1.0, -6.0).scenario,
            ]
        )
        with pytest.raises(ValueError, match=r"batch of shape \(3,\)"):
            constructors.classify(batch)


class TestSweep:
    def test_all_rows_solve(self):
        rows = constructors.sweep_window(1.0, 25)
        assert len(rows) == 25
        for row in rows:
            assert row.verdict == "SOLUTION"
            assert row.residual_norm <= 1e-9
            assert constructors.scalar_window(1.0)[0] < row.scalar < 0.0

    def test_alpha_monotone_toward_boundary(self):
        rows = constructors.sweep_window(1.0, 50)
        # alpha -> 0 monotonically as kappa * s_g -> -24+ (alpha peaks at s = -6/kappa)
        lower = sorted((r for r in rows if r.scalar <= -6.0), key=lambda r: r.scalar)
        alphas = [r.alpha for r in lower]
        assert all(a1 < a2 for a1, a2 in zip(alphas, alphas[1:]))
        assert alphas[0] < 0.25
        # and the boundary value itself is tiny
        assert constructors.construct_hyperbolic_skew(1.0, -23.999).alpha < 0.01

    def test_out_of_window_markers(self):
        assert constructors.sweep_row(1.0, -24.0).verdict == "OUT_OF_WINDOW"
        assert constructors.sweep_row(1.0, 1.0).verdict == "OUT_OF_WINDOW"
        row = constructors.sweep_row(1.0, -24.0)
        assert row.alpha is None and row.residual_norm is None

    def test_explicit_range(self):
        rows = constructors.sweep_window(2.0, 5, s_min=-10.0, s_max=-2.0)
        assert [r.scalar for r in rows] == pytest.approx(list(np.linspace(-10, -2, 5)))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            constructors.sweep_window(1.0, 1)


class TestCorpusProperties:
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_every_family_solves(self, kappa):
        for built in all_families(kappa):
            report = residuals.full_report(built.scenario)
            assert report.verdict == "SOLUTION", built.family
            assert max(report.norms.values()) <= 1e-9

    def test_parallel_torsion_certificate(self):
        for built in all_families():
            conn = built.scenario.connection
            da = torsion.covariant_derivative(conn.total, built.scenario.contorsion.a)
            np.testing.assert_allclose(da, 0.0, atol=1e-12, err_msg=built.family)

    def test_parallel_curvature(self):
        # nabla^{g,A} R^{g,A} = 0 on every constructed scenario
        for built in all_families():
            sc = built.scenario
            conn = sc.connection
            r = torsion.curvature_D(sc.model, conn)
            rform = geometry.endo_from_operator(r)
            dr = torsion.covariant_derivative(conn.total, rform)
            np.testing.assert_allclose(dr, 0.0, atol=1e-11, err_msg=built.family)


def separate_construction(family, kappa, sign=+1):
    """Each family built on its own, as the constructors did before they shared
    one tail: (family, alpha, gamma, h, s_g, model parameter, model, contorsion)."""
    if family == constructors.HEISENBERG_GENERIC:
        scalar = -2.0 / kappa
        alpha = math.sqrt(-0.5 * scalar)
        gamma = sign / math.sqrt(kappa) - 2.0 * alpha
        params = torsion.ReducibleTorsionParams(
            alpha=alpha, beta=0.0, gamma=gamma, xi=constructors.AXIS
        )
        return (family, alpha, gamma, math.sqrt(-2.0 * scalar), scalar, 2.0 * alpha,
                geometry.heisenberg(2.0 * alpha), torsion.build_reducible(params))
    if family == constructors.HEISENBERG_SKEW:
        alpha = 0.5 / math.sqrt(kappa)
        return (family, alpha, 0.0, 1.0 / math.sqrt(kappa), -2.0 * alpha * alpha,
                2.0 * alpha, geometry.heisenberg(2.0 * alpha), torsion.skew(alpha))
    if family == constructors.HYPERBOLIC:
        scalar = -6.0 / kappa
        a = math.sqrt(-scalar / 6.0)
        h2 = -2.0 * scalar
        alpha = math.sqrt((math.sqrt(48.0 * h2 / kappa) - h2) / 12.0)
        return (family, alpha, 0.0, math.sqrt(h2), scalar, a,
                geometry.hyperbolic_model(a), torsion.skew(alpha))
    a = math.sqrt(4.0 / kappa)
    return (family, 0.0, 0.0, math.sqrt(48.0 / kappa), -24.0 / kappa, a,
            geometry.hyperbolic_model(a), torsion.skew(0.0))


class TestOneTail:
    """Every family, returned through the shared checked tail, is bit for bit
    the scenario its own construction gives."""

    @pytest.mark.parametrize("kappa", [3.7 * 10.0**d for d in range(-8, 8)])
    @pytest.mark.parametrize(
        "family, sign",
        [(constructors.HEISENBERG_GENERIC, +1), (constructors.HEISENBERG_GENERIC, -1),
         (constructors.HEISENBERG_SKEW, +1), (constructors.HYPERBOLIC, +1),
         (constructors.BOUNDARY, +1)],
    )
    def test_matches_separate_construction(self, family, sign, kappa):
        built = {
            constructors.HEISENBERG_GENERIC: lambda: constructors.construct_generic_reducible(
                kappa, -2.0 / kappa, sign
            ),
            constructors.HEISENBERG_SKEW: lambda: constructors.construct_skew_heisenberg(kappa),
            constructors.HYPERBOLIC: lambda: constructors.construct_hyperbolic_skew(
                kappa, -6.0 / kappa
            ),
            constructors.BOUNDARY: lambda: constructors.boundary_vanishing_torsion(kappa),
        }[family]()
        *fields, model, contorsion = separate_construction(family, kappa, sign)
        assert [built.family, built.alpha, built.gamma, built.h, built.scalar,
                built.model_parameter] == fields
        sc = built.scenario
        np.testing.assert_array_equal(sc.model.c, model.c)
        np.testing.assert_array_equal(sc.contorsion.a, contorsion.a)
        np.testing.assert_array_equal(sc.h, fields[3])
        np.testing.assert_array_equal(sc.kappa, kappa)
        np.testing.assert_array_equal(sc.phi, np.zeros(3))
