"""Solution families, the scalar-curvature window, classification, sweeps."""

import itertools
import math
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from het3 import constructors, geometry, residuals, torsion
from het3.errors import (
    DegeneratesToSkew,
    NonNegativeScalar,
    NonPositiveKappa,
    OutOfWindow,
    ScenarioValidationError,
)
from het3.frame import IDENTITY


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

    def test_agrees_with_the_report_on_skewness(self):
        # kappa = 1 and alpha = (1 - gamma)/2 give gamma: a member either
        # raises or has torsion that its report does not treat as skew
        gammas = [1e-13, 5e-12, 1e-11, 1e-10, 2e-10, 1e-6]
        scalars = np.array([-2.0 * ((1.0 - gamma) / 2.0) ** 2 for gamma in gammas])
        built = []
        for scalar in scalars:
            try:
                member = constructors.construct_generic_reducible(1.0, scalar)
            except DegeneratesToSkew:
                continue
            assert not member.scenario.contorsion.is_pure_skew_torsion()
            assert residuals.full_report(member.scenario).remark_identity is None
            built.append(scalar)
        # the band of Contorsion.is_pure_skew_torsion: |gamma| <= 1.5 SKEW_TOL
        assert built == scalars[-2:].tolist()
        with pytest.raises(DegeneratesToSkew):
            constructors.construct_generic_reducible(1.0, scalars)
        batch = constructors.construct_generic_reducible(1.0, np.array(built))
        assert not batch.scenario.contorsion.is_pure_skew_torsion().any()
        assert residuals.full_report(batch.scenario).remark_identity is None

    @pytest.mark.parametrize("scalars, gamma", [
        (-0.5, "0"),
        (-2.0 * ((1.0 - 1.4e-10) / 2.0) ** 2, "1.4e-10"),
        # the first refused sample of a batch
        ([-2.0, -2.0 * ((1.0 + 1e-10) / 2.0) ** 2, -0.5], "-1e-10"),
    ], ids=["gamma_0", "gamma_1.4e-10", "batch"])
    def test_degenerate_message_names_the_skew_test(self, scalars, gamma):
        with pytest.raises(DegeneratesToSkew) as exc:
            constructors.construct_generic_reducible(1.0, np.array(scalars))
        assert str(exc.value) == (
            f"gamma = {gamma}: the torsion is purely skew within SKEW_TOL = 1e-10, "
            "use the skew Heisenberg constructor"
        )

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

    @settings(max_examples=300)
    @given(
        st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0**e),
        st.floats(min_value=-24.0, max_value=-1e-12, exclude_min=True),
    )
    def test_window_is_scale_free(self, kappa, t):
        """At kappa s_g = t, kappa alpha^2 is a function of t alone:
        12 kappa alpha^2 = sqrt(-96 t) + 2 t, whatever the decade of kappa.
        (t stops at -1e-12: closer to 0, 48 h^2/kappa leaves the normal
        float range at kappa = 1e8.)"""
        scalar = t / kappa
        # t / kappa can round onto -24: step s_g into the window, and read t
        # as the window predicate reads it
        while not constructors.in_window(kappa * scalar):
            scalar = np.nextafter(scalar, 0.0)
        t = kappa * scalar
        built = constructors.construct_hyperbolic_skew(kappa, scalar)
        root = math.sqrt(-96.0 * t)
        assert built.alpha > 0.0
        assert abs(12.0 * kappa * built.alpha**2 - (root + 2.0 * t)) <= 1e-12 * root

    def test_alpha_next_to_the_lower_end(self):
        # 12 alpha^2 = sqrt(48 h^2/kappa) - h^2 cancels to 0 one ulp inside
        # kappa s_g = -24; the form 2 h^2 (24 + kappa s_g) / (kappa (r + h^2))
        # keeps alpha^2 = (24 + t) / 12 + O((24 + t)^2) there (kappa = 1)
        scalar = math.nextafter(-24.0, 0.0)
        built = constructors.construct_hyperbolic_skew(1.0, scalar)
        assert built.alpha == pytest.approx(math.sqrt((24.0 + scalar) / 12.0), rel=1e-12)
        assert built.alpha == pytest.approx(1.7206e-8, rel=1e-4)

    @given(st.floats(min_value=-8.0, max_value=8.0).map(lambda e: 10.0**e))
    def test_out_of_window_names_the_s_g_window(self, kappa):
        hint = f"admissible s_g window for kappa={kappa:g}: ({-24.0 / kappa:g}, 0)"
        for t in (-24.0, 0.0, 1.0, -30.0):
            scalar = t / kappa
            # -24/kappa can round into the window: step s_g down until
            # kappa s_g, as the predicate reads it, lies outside
            while constructors.in_window(kappa * scalar):
                scalar = np.nextafter(scalar, -np.inf)
            with pytest.raises(OutOfWindow) as exc:
                constructors.construct_hyperbolic_skew(kappa, scalar)
            assert exc.value.kappa == kappa
            assert str(exc.value).split("\n")[1] == hint

    def test_out_of_window_hint_when_the_window_overflows(self):
        # -24/kappa overflows to -inf: every negative s_g is inside
        with pytest.raises(OutOfWindow) as exc:
            constructors.construct_hyperbolic_skew(1e-308, 1.0)
        assert str(exc.value) == (
            "kappa*s_g = 1e-308 outside the admissible window (-24, 0)\n"
            "admissible s_g window for kappa=1e-308: s_g < 0"
        )

    def test_scalar_window(self):
        assert constructors.scalar_window(1.0) == (-24.0, 0.0)
        assert constructors.scalar_window(0.5) == (-48.0, 0.0)
        assert constructors.scalar_window(3.0) == (-8.0, 0.0)
        with pytest.raises(NonPositiveKappa):
            constructors.scalar_window(0.0)
        # -24/kappa past the float range is an error, not -inf
        assert constructors.scalar_window(1e-306) == (-24.0 / 1e-306, 0.0)
        with pytest.raises(ScenarioValidationError, match="must be finite"):
            constructors.scalar_window(1e-308)


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


def reference_kind(ricci) -> str:
    """classify's kind by the array expressions on the eigenvalues."""
    vals = np.linalg.eigh(ricci)[0]
    tol = constructors.CLASSIFY_TOL
    if np.max(np.abs(vals)) <= tol:
        return "FLAT"
    if np.max(vals) - np.min(vals) <= tol:
        return "HYPERBOLIC_TYPE" if vals[0] < 0 else "OTHER"
    mu = vals[2]
    if mu > tol and np.all(np.abs(vals[:2] + mu) <= tol):
        return "HEISENBERG_TYPE"
    return "OTHER"


def ricci_grids(rng):
    """Random symmetric grids, and diagonal ones (eigh returns their
    entries exactly) on and within +-CLASSIFY_TOL of every boundary."""
    tol = constructors.CLASSIFY_TOL
    grids = [a + a.T for a in rng.normal(size=(200, 3, 3))]
    offsets = [0.0, tol, -tol, np.nextafter(tol, 0), np.nextafter(tol, 1), 0.5 * tol, 2 * tol]
    for base in ([0, 0, 0], [-2, -2, -2], [2, 2, 2], [-1, -1, 1], [-tol, -tol, tol]):
        for shift in itertools.product(offsets, repeat=3):
            grids.append(np.diag(np.add(base, shift)))
    for vals in rng.uniform(-2 * tol, 2 * tol, size=(200, 3)) + rng.choice(
        [0.0, 1.0, -1.0], size=(200, 1)
    ) * np.array([-1.0, -1.0, 1.0]):
        grids.append(np.diag(vals))
    return grids


class TestClassify:
    @pytest.fixture
    def as_scenario(self):
        # classify reads only curvature_g.ricci of its scenario
        return lambda ricci: types.SimpleNamespace(curvature_g=types.SimpleNamespace(ricci=ricci))

    def test_kind_matches_array_expressions(self, rng, as_scenario):
        grids = ricci_grids(rng)
        verdict = constructors.classify(as_scenario(np.stack(grids)))
        assert verdict.kind.shape == (len(grids),)
        for ricci, kind in zip(grids, verdict.kind.tolist()):
            assert kind == reference_kind(ricci), np.diagonal(ricci)
        assert set(verdict.kind.tolist()) == {
            "FLAT", "HYPERBOLIC_TYPE", "HEISENBERG_TYPE", "OTHER"}

    @pytest.mark.parametrize("diag", [
        [np.nan, 1.0, 2.0], [-1.0, np.nan, -1.0], [-1.0, -1.0, np.nan],
        [np.inf, 1.0, 1.0], [-np.inf, -np.inf, -np.inf], [0.0, 0.0, np.inf],
    ])
    def test_non_finite_eigenvalues(self, as_scenario, diag):
        with np.errstate(invalid="ignore"):
            assert constructors.classify(as_scenario(np.diag(diag))).kind == reference_kind(
                np.diag(diag)
            )

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

    @staticmethod
    def assert_sample_is_single(batch, index, single):
        """Sample ``index`` of a batch verdict is the single verdict, bit for bit."""
        assert batch.kind[index] == single.kind
        assert type(single.kind) is str
        vals = batch.ricci_eigenvalues[index]
        assert vals.tobytes() == single.ricci_eigenvalues.tobytes()
        axis = batch.simple_axis[index]
        if single.simple_axis is None:
            assert single.kind != "HEISENBERG_TYPE" and np.isnan(axis).all()
        else:
            assert single.kind == "HEISENBERG_TYPE"
            assert axis.tobytes() == single.simple_axis.tobytes()

    @staticmethod
    def mixed_scenarios(rng):
        """Every family at two kappas, a flat and an OTHER model, and
        Heisenberg models in rotated frames (simple axes of either sign)."""
        scenarios = [built.scenario for kappa in (1.0, 1e-3) for built in all_families(kappa)]
        for model in (geometry.abelian(), geometry.milnor(1.0, 2.0, 3.0)):
            scenarios.append(residuals.SolitonScenario(
                model=model, contorsion=torsion.skew(0.0), h=1.0, kappa=1.0))
        for _ in range(8):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            rot = q * np.sign(np.diag(r))
            rot[:, 0] *= np.linalg.det(rot)  # proper
            c = np.einsum("ia,jb,kc,abc->ijk", rot, rot, rot, geometry.heisenberg(2.0).c)
            scenarios.append(residuals.SolitonScenario(
                model=geometry.StructureConstants(c), contorsion=torsion.skew(0.0),
                h=1.0, kappa=1.0))
        return scenarios

    def test_each_sample_is_its_own_classify(self, rng):
        kappas = np.array([0.25, 1.0, 1e3])
        batch = constructors.classify(constructors.construct_skew_heisenberg(kappas).scenario)
        assert batch.kind.shape == (3,) and batch.simple_axis.shape == (3, 3)
        for n, kappa in enumerate(kappas.tolist()):
            single = constructors.classify(constructors.construct_skew_heisenberg(kappa).scenario)
            self.assert_sample_is_single(batch, n, single)

        scenarios = self.mixed_scenarios(rng)
        singles = [constructors.classify(sc) for sc in scenarios]
        kinds = {single.kind for single in singles}
        assert kinds == {"FLAT", "HYPERBOLIC_TYPE", "HEISENBERG_TYPE", "OTHER"}
        stacked = residuals.SolitonScenario.stack(scenarios)
        batch = constructors.classify(stacked)
        assert batch.kind.shape == (len(scenarios),)
        for n, single in enumerate(singles):
            self.assert_sample_is_single(batch, n, single)

        # six samples of four kinds as a (2, 3) batch
        pick = [0, 3, 10, 11, 12, 13]
        grid = residuals.SolitonScenario(
            model=geometry.StructureConstants(stacked.model.c[pick].reshape(2, 3, 3, 3, 3)),
            contorsion=torsion.Contorsion(stacked.contorsion.a[pick].reshape(2, 3, 3, 3)),
            h=stacked.h[pick].reshape(2, 3), kappa=stacked.kappa[pick].reshape(2, 3),
            phi=stacked.phi[pick].reshape(2, 3, 3))
        batch = constructors.classify(grid)
        assert batch.kind.shape == (2, 3) and batch.ricci_eigenvalues.shape == (2, 3, 3)
        assert batch.simple_axis.shape == (2, 3, 3)
        assert set(batch.kind.ravel().tolist()) == kinds
        for n, index in enumerate(pick):
            self.assert_sample_is_single(batch, divmod(n, 3), singles[index])

    def test_axis_matches_the_array_orientation(self, rng):
        # the simple axis as the eigenvector of mu, negated where its largest
        # entry (np.argmax of the absolute values) is negative
        flipped = []
        for sc in self.mixed_scenarios(rng):
            verdict = constructors.classify(sc)
            if verdict.kind != "HEISENBERG_TYPE":
                continue
            axis = np.linalg.eigh(sc.curvature_g.ricci)[1][:, 2]
            flipped.append(bool(axis[np.argmax(np.abs(axis))] < 0))
            if flipped[-1]:
                axis = -axis
            assert verdict.simple_axis.tobytes() == axis.tobytes()
        assert any(flipped) and not all(flipped)
        # ties in absolute value: the first of them decides, as np.argmax does
        for axis in ([-0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [0.0, -1.0, 1.0], [-0.0, 1.0, -1.0]):
            want = np.array(axis)
            if want[np.argmax(np.abs(want))] < 0:
                want = -want
            assert np.array(constructors._oriented(axis)).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("bounds", [{}, {"s_max": -1.0}, {"s_min": -10.0, "s_max": -1.0}],
                             ids=["window", "s_max", "both"])
    def test_kappa_checked_once_per_call(self, monkeypatch, bounds):
        # once by the sweep, with its bounds: its blocks reach the derivation
        # unchecked, at any number of blocks
        calls = []
        kappa_checks = constructors._kappa_checks
        monkeypatch.setattr(constructors, "_kappa_checks",
                            lambda kappa: calls.append(kappa) or kappa_checks(kappa))
        assert len(constructors.sweep_window(2.0, 4, **bounds)) == 4
        assert calls == [2.0]
        calls.clear()
        monkeypatch.setattr(constructors, "SWEEP_BLOCK", 3)
        rows = constructors.sweep_window(2.0, 10, **bounds)
        assert sum(row.verdict != "OUT_OF_WINDOW" for row in rows) > 3  # two blocks or more
        assert calls == [2.0]


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
        r = math.sqrt(48.0 * h2 / kappa)
        alpha = math.sqrt(2.0 * h2 * (kappa * scalar + 24.0) / (12.0 * kappa * (r + h2)))
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


# one kappa per decade of [1e-8, 1e8]
DECADE_KAPPAS = np.array([3.7 * 10.0**d for d in range(-8, 8)])


class TestBatchConstruction:
    """A single construction is the N=1 case of the batched one."""

    @pytest.mark.parametrize(
        "family, sign",
        [(constructors.HEISENBERG_GENERIC, +1), (constructors.HEISENBERG_GENERIC, -1),
         (constructors.HEISENBERG_SKEW, +1), (constructors.HYPERBOLIC, +1),
         (constructors.BOUNDARY, +1)],
    )
    def test_batch_matches_each_sample(self, family, sign):
        kappas = DECADE_KAPPAS
        # kappa s_g across (-24, 0), away from the degenerate generic root -1/2
        scalars = np.linspace(-23.0, -0.7, len(kappas)) / kappas
        build = {
            constructors.HEISENBERG_GENERIC: lambda k, s: constructors.construct_generic_reducible(
                k, s, sign
            ),
            constructors.HEISENBERG_SKEW: lambda k, s: constructors.construct_skew_heisenberg(k),
            constructors.HYPERBOLIC: constructors.construct_hyperbolic_skew,
            constructors.BOUNDARY: lambda k, s: constructors.boundary_vanishing_torsion(k),
        }[family]
        batch = build(kappas, scalars)
        assert batch.family == family
        report = residuals.full_report(batch.scenario)
        for n, (kappa, scalar) in enumerate(zip(kappas.tolist(), scalars.tolist())):
            single = build(kappa, scalar)
            for name in ("alpha", "gamma", "h", "scalar", "model_parameter"):
                value = getattr(single, name)
                assert type(value) is float
                np.testing.assert_array_equal(getattr(batch, name)[n], value)
            sc, one = batch.scenario, single.scenario
            assert (type(one.h), type(one.kappa)) == (float, float)
            np.testing.assert_array_equal(sc.model.c[n], one.model.c)
            np.testing.assert_array_equal(sc.contorsion.a[n], one.contorsion.a)
            np.testing.assert_array_equal(sc.h[n], one.h)
            np.testing.assert_array_equal(sc.kappa[n], one.kappa)
            np.testing.assert_array_equal(sc.phi[n], one.phi)
            single_report = residuals.full_report(one)
            assert report.worst[n] == max(single_report.norms.values())
            assert report.verdict[n] == single_report.verdict

    @pytest.mark.parametrize(
        "family, sign",
        [(constructors.HEISENBERG_GENERIC, +1), (constructors.HEISENBERG_GENERIC, -1),
         (constructors.HEISENBERG_SKEW, +1), (constructors.HYPERBOLIC, +1),
         (constructors.BOUNDARY, +1)],
    )
    def test_contorsion_is_the_normal_form(self, family, sign):
        # the bits, zero signs included, of A = alpha g + gamma xi (x) xi
        # written out here, one call and a batch over one kappa per decade
        build = {
            constructors.HEISENBERG_GENERIC: lambda k: constructors.construct_generic_reducible(
                k, -2.0 / k, sign
            ),
            constructors.HEISENBERG_SKEW: constructors.construct_skew_heisenberg,
            constructors.HYPERBOLIC: lambda k: constructors.construct_hyperbolic_skew(k, -6.0 / k),
            constructors.BOUNDARY: constructors.boundary_vanishing_torsion,
        }[family]
        for built in (build(DECADE_KAPPAS), *map(build, DECADE_KAPPAS.tolist())):
            alphas, gammas = np.atleast_1d(built.alpha), np.atleast_1d(built.gamma)
            grids = np.reshape(built.scenario.contorsion.a, (-1, 3, 3))
            for a, alpha, gamma in zip(grids, alphas.tolist(), gammas.tolist()):
                ref = alpha * IDENTITY + gamma * np.outer(constructors.AXIS, constructors.AXIS)
                np.testing.assert_array_equal(a, ref)
                np.testing.assert_array_equal(np.signbit(a), np.signbit(ref))

    def test_one_construction_per_sweep(self, monkeypatch):
        calls = Counter()
        for module, name in [(constructors, "_hyperbolic"), (geometry, "hyperbolic_model")]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rows = constructors.sweep_window(1.0, 16)
        assert len(rows) == 16
        assert calls == {"_hyperbolic": 1, "hyperbolic_model": 1}

    @pytest.mark.parametrize("block", [constructors.SWEEP_BLOCK, 7, 3])
    def test_mixed_block_keeps_row_order(self, monkeypatch, block):
        # out-of-window samples at both ends and, with small blocks, blocks
        # that hold none, some or all in-window samples
        monkeypatch.setattr(constructors, "SWEEP_BLOCK", block)
        kappa = 2.5
        samples = np.linspace(-30.0 / kappa, 2.0 / kappa, 40)
        rows = constructors.sweep_window(kappa, 40, s_min=samples[0], s_max=samples[-1])
        assert [row.scalar for row in rows] == samples.tolist()
        inside = (-24.0 < kappa * samples) & (kappa * samples < 0.0)
        assert [row.verdict != "OUT_OF_WINDOW" for row in rows] == inside.tolist()
        assert 0 < inside.sum() < len(samples)
        for row, scalar in zip(rows, samples.tolist()):
            assert row == constructors.sweep_row(kappa, scalar)

    def test_window_predicate(self):
        ks = np.array([-24.0, -23.999, -1.0, 0.0, 1.0, -np.inf, np.nan])
        np.testing.assert_array_equal(
            constructors.in_window(ks), [False, True, True, False, False, False, False]
        )

    def test_array_with_out_of_window_sample_raises(self):
        scalars = np.array([-6.0, -12.0, -25.0, -30.0, -1.0])
        with pytest.raises(OutOfWindow) as exc:
            constructors.construct_hyperbolic_skew(1.0, scalars)
        assert exc.value.kappa_s == -25.0  # the first sample outside the window
        # the in-window samples alone construct
        built = constructors.construct_hyperbolic_skew(1.0, scalars[[0, 1, 4]])
        assert built.alpha.shape == (3,)

    def test_array_errors_name_first_bad_sample(self):
        with pytest.raises(NonPositiveKappa, match="kappa = -2 must"):
            constructors.construct_skew_heisenberg(np.array([1.0, -2.0, -3.0]))
        with pytest.raises(NonNegativeScalar, match="s_g = 0 must"):
            constructors.construct_generic_reducible(1.0, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(DegeneratesToSkew):
            constructors.construct_generic_reducible(1.0, np.array([-2.0, -0.5]))
        with pytest.raises(ScenarioValidationError, match=r"^s_g = -inf must be finite$"):
            constructors.construct_skew_heisenberg(np.array([1.0, 1e-320, 1e-300]))
        # two kinds of bad samples in one batch: the error of the first
        # check that any sample fails, with the value at its first failing
        # sample, and every sample that fails a check named
        with pytest.raises(NonPositiveKappa, match=r"^kappa = -1 must be positive$") as got:
            constructors.construct_generic_reducible(
                np.array([1.0, 2.0, -1.0, -3.0]), np.array([-1.0, 0.0, -1.0, 1.0]))
        assert got.value.invalid_samples.tolist() == [False, True, True, True]
        # derived values: at kappa = 1e-308 s_g = -24/kappa and h overflow,
        # at 5e-324 also a; h is the first name that a sample fails
        with pytest.raises(ScenarioValidationError, match=r"^h = inf must be finite$") as got:
            constructors.boundary_vanishing_torsion(np.array([1.0, 1e-308, 5e-324, 2.0]))
        assert got.value.invalid_samples.tolist() == [False, True, True, False]
