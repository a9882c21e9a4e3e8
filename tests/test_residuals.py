"""Soliton system residuals: each equation, derived identities, full report."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_model
from het3 import constructors, geometry, residuals, torsion
from het3.errors import (
    NonPositiveKappa,
    NotSkewTorsion,
    ScenarioValidationError,
)

AXIS = np.array([0.0, 0.0, 1.0])


def skew_heisenberg_scenario(kappa=1.0):
    alpha = 0.5 / math.sqrt(kappa)
    return residuals.SolitonScenario(
        model=geometry.heisenberg(2 * alpha),
        contorsion=torsion.skew(alpha),
        h=1.0 / math.sqrt(kappa),
        kappa=kappa,
    )


class TestValidation:
    def test_rejects_beta(self):
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0),
            contorsion=torsion.build_reducible(
                torsion.ReducibleTorsionParams(alpha=0.5, beta=0.1, gamma=0.0, xi=AXIS)
            ),
            h=1.0,
            kappa=1.0,
        )
        with pytest.raises(ScenarioValidationError, match="beta"):
            residuals.validate_scenario(sc)

    def test_rejects_skew_component_matrix(self):
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0),
            contorsion=torsion.Contorsion(np.eye(3) + 0.1 * np.array(
                [[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]]
            )),
            h=1.0,
            kappa=1.0,
        )
        with pytest.raises(ScenarioValidationError):
            residuals.validate_scenario(sc)

    def test_rejects_nonpositive_kappa(self):
        sc = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=0.0
        )
        with pytest.raises(NonPositiveKappa):
            residuals.validate_scenario(sc)

    def test_rejects_nonpositive_h(self):
        sc = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=-1.0, kappa=1.0
        )
        with pytest.raises(ScenarioValidationError):
            residuals.validate_scenario(sc)

    def test_phi_closedness(self):
        model = geometry.hyperbolic_model(1.0)
        good = residuals.SolitonScenario(
            model=model, contorsion=torsion.skew(0.1), h=1.0, kappa=1.0,
            phi=np.array([0.3, 0.0, 0.0]),
        )
        residuals.validate_scenario(good)
        bad = residuals.SolitonScenario(
            model=model, contorsion=torsion.skew(0.1), h=1.0, kappa=1.0,
            phi=np.array([0.0, 0.3, 0.0]),
        )
        with pytest.raises(ScenarioValidationError, match="closed"):
            residuals.validate_scenario(bad)


class TestRicGH:
    def test_flat(self):
        np.testing.assert_allclose(
            residuals.ric_gH(geometry.abelian(), 1.0), -0.5 * np.eye(3)
        )

    def test_hyperbolic(self):
        np.testing.assert_allclose(
            residuals.ric_gH(geometry.hyperbolic_model(1.0), 2 * math.sqrt(3)),
            -8.0 * np.eye(3),
            atol=1e-13,
        )

    def test_heisenberg(self):
        np.testing.assert_allclose(
            residuals.ric_gH(geometry.heisenberg(1.0), 1.0),
            np.diag([-1.0, -1.0, 0.0]),
            atol=1e-14,
        )


class TestEinstein:
    def test_skew_heisenberg_solution(self):
        res = residuals.einstein_residual(skew_heisenberg_scenario())
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_hyperbolic_solution(self):
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1.0),
            contorsion=torsion.skew(1.0),
            h=2 * math.sqrt(3),
            kappa=1.0,
        )
        np.testing.assert_allclose(residuals.einstein_residual(sc), 0.0, atol=1e-12)

    def test_detects_miscalibrated_h(self):
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1.0),
            contorsion=torsion.skew(1.0),
            h=2 * math.sqrt(3) + 0.1,
            kappa=1.0,
        )
        assert np.linalg.norm(residuals.einstein_residual(sc)) > 1e-2


class TestYangMills:
    def test_two_path_agreement(self, rng):
        for _ in range(100):
            model = random_model(rng)
            alpha = rng.normal()
            sc = residuals.SolitonScenario(
                model=model, contorsion=torsion.skew(alpha), h=1.0, kappa=1.0
            )
            general = residuals.yang_mills_residual(sc)
            special = residuals.yang_mills_skew_path(sc)
            scale = max(1.0, float(np.abs(general).max()))
            np.testing.assert_allclose(general, special, atol=1e-12 * scale)

    def test_two_path_with_dilaton(self):
        # the solvable model admits closed phi along e1
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(0.7),
            contorsion=torsion.skew(0.3),
            h=1.0,
            kappa=1.0,
            phi=np.array([0.4, 0.0, 0.0]),
        )
        np.testing.assert_allclose(
            residuals.yang_mills_residual(sc),
            residuals.yang_mills_skew_path(sc),
            atol=1e-13,
        )

    def test_matches_row_loops(self, rng):
        # reference: one row x at a time, 2-forms through np.cross
        eye = np.eye(3)

        def general_rows(sc):
            r_d = sc.curvature_D
            dr = torsion.covariant_derivative(
                sc.connection.total, geometry.endo_from_operator(r_d)
            )
            out = np.zeros((3, 3))
            for x in range(3):
                div = -np.einsum("iikl->kl", dr[:, :, x])
                out[x] = [div[1, 2], div[2, 0], div[0, 1]]
                out[x] += r_d.first_factor(sc.phi, eye[x]).dual
            return out

        def skew_rows(sc, alpha):
            data = sc.curvature_g
            ric0 = data.ricci - (data.scalar / 3.0) * np.eye(3)
            dric = torsion.covariant_derivative(sc.connection.base, data.ricci)
            out = np.zeros((3, 3))
            for x in range(3):
                for j in range(3):
                    out[x] += np.cross(eye[j], dric[j, x])
                out[x] += 3.0 * alpha * (ric0 @ eye[x])
                out[x] += data.riemann.first_factor(sc.phi, eye[x]).dual
                out[x] += alpha * alpha * np.cross(sc.phi, eye[x])
            return out

        for _ in range(50):
            alpha = rng.normal()
            a = rng.normal(size=(3, 3))
            sk = residuals.SolitonScenario(
                model=random_model(rng), contorsion=torsion.skew(alpha),
                h=1.0, kappa=1.0, phi=rng.normal(size=3),
            )
            gen = residuals.SolitonScenario(
                model=random_model(rng), contorsion=torsion.Contorsion(a + a.T),
                h=1.0, kappa=1.0, phi=rng.normal(size=3),
            )
            for got, want in [
                (residuals.yang_mills_skew_path(sk), skew_rows(sk, alpha)),
                (residuals.yang_mills_residual(sk), general_rows(sk)),
                (residuals.yang_mills_residual(gen), general_rows(gen)),
            ]:
                scale = max(1.0, float(np.abs(want).max()))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_skew_path_requires_skew(self):
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0),
            contorsion=torsion.Contorsion(np.diag([1.0, 1.0, 2.0])),
            h=1.0,
            kappa=1.0,
        )
        with pytest.raises(NotSkewTorsion):
            residuals.yang_mills_skew_path(sc)

    def test_flat_connection(self):
        sc = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=1.0
        )
        np.testing.assert_allclose(residuals.yang_mills_residual(sc), 0.0, atol=1e-15)

    def test_heisenberg_zero_torsion_regression(self):
        # nilgeometry with D = nabla^g: d^nabla Ric != 0; frozen value
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0),
            contorsion=torsion.skew(0.0),
            h=1.0,
            kappa=1.0,
        )
        ym = residuals.yang_mills_residual(sc)
        np.testing.assert_allclose(ym, np.diag([0.5, 0.5, -1.0]), atol=1e-14)
        assert np.linalg.norm(ym) == pytest.approx(math.sqrt(1.5), abs=1e-13)


class TestScalarResiduals:
    def test_dilaton_skew_heisenberg(self):
        assert residuals.dilaton_residual(skew_heisenberg_scenario()) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_dilaton_flat_obstruction(self):
        sc = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=1.0
        )
        assert residuals.dilaton_residual(sc) == pytest.approx(-1.0)

    def test_maxwell(self):
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1.0),
            contorsion=torsion.skew(0.0),
            h=2.0,
            kappa=1.0,
            phi=np.array([0.1, 0.0, 0.0]),
        )
        np.testing.assert_allclose(residuals.maxwell_residual(sc), [-0.2, 0.0, 0.0])

    def test_trace_identity_values(self):
        assert residuals.trace_identity_residual(
            skew_heisenberg_scenario()
        ) == pytest.approx(0.0, abs=1e-13)
        flat = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=1.0
        )
        assert residuals.trace_identity_residual(flat) == pytest.approx(0.5)

    def test_trace_identity_is_linear_combination(self, rng):
        # s - 3 dphi - 2|phi|^2 + h^2/2 = tr(Einstein residual) - 2 * dilaton residual
        for _ in range(50):
            model = random_model(rng)
            sc = residuals.SolitonScenario(
                model=model,
                contorsion=torsion.Contorsion(rng.normal(size=(3, 3))),
                h=float(abs(rng.normal()) + 0.1),
                kappa=float(abs(rng.normal()) + 0.1),
            )
            lhs = residuals.trace_identity_residual(sc)
            rhs = float(np.trace(residuals.einstein_residual(sc))) - 2.0 * (
                residuals.dilaton_residual(sc)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_remark_identity_recombination(self, rng):
        # remark residual = tr(Einstein residual) - trace-identity residual (skew case)
        for _ in range(50):
            model = random_model(rng)
            sc = residuals.SolitonScenario(
                model=model,
                contorsion=torsion.skew(rng.normal()),
                h=float(abs(rng.normal()) + 0.1),
                kappa=float(abs(rng.normal()) + 0.1),
            )
            lhs = residuals.remark_identity_residual(sc)
            rhs = float(np.trace(residuals.einstein_residual(sc))) - (
                residuals.trace_identity_residual(sc)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))

    def test_remark_identity_examples(self):
        assert residuals.remark_identity_residual(
            skew_heisenberg_scenario()
        ) == pytest.approx(0.0, abs=1e-13)
        flat = residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=1.0, kappa=1.0
        )
        assert residuals.remark_identity_residual(flat) == pytest.approx(-2.0)
        hyp = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1.0),
            contorsion=torsion.skew(1.0),
            h=2 * math.sqrt(3),
            kappa=1.0,
        )
        assert residuals.remark_identity_residual(hyp) == pytest.approx(0.0, abs=1e-12)


class TestFullReport:
    def test_solution_verdict(self):
        report = residuals.full_report(skew_heisenberg_scenario())
        assert report.verdict == "SOLUTION"
        assert report.is_solution
        assert max(report.norms.values()) <= 1e-12

    def test_perturbed_h(self):
        sc = skew_heisenberg_scenario()
        bad = residuals.SolitonScenario(
            model=sc.model, contorsion=sc.contorsion, h=0.9, kappa=sc.kappa
        )
        report = residuals.full_report(bad)
        assert report.verdict == "NOT_SOLUTION"
        assert not report.is_solution

    def test_flat_d_never_solution(self):
        # R^D = 0 with h > 0: the dilaton equation reads -h^2 < 0
        cases = [
            residuals.SolitonScenario(
                model=geometry.abelian(), contorsion=torsion.skew(0.0), h=h, kappa=k
            )
            for h, k in [(1.0, 1.0), (0.2, 3.0), (5.0, 0.1)]
        ]
        # round-sphere model with alpha = lambda/2 also has R^D = 0
        cases.append(
            residuals.SolitonScenario(
                model=geometry.milnor(2.0, 2.0, 2.0),
                contorsion=torsion.skew(1.0),
                h=1.0,
                kappa=1.0,
            )
        )
        for sc in cases:
            r_d = torsion.curvature_D(sc.model, sc.connection)
            assert np.max(np.abs(r_d.entries)) < 1e-13
            report = residuals.full_report(sc)
            assert report.verdict == "NOT_SOLUTION"
            assert report.dilaton == pytest.approx(-sc.h**2, abs=1e-12)

    def test_norms_match_linalg(self, rng):
        # reference: np.linalg.norm of each residual, bit for bit
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            sc = residuals.SolitonScenario(
                model=geometry.hyperbolic_model(rng.normal()),
                contorsion=torsion.Contorsion(a + a.T),
                h=float(abs(rng.normal()) + 0.1),
                kappa=float(abs(rng.normal()) + 0.1),
                phi=np.array([rng.normal(), 0.0, 0.0]),
            )
            report = residuals.full_report(sc)
            assert report.norms == {
                "einstein": np.linalg.norm(report.einstein_sym),
                "einstein_skew": np.linalg.norm(report.einstein_skew),
                "yang_mills": np.linalg.norm(report.yang_mills),
                "dilaton": abs(report.dilaton),
                "maxwell": np.linalg.norm(report.maxwell),
            }

    def test_report_is_deterministic(self):
        sc = skew_heisenberg_scenario(kappa=2.0)
        r1 = residuals.full_report(sc)
        r2 = residuals.full_report(sc)
        assert r1.norms == r2.norms
        assert r1.verdict == r2.verdict

    def test_geometry_derived_once(self, monkeypatch):
        # full_report and classify share the scenario's cached connection,
        # R^g and R^D: one Levi-Civita, two curvatures, one contorsion
        calls = Counter()
        for module, name in [
            (geometry, "levi_civita"),
            (geometry, "curvature"),
            (torsion, "contorsion_coefficients"),
        ]:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        sc = skew_heisenberg_scenario()
        residuals.full_report(sc)
        constructors.classify(sc)
        assert calls == {"levi_civita": 1, "curvature": 2, "contorsion_coefficients": 1}

    def test_non_skew_scenario_has_no_remark(self):
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(2.0),
            contorsion=torsion.build_reducible(
                torsion.ReducibleTorsionParams(alpha=1.0, beta=0.0, gamma=-1.0, xi=AXIS)
            ),
            h=2.0,
            kappa=1.0,
        )
        report = residuals.full_report(sc)
        assert report.remark_identity is None
