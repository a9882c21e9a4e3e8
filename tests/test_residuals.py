"""Soliton system residuals: each equation, derived identities, full report."""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import random_model
from het3 import cli, constructors, frame, geometry, residuals, torsion
from het3.errors import (
    Het3Error,
    NonFiniteResidual,
    NonPositiveKappa,
    NotSkewTorsion,
    ScenarioValidationError,
)

AXIS = np.array([0.0, 0.0, 1.0])


def first_factor(r, x, y) -> np.ndarray:
    """Dual components of the 2-form R_{X,Y}: (x ^ y)_a = eps_{ija} x_i y_j
    paired with the first factor of the grid."""
    return np.einsum("ija,i,j->a", frame.EPS, x, y) @ r.entries


def expand_and_trace_yang_mills(sc):
    """Reference Yang-Mills residual: R^D expanded to rank 4, its rank-5
    covariant derivative, then the trace, read at the cyclic pairs."""
    r_d = sc.curvature_D
    dr = torsion.covariant_derivative(sc.connection.total, geometry.endo_from_operator(r_d))
    return (
        -np.einsum("...iixpq->...xpq", dr)[..., :, frame._P, frame._Q]
        + frame.star_matrix(sc.phi) @ r_d.entries
    )


def skew_heisenberg_scenario(kappa=1.0):
    alpha = 0.5 / math.sqrt(kappa)
    return residuals.SolitonScenario(
        model=geometry.heisenberg(2 * alpha),
        contorsion=torsion.skew(alpha),
        h=1.0 / math.sqrt(kappa),
        kappa=kappa,
    )


class TestValidation:
    def test_failure_raises_on_every_call(self):
        sc = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0), contorsion=torsion.skew(0.5), h=1.0, kappa=-1.0
        )
        for _ in range(2):
            with pytest.raises(NonPositiveKappa):
                residuals.full_report(sc)

    def test_invalid_samples_are_the_ones_rejected_alone(self):
        # one sample per check, in the order of the checks: the mask that the
        # raised error carries marks the samples that validation rejects
        # alone, and a batch raises the error of the first check that any of
        # its samples fails
        good = skew_heisenberg_scenario()
        model, ct = good.model, good.contorsion
        rejected = {
            "not_finite": residuals.SolitonScenario(model, ct, math.inf, 1.0),
            "antisymmetry": residuals.SolitonScenario(
                geometry.StructureConstants(np.ones((3, 3, 3))), ct, 1.0, 1.0),
            "jacobi": residuals.SolitonScenario(geometry.StructureConstants.from_entries(
                [(0, 1, 0, 1.0), (0, 2, 1, 1.0)]), ct, 1.0, 1.0),
            "kappa": residuals.SolitonScenario(model, ct, 1.0, -1.0),
            "h": residuals.SolitonScenario(model, ct, 0.0, 1.0),
            "beta": residuals.SolitonScenario(model, torsion.build_reducible(
                torsion.ReducibleTorsionParams(alpha=0.5, beta=0.1, gamma=0.0, xi=AXIS)), 1.0, 1.0),
            "phi": residuals.SolitonScenario(model, ct, 1.0, 1.0, phi=[0.0, 0.0, 1.0]),
        }
        errors = {}
        for name, sc in rejected.items():
            with pytest.raises(Het3Error) as got:
                residuals.validate_scenario(sc)
            errors[name] = got.value
            assert got.value.invalid_samples
        residuals.validate_scenario(good)
        samples = dict(rejected, valid=good)
        names = list(rejected)
        for order in (names + ["valid"], ["valid"] + names[::-1], ["valid", "phi", "valid", "h"]):
            batch = residuals.SolitonScenario.stack([samples[name] for name in order])
            first = errors[min((name for name in order if name != "valid"), key=names.index)]
            with pytest.raises(type(first), match=f"^{re.escape(str(first))}$") as got:
                residuals.validate_scenario(batch)
            assert got.value.invalid_samples.tolist() == [name != "valid" for name in order]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_first_non_finite_input(self, bad):
        # one reduction over every input; the message names the first
        # non-finite one in the order c, contorsion, h, kappa, phi
        base = dict(
            model=geometry.hyperbolic_model(1.0), contorsion=torsion.skew(0.2), h=1.0,
            kappa=1.0, phi=np.array([0.3, 0.0, 0.0]),
        )
        c, a, phi = base["model"].c.copy(), base["contorsion"].a.copy(), base["phi"].copy()
        c[0, 1, 1], a[2, 2], phi[0] = bad, bad, bad
        spoilt = dict(
            model=geometry.StructureConstants(c), contorsion=torsion.Contorsion(a), h=bad,
            kappa=bad, phi=phi,
        )
        names = dict(model="structure constants", contorsion="contorsion", h="h",
                     kappa="kappa", phi="phi")
        fields = list(names)
        for first, field in enumerate(fields):
            for last in range(first, len(fields)):
                sc = residuals.SolitonScenario(
                    **{**base, **{f: spoilt[f] for f in fields[first:last + 1]}}
                )
                with pytest.raises(ScenarioValidationError) as info:
                    residuals.validate_scenario(sc)
                assert str(info.value) == f"{names[field]} must be finite (no NaN or inf)"

    def test_non_finite_sample_of_a_batch(self):
        good = residuals.SolitonScenario(
            model=geometry.heisenberg(1.0), contorsion=torsion.skew(0.5), h=1.0, kappa=1.0
        )
        batch = residuals.SolitonScenario.stack([good, good, good])
        residuals.validate_scenario(batch)
        spoilt = residuals.SolitonScenario(
            batch.model, batch.contorsion, np.array([1.0, np.nan, 1.0]), batch.kappa
        )
        with pytest.raises(ScenarioValidationError, match="^h must be finite"):
            residuals.validate_scenario(spoilt)


def ric_gH(model, h):
    """Symmetric part of Ric^{g,H} for H = h vol: H o_g H = h^2 g in 3D and
    the delta H term drops, leaving Ric^g - (h^2/2) g."""
    ricci = geometry.curvature(model, geometry.levi_civita(model)).ricci
    return ricci - 0.5 * h * h * np.eye(3)


class TestRicGH:
    def test_flat(self):
        np.testing.assert_allclose(ric_gH(geometry.abelian(), 1.0), -0.5 * np.eye(3))

    def test_hyperbolic(self):
        np.testing.assert_allclose(
            ric_gH(geometry.hyperbolic_model(1.0), 2 * math.sqrt(3)),
            -8.0 * np.eye(3),
            atol=1e-13,
        )

    def test_heisenberg(self):
        np.testing.assert_allclose(
            ric_gH(geometry.heisenberg(1.0), 1.0),
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
                out[x] += first_factor(r_d, sc.phi, eye[x])
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
                out[x] += first_factor(data.riemann, sc.phi, eye[x])
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

    @pytest.mark.parametrize("shape", [(), (12,), (3, 4)], ids=str)
    def test_matches_expand_and_trace(self, rng, shape):
        # non-skew contorsion and nonzero phi, over six decades of scale
        for scale in 10.0 ** np.arange(-3, 4):
            models = [random_model(rng).c for _ in range(math.prod(shape))]
            a = scale * rng.normal(size=shape + (3, 3))
            sc = residuals.SolitonScenario(
                model=geometry.StructureConstants(np.reshape(models, shape + (3, 3, 3))),
                contorsion=torsion.Contorsion(a + np.swapaxes(a, -1, -2)),
                h=1.0, kappa=1.0, phi=rng.normal(size=shape + (3,)),
            )
            got = residuals.yang_mills_residual(sc)
            want = expand_and_trace_yang_mills(sc)
            assert got.shape == want.shape == shape + (3, 3)
            # per sample, the allowance of test_matches_row_loops
            allowance = 1e-13 * np.maximum(1.0, np.abs(want).max(axis=(-2, -1)))
            assert (np.abs(got - want).max(axis=(-2, -1)) <= allowance).all()

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

    def test_maxwell_needs_phi_near_zero(self):
        # a closed phi on the skew Heisenberg soliton: h |phi| alone fails it
        sc = constructors.construct_skew_heisenberg(1.0).scenario
        sc = residuals.SolitonScenario(
            model=sc.model, contorsion=sc.contorsion, h=sc.h, kappa=sc.kappa,
            phi=np.array([1e-3, 0.0, 0.0]),
        )
        report = residuals.full_report(sc)
        assert report.verdict == "NOT_SOLUTION"
        assert report.norms["maxwell"] == pytest.approx(sc.h * 1e-3, rel=1e-15)

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
        # R^g and R^D: one Levi-Civita, one pass for both curvatures, one
        # contorsion
        calls = Counter()
        for module, name in [
            (geometry, "levi_civita"),
            (geometry, "curvature"),
            (geometry, "curvature_pair"),
            (torsion, "contorsion_coefficients"),
            (torsion, "curvature_D"),
        ]:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        sc = skew_heisenberg_scenario()
        residuals.full_report(sc)
        constructors.classify(sc)
        assert calls == {"levi_civita": 1, "curvature_pair": 1, "contorsion_coefficients": 1}

    def test_each_term_once(self, monkeypatch):
        # one report and its identities: nabla phi once, and the Yang-Mills
        # divergence without the rank-4 expansion or its covariant derivative
        calls = Counter()
        for module, name in [
            (residuals, "grad_phi"),
            (torsion, "covariant_derivative"),
            (geometry, "endo_from_operator"),
        ]:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(0.7), contorsion=torsion.skew(0.3),
            h=1.0, kappa=1.0, phi=np.array([0.4, 0.0, 0.0]),
        )
        report = residuals.full_report(sc)
        assert report.remark_identity is not None
        assert report.trace_identity is not None
        assert calls == {"grad_phi": 1}

    def test_overflow_is_an_error(self):
        # finite inputs whose curvature quadratic overflows: no verdict, and
        # no RuntimeWarning on the way (an error under the pytest settings)
        sc = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1e100), contorsion=torsion.skew(1e100),
            h=1e100, kappa=1e100,
        )
        with pytest.raises(NonFiniteResidual, match="the einstein residual"):
            residuals.full_report(sc)

    def test_overflow_errors_name_their_samples(self):
        # a NonFiniteResidual names exactly the samples that fail a check of
        # the call that raised it: the Ricci tensor where the scenario
        # computes it, then the norms of the report, all in one call
        good = skew_heisenberg_scenario()
        ricci = residuals.SolitonScenario(geometry.heisenberg(1e200), torsion.skew(0.5), 1.0, 1.0)
        einstein = residuals.SolitonScenario(
            model=geometry.hyperbolic_model(1e100), contorsion=torsion.skew(1e100),
            h=1e100, kappa=1e100,
        )
        for samples, message, named in (
            ([good, einstein, good, ricci], "the Ricci tensor", [False, False, False, True]),
            ([einstein, good, einstein], "the einstein residual", [True, False, True]),
        ):
            with pytest.raises(NonFiniteResidual, match=f"^{message} is not finite") as got:
                residuals.full_report(residuals.SolitonScenario.stack(samples))
            assert got.value.invalid_samples.tolist() == named

    def test_remark_overflow_names_skew_samples_only(self):
        # phi = 1e154 takes 2|phi|^2 past the float range in both identities;
        # the remark identity is checked at the skew samples only, so its
        # error names the skew one, and the trace identity's names both
        phi = [1e154, 0.0, 0.0]
        reducible = torsion.reducible(0.5, 0.1, AXIS)
        samples = [
            residuals.SolitonScenario(geometry.heisenberg(1.0), reducible, 1.0, 1.0, phi=phi),
            skew_heisenberg_scenario(),
            residuals.SolitonScenario(geometry.heisenberg(1.0), torsion.skew(0.5), 1.0, 1.0,
                                      phi=phi),
            residuals.SolitonScenario(geometry.heisenberg(1.0), reducible, 1.0, 1.0),
        ]
        report = residuals.full_report(residuals.SolitonScenario.stack(samples))
        with pytest.raises(NonFiniteResidual, match="^the remark identity residual") as got:
            report.remark_identity
        assert got.value.invalid_samples.tolist() == [False, False, True, False]
        with pytest.raises(NonFiniteResidual, match="^the trace identity residual") as got:
            report.trace_identity
        assert got.value.invalid_samples.tolist() == [True, False, True, False]
        # without the overflowing skew sample: NaN at the samples without skew torsion
        remark = residuals.full_report(residuals.SolitonScenario.stack(
            [samples[n] for n in (0, 1, 3)])).remark_identity
        assert np.isnan(remark[[0, 2]]).all() and np.isfinite(remark[1])

    @pytest.mark.parametrize("read", [constructors.classify, residuals.full_report],
                             ids=["classify", "full_report"])
    def test_ricci_overflow_is_an_error(self, read):
        # the scenario checks its own Ricci tensor, once for every reader: no
        # kind from NaN eigenvalues, and no RuntimeWarning on the way
        doc = {"structure_constants": [[1, 2, 3, 1e200]], "h": 1.0, "kappa": 1.0,
               "contorsion": {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "xi": [0, 0, 1.0]}}
        sc = cli.parse_scenario(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResidual, match="^the Ricci tensor is not finite"):
                read(sc)

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
