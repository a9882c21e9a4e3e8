"""Batched evaluation: a stack of scenarios against each scenario on its own.

Every kernel and residual takes leading batch axes, and a single scenario is
batch shape ().  Each sample of a batched result is compared with the call
on that sample alone, and all of them are bit-identical: sweep rows, and
every kernel and residual on random batches (non-skew and skew contorsion,
nonzero phi).  None needs the 1e-15 allowance that a change of summation
order would call for: per sample, every batched kernel does the arithmetic
of the single call (index copies, products with one +-1 entry per sum, sums
of three terms added in order, and the same BLAS calls).
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import random_model
from het3 import constructors, frame, geometry, residuals, torsion
from het3.errors import NonPositiveKappa, ScenarioValidationError

N = 12


def random_batch(rng, skew: bool, shape=(N,)):
    """Random models, contorsions and phi, not validated (phi need not be
    closed), as a batch of the given shape and as single scenarios."""
    scenarios = []
    for _ in range(math.prod(shape)):
        a = rng.normal(size=(3, 3))
        ct = torsion.skew(rng.normal()) if skew else torsion.Contorsion(a + a.T)
        scenarios.append(
            residuals.SolitonScenario(
                model=random_model(rng),
                contorsion=ct,
                h=float(rng.uniform(0.1, 3.0)),
                kappa=float(10.0 ** rng.uniform(-3, 3)),
                phi=rng.normal(size=3),
            )
        )
    flat = residuals.SolitonScenario.stack(scenarios)
    batch = residuals.SolitonScenario(
        model=geometry.StructureConstants(flat.model.c.reshape(shape + (3, 3, 3))),
        contorsion=torsion.Contorsion(flat.contorsion.a.reshape(shape + (3, 3))),
        h=flat.h.reshape(shape),
        kappa=flat.kappa.reshape(shape),
        phi=flat.phi.reshape(shape + (3,)),
    )
    return batch, scenarios


def valid_batch(rng):
    """Solvable models with a closed phi along e1 and a symmetric, non-skew
    contorsion: valid scenarios, most of them not solutions."""
    scenarios = []
    for _ in range(N):
        a = rng.normal(size=(3, 3))
        scenarios.append(
            residuals.SolitonScenario(
                model=geometry.hyperbolic_model(rng.normal(scale=1.5)),
                contorsion=torsion.Contorsion(a + a.T),
                h=float(rng.uniform(0.1, 3.0)),
                kappa=float(10.0 ** rng.uniform(-3, 3)),
                phi=np.array([rng.normal(), 0.0, 0.0]),
            )
        )
    return residuals.SolitonScenario.stack(scenarios), scenarios


def kernels(sc):
    """Every kernel and residual of one scenario or batch, by name."""
    conn = sc.connection
    rd = sc.curvature_D
    data = sc.curvature_g
    rendo = geometry.curvature_endo(sc.model, conn.total)
    return {
        "levi_civita": geometry.levi_civita(sc.model),
        "jacobi_defect": geometry.jacobi_defect(sc.model),
        "ad_trace": sc.model.ad_trace(),
        "contorsion_coefficients": torsion.contorsion_coefficients(sc.contorsion),
        "connection_total": conn.total,
        "curvature_endo": rendo,
        "operator_from_endo": geometry.operator_from_endo(rendo).entries,
        "endo_from_operator": geometry.endo_from_operator(rd),
        "riemann_g": data.riemann.entries,
        "ricci_g": data.ricci,
        "scalar_g": data.scalar,
        "curvature_D": rd.entries,
        "covariant_derivative_R": torsion.covariant_derivative(
            conn.total, geometry.endo_from_operator(rd)
        ),
        "covariant_derivative_ricci": torsion.covariant_derivative(conn.base, data.ricci),
        "covariant_derivative_A": torsion.covariant_derivative(conn.total, sc.contorsion.a),
        "curv_compose": frame.curv_compose(rd, rd),
        "curv_square": frame.curv_square(rd),
        "curv_norm_sq": frame.curv_norm_sq(rd),
        "star_matrix": frame.star_matrix(sc.phi),
        "trace_part": sc.contorsion.trace_part,
        "skew_vector": sc.contorsion.skew_vector,
        "grad_phi": residuals.grad_phi(sc),
        "delta_phi": sc.delta_phi,
        "phi_sq": sc.phi_sq,
        "einstein": residuals.einstein_residual(sc),
        "yang_mills": residuals.yang_mills_residual(sc),
        "dilaton": residuals.dilaton_residual(sc),
        "maxwell": residuals.maxwell_residual(sc),
        "trace_identity": residuals.trace_identity_residual(sc),
    }


def skew_kernels(sc):
    return {
        "yang_mills_skew_path": residuals.yang_mills_skew_path(sc),
        "remark_identity": residuals.remark_identity_residual(sc),
    }


def assert_samples_match(batched: dict, singles: list):
    for name, got in batched.items():
        flat = np.reshape(got, (len(singles),) + np.shape(singles[0][name]))
        for n, single in enumerate(singles):
            np.testing.assert_array_equal(flat[n], single[name], err_msg=name)


class TestRandomBatches:
    @pytest.mark.parametrize("shape", [(N,), (3, 4)])
    def test_kernels_non_skew(self, rng, shape):
        batch, scenarios = random_batch(rng, skew=False, shape=shape)
        assert_samples_match(kernels(batch), [kernels(s) for s in scenarios])

    def test_kernels_skew(self, rng):
        batch, scenarios = random_batch(rng, skew=True)
        assert_samples_match(
            {**kernels(batch), **skew_kernels(batch)},
            [{**kernels(s), **skew_kernels(s)} for s in scenarios],
        )

    def test_full_report(self, rng):
        batch, scenarios = valid_batch(rng)
        report = residuals.full_report(batch)
        assert report.remark_identity is None  # no sample has skew torsion
        for n, sc in enumerate(scenarios):
            single = residuals.full_report(sc)
            for key, value in single.norms.items():
                assert report.norms[key][n] == value, key
            for field in ("einstein_sym", "einstein_skew", "yang_mills", "dilaton",
                          "maxwell", "trace_identity"):
                np.testing.assert_array_equal(
                    getattr(report, field)[n], getattr(single, field), err_msg=field
                )
            assert report.worst[n] == max(single.norms.values())
            assert report.verdict[n] == single.verdict
            assert report.is_solution[n] == single.is_solution

    def test_remark_identity_at_the_skew_samples(self):
        # a batch of mixed torsion: the remark identity of each skew sample
        # is its own, bit for bit, and NaN stands at the other samples
        scenarios = [
            constructors.construct_skew_heisenberg(0.7).scenario,
            constructors.construct_generic_reducible(0.7, -2.0).scenario,
            constructors.construct_hyperbolic_skew(2.0, -6.0).scenario,
            constructors.boundary_vanishing_torsion(3.0).scenario,
        ]
        remark = residuals.full_report(residuals.SolitonScenario.stack(scenarios)).remark_identity
        for n, sc in enumerate(scenarios):
            single = residuals.full_report(sc).remark_identity
            if n == 1:
                assert single is None and np.isnan(remark[n])
            else:
                assert remark[n] == single == residuals.remark_identity_residual(sc)

    def test_scalar_square_is_float_power(self):
        # the remark identity squares s - 6 alpha^2 by np.float_power at every
        # batch shape; a single scenario's float64 ** 2 gives the same value
        rng = np.random.default_rng(2026)
        values = rng.normal(size=20_000) * 10.0 ** rng.uniform(-5, 5, size=20_000)
        for x in values:
            assert x ** 2 == np.float_power(x, 2), repr(x)

    def test_single_scenario_is_batch_shape_empty(self):
        built = constructors.construct_hyperbolic_skew(1.0, -6.0)
        report = residuals.full_report(built.scenario)
        assert isinstance(report.verdict, str) and report.verdict == "SOLUTION"
        for value in report.norms.values():
            assert isinstance(value, float)
        assert np.shape(report.dilaton) == ()
        assert report.einstein_sym.shape == (3, 3)

    def test_validation_rejects_any_bad_sample(self, rng):
        batch, scenarios = valid_batch(rng)
        residuals.validate_scenario(batch)
        for change, error in [
            (dict(kappa=-1.0), NonPositiveKappa),
            (dict(phi=np.array([math.nan, 0.0, 0.0])), ScenarioValidationError),
            (dict(h=math.inf), ScenarioValidationError),
        ]:
            bad = list(scenarios)
            sc = bad[5]
            fields = dict(model=sc.model, contorsion=sc.contorsion, h=sc.h, kappa=sc.kappa,
                          phi=sc.phi)
            bad[5] = residuals.SolitonScenario(**{**fields, **change})
            with pytest.raises(error):
                residuals.validate_scenario(residuals.SolitonScenario.stack(bad))


class TestSweepBatch:
    @pytest.mark.parametrize("decade", range(-8, 8))
    def test_rows_match_single_reports(self, decade):
        # interior and past-window grids in every decade of kappa in [1e-8, 1e8]
        kappa = 10.0 ** (decade + 0.37)
        rows = constructors.sweep_window(kappa, 16) + constructors.sweep_window(
            kappa, 16, s_min=-30.0 / kappa, s_max=2.0 / kappa
        )
        in_window = 0
        for row in rows:
            if row.verdict == "OUT_OF_WINDOW":
                assert not -24.0 < kappa * row.scalar < 0.0
                continue
            in_window += 1
            built = constructors.construct_hyperbolic_skew(kappa, row.scalar)
            report = residuals.full_report(built.scenario)
            assert row.residual_norm == max(report.norms.values())
            assert row.verdict == report.verdict
            assert (row.alpha, row.h) == (built.alpha, built.h)
        assert in_window == 16 + 12
        # sweep_row is the one-sample case of the same path
        assert constructors.sweep_row(kappa, rows[7].scalar) == rows[7]

    @pytest.mark.parametrize("n_points", [16, 1000])
    def test_one_report_per_sweep(self, monkeypatch, n_points):
        # the CSV prints no identity, so the sweep computes none
        calls = Counter()
        for module, name in [
            (residuals, "full_report"),
            (geometry, "curvature"),
            (geometry, "curvature_pair"),
            (residuals, "trace_identity_residual"),
            (residuals, "remark_identity_residual"),
        ]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rows = constructors.sweep_window(1.0, n_points)
        assert len(rows) == n_points
        # R^g and R^D of the block in one table pass, without curvature_endo
        assert calls == {"full_report": 1, "curvature_pair": 1}

    def test_block_memory(self):
        # the working memory of one full SWEEP_BLOCK, gathers included
        constructors.sweep_window(1.0, 1024)  # numpy's lazy set-up first
        tracemalloc.start()
        try:
            constructors.sweep_window(1.0, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    @pytest.mark.parametrize("kappa", [1e-2, 1.0, 1e2])
    def test_dense_grid_solves(self, kappa):
        rows = constructors.sweep_window(kappa, 2000)
        assert len(rows) == 2000 > constructors.SWEEP_BLOCK
        assert all(row.verdict == "SOLUTION" for row in rows)
