"""Acceptance gate: the eight release criteria, one pass/fail line each.

The per-criterion lines bypass pytest's output capture so they stay visible
on the terminal.
"""

import json
import math
import sys

import numpy as np
import pytest

from conftest import random_model
from het3 import cli, constructors, frame, geometry, residuals, torsion
from het3.errors import DegeneratesToSkew, OutOfWindow

AXIS = np.array([0.0, 0.0, 1.0])


@pytest.fixture
def report(capsys):
    def _report(criterion: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[{criterion}] {'PASS' if ok else 'FAIL'}", file=sys.stderr)

    return _report


def test_ac1_skew_heisenberg_family(report):
    """Skew Heisenberg soliton across kappa, with kappa*s_g = -1/2."""
    ok = True
    for kappa in (0.25, 0.5, 1.0, 2.0, 4.0):
        built = constructors.construct_skew_heisenberg(kappa)
        rep = residuals.full_report(built.scenario)
        ok &= max(rep.norms.values()) <= 1e-9
        ok &= abs(kappa * built.scalar + 0.5) <= 1e-12
    report("AC1 skew-heisenberg", ok)
    assert ok


def test_ac2_generic_reducible_family(report):
    """Generic reducible Heisenberg solitons, both root signs."""
    ok = True
    for scalar in (-0.5, -2.0, -8.0):
        for sign in (+1, -1):
            if scalar == -0.5 and sign == +1:
                # gamma = 0 degeneration is excluded by construction
                with pytest.raises(DegeneratesToSkew):
                    constructors.construct_generic_reducible(1.0, scalar, sign)
                continue
            built = constructors.construct_generic_reducible(1.0, scalar, sign)
            rep = residuals.full_report(built.scenario)
            ok &= max(rep.norms.values()) <= 1e-9
            ok &= abs(1.0 * (2 * built.alpha + built.gamma) ** 2 - 1.0) <= 1e-12
    report("AC2 generic-reducible", ok)
    assert ok


def test_ac3_hyperbolic_window(report):
    """100-point sweep across the open window; errors at both endpoints."""
    ok = True
    for s in np.linspace(-23.99, -0.01, 100):
        row = constructors.sweep_row(1.0, float(s))
        ok &= row.verdict == "SOLUTION" and row.residual_norm <= 1e-9
    for s in (-24.0, 0.0):
        try:
            constructors.construct_hyperbolic_skew(1.0, s)
            ok = False
        except OutOfWindow:
            pass
    boundary = constructors.boundary_vanishing_torsion(1.0)
    rep = residuals.full_report(boundary.scenario)
    ok &= rep.verdict == "SOLUTION"
    ok &= boundary.scalar == -24.0 and boundary.alpha == 0.0
    ok &= abs(boundary.h - math.sqrt(48.0)) <= 1e-12
    report("AC3 hyperbolic-window", ok)
    assert ok


def test_ac4_constraint_identity(report):
    """kappa (h^2 + 12 alpha^2)^2 = 48 h^2 on every sweep row."""
    ok = True
    for kappa in (0.5, 1.0, 2.0):
        for row in constructors.sweep_window(kappa, 100):
            lhs = kappa * (row.h**2 + 12 * row.alpha**2) ** 2
            ok &= abs(lhs - 48 * row.h**2) <= 1e-8
    report("AC4 constraint-identity", ok)
    assert ok


def test_ac5_two_path_equalities(report):
    """Closed-form vs direct computation, 100 random draws each, 1e-12 relative."""
    rng = np.random.default_rng(7)
    ok = True

    def close(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.abs(a).max()))

    # (a) reducible-torsion curvature closed form and (b) its quadratic
    for _ in range(100):
        alpha = rng.uniform(0.05, 2.0)
        gamma = rng.uniform(-3.0, 3.0)
        model = geometry.heisenberg(2 * alpha)
        ct = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=alpha, beta=0.0, gamma=gamma, xi=AXIS)
        )
        conn = torsion.connection_with_torsion(model, ct)
        r = torsion.curvature_D(model, conn)
        base = geometry.curvature(model, geometry.levi_civita(model))
        closed = torsion.reducible_curvature_closed_form(base.riemann, alpha, gamma, AXIS)
        ok &= close(r.entries, closed.entries)
        ok &= close(
            frame.curv_compose(r, r),
            torsion.rara_closed_form(alpha, gamma, base.scalar, AXIS),
        )

    # (c) skew-torsion curvature shift and its quadratic
    for _ in range(100):
        model = random_model(rng)
        alpha = rng.normal()
        conn = torsion.connection_with_torsion(model, torsion.skew(alpha))
        r = torsion.curvature_D(model, conn)
        data = geometry.curvature(model, geometry.levi_civita(model))
        ok &= close(r.entries, data.riemann.entries + alpha**2 * np.eye(3))
        ok &= close(
            frame.curv_compose(r, r),
            torsion.skew_rr_closed_form(data.ricci, data.scalar, alpha),
        )

    # (d) 3D Riemann-from-Ricci and Ricci-square identities
    for _ in range(100):
        model = random_model(rng)
        data = geometry.curvature(model, geometry.levi_civita(model))
        via = geometry.curvature_via_ricci(data.ricci, data.scalar)
        ok &= close(via.entries, data.riemann.entries)
        ok &= close(
            geometry.ricci_square_identity(data.ricci, data.scalar),
            frame.curv_compose(data.riemann, data.riemann),
        )

    # (e) Yang-Mills general divergence vs skew specialization
    for _ in range(100):
        model = random_model(rng)
        sc = residuals.SolitonScenario(
            model=model, contorsion=torsion.skew(rng.normal()), h=1.0, kappa=1.0
        )
        ok &= close(residuals.yang_mills_residual(sc), residuals.yang_mills_skew_path(sc))

    report("AC5 two-path-identities", ok)
    assert ok


def _scenario_corpus():
    built = [
        constructors.construct_skew_heisenberg(k) for k in (0.25, 1.0, 4.0)
    ]
    built += [
        constructors.construct_generic_reducible(1.0, -2.0, +1),
        constructors.construct_generic_reducible(1.0, -2.0, -1),
        constructors.construct_hyperbolic_skew(1.0, -6.0),
        constructors.construct_hyperbolic_skew(2.0, -3.0),
        constructors.boundary_vanishing_torsion(1.0),
    ]
    return built


def test_ac6_curvature_property_suite(report):
    """Pair symmetry, norm identity, PSD, parallel torsion."""
    rng = np.random.default_rng(11)
    ok = True
    models = [b.scenario.model for b in _scenario_corpus()]
    models += [random_model(rng) for _ in range(50)]
    for model in models:
        data = geometry.curvature(model, geometry.levi_civita(model))
        k = data.riemann.entries
        scale = max(1.0, float(np.abs(k).max()))
        ok &= np.max(np.abs(k - k.T)) <= 1e-12 * scale
        ric_sq = float(np.sum(data.ricci * data.ricci))
        ok &= abs(
            frame.curv_norm_sq(data.riemann) - (ric_sq - data.scalar**2 / 4)
        ) <= 1e-10 * max(1.0, ric_sq)
        q = frame.curv_compose(data.riemann, data.riemann)
        ok &= float(np.min(np.linalg.eigvalsh(q))) >= -1e-10
    for built in _scenario_corpus():
        conn = built.scenario.connection
        da = torsion.covariant_derivative(conn.total, built.scenario.contorsion.a)
        ok &= float(np.max(np.abs(da))) <= 1e-12
    report("AC6 curvature-properties", ok)
    assert ok


def test_ac7_no_go_checks(report):
    """Flat-D scenarios never verify; perturbed skew root is detected."""
    ok = True
    flat_cases = [
        residuals.SolitonScenario(
            model=geometry.abelian(), contorsion=torsion.skew(0.0), h=h, kappa=k
        )
        for h, k in [(1.0, 1.0), (0.3, 2.0), (4.0, 0.25)]
    ] + [
        # round-sphere model with alpha = lambda/2: R^{g,alpha} = 0 exactly
        residuals.SolitonScenario(
            model=geometry.milnor(2.0, 2.0, 2.0),
            contorsion=torsion.skew(1.0),
            h=h,
            kappa=1.0,
        )
        for h in (0.5, 2.0)
    ]
    for sc in flat_cases:
        r = torsion.curvature_D(sc.model, sc.connection)
        ok &= float(np.max(np.abs(r.entries))) <= 1e-12
        ok &= residuals.full_report(sc).verdict == "NOT_SOLUTION"

    built = constructors.construct_skew_heisenberg(1.0)
    perturbed = residuals.SolitonScenario(
        model=built.scenario.model,
        contorsion=torsion.skew(1.1 * built.alpha),
        h=built.h,
        kappa=1.0,
    )
    rep = residuals.full_report(perturbed)
    ok &= rep.verdict == "NOT_SOLUTION" and max(rep.norms.values()) >= 1e-3
    report("AC7 no-go", ok)
    assert ok


def test_ac8_cli_round_trip(tmp_path, capsys, report):
    """construct -> check exit 0 for 50 random draws; exit 2 on bad input."""
    rng = np.random.default_rng(23)
    ok = True
    for n in range(50):
        kappa = float(rng.uniform(0.25, 4.0))
        family = rng.choice([
            constructors.HEISENBERG_SKEW,
            constructors.HEISENBERG_GENERIC,
            constructors.HYPERBOLIC,
            constructors.BOUNDARY,
        ])
        argv = ["construct", str(family), "--kappa", repr(kappa)]
        if family == constructors.HYPERBOLIC:
            s = float(rng.uniform(-23.0, -1.0)) / kappa
            argv += ["--scalar", repr(s)]
        elif family == constructors.HEISENBERG_GENERIC:
            s = float(rng.uniform(-8.0, -0.1))
            sign = int(rng.choice([1, -1]))
            if abs(sign / math.sqrt(kappa) - 2 * math.sqrt(-s / 2)) < 1e-6:
                continue  # skip the measure-zero degeneration
            argv += ["--scalar", repr(s), "--sign", str(sign)]
        path = tmp_path / f"rt{n}.json"
        argv += ["-o", str(path)]
        ok &= cli.main(argv) == 0
        ok &= cli.main(["check", str(path)]) == 0
    capsys.readouterr()  # drop accumulated construct/check chatter

    # schema rejection: beta != 0 and kappa <= 0 both exit 2
    bad_beta = {
        "structure_constants": [[1, 2, 3, 1.0]],
        "contorsion": {"alpha": 0.5, "beta": 0.1, "gamma": 0.0, "xi": [0, 0, 1.0]},
        "h": 1.0,
        "kappa": 1.0,
    }
    p1 = tmp_path / "beta.json"
    p1.write_text(json.dumps(bad_beta))
    ok &= cli.main(["check", str(p1)]) == 2

    bad_kappa = dict(bad_beta)
    bad_kappa["contorsion"] = {"alpha": 0.5, "beta": 0.0, "gamma": 0.0, "xi": [0, 0, 1.0]}
    bad_kappa["kappa"] = -1.0
    p2 = tmp_path / "kappa.json"
    p2.write_text(json.dumps(bad_kappa))
    ok &= cli.main(["check", str(p2)]) == 2
    ok &= cli.main(["construct", "heisenberg-skew", "--kappa", "0"]) == 2
    capsys.readouterr()

    report("AC8 cli-round-trip", ok)
    assert ok
