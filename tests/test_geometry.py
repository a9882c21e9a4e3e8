"""Homogeneous models: validation, Koszul connection, curvature identities."""

import warnings

import numpy as np
import pytest

from conftest import model_corpus, random_model
from het3 import frame, geometry, residuals, torsion
from het3.errors import (
    AntisymmetryViolation,
    JacobiViolation,
    ScenarioValidationError,
    TraceMismatch,
)

# the cyclic pairs (i, j) of *e_a = e_i ^ e_j, restated for the reference loops
PAIRS = ((1, 2), (2, 0), (0, 1))
P, Q = [1, 2, 0], [2, 0, 1]
SHAPES = [(), (12,), (3, 4)]


class TestValidate:
    def test_abelian_ok(self):
        geometry.validate(geometry.abelian())

    def test_heisenberg_ok(self):
        geometry.validate(geometry.heisenberg(1.0))

    def test_jacobi_violation(self):
        # [e1,e2]=e3 plus an inconsistent [e2,e3]=e1-coupling through e2 breaks Jacobi
        bad = geometry.StructureConstants.from_entries(
            [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 0, 1.0)]
        )
        with pytest.raises(JacobiViolation):
            geometry.validate(bad)

    def test_nan_jacobi_defect(self):
        # each product overflows to +-inf and the cyclic sum meets inf - inf
        model = geometry.milnor(1e200, 1e200, 1e200)
        assert np.isnan(geometry.jacobi_defect(model))
        with pytest.raises(JacobiViolation, match="overflow the float range"):
            geometry.validate(model)

    def test_antisymmetry_violation(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # no compensating c[1,0,2]
        with pytest.raises(AntisymmetryViolation):
            geometry.validate(geometry.StructureConstants(c))

    def test_one_reduction_agrees_with_the_checks_in_turn(self, rng):
        # the same exception and message as the two checks run one after the
        # other, and no warning, on models that pass, fail at and one ulp
        # past STRUCT_TOL, overflow in either sum, or hold NaN
        tol = geometry.STRUCT_TOL
        models = [random_model(rng) for _ in range(20)]
        for eps in (tol, np.nextafter(tol, 1.0), 2 * tol):
            c = geometry.hyperbolic_model(1.0).c.copy()
            c[0, 0, 1] = eps / 2  # anti deviation eps
            models.append(geometry.StructureConstants(c))
            models.append(geometry.heisenberg(1.0 + eps))
            models.append(geometry.StructureConstants.from_entries(
                [(0, 1, 2, 1.0), (1, 2, 0, eps), (0, 2, 0, 1.0)]))  # Jacobi defect about eps
        for value in (1e154, 1e200, 1.5e308, np.inf, np.nan):
            models.append(geometry.milnor(value, value, value))  # overflow in the Jacobi sums
            models.append(geometry.milnor(value, -value, 1.0))
            c = np.zeros((3, 3, 3))
            c[0, 1, 1] = c[1, 0, 1] = value  # overflow in c + c^T
            models.append(geometry.StructureConstants(c))
        for part in (models[:5], models[-4:]):
            models.append(geometry.StructureConstants(np.stack([m.c for m in part])))
        failed = overflowed = warned = 0
        for model in models:
            got, want = outcome(geometry.validate, model), outcome(checks_in_turn, model)
            assert got[:2] == want[:2]
            assert got[2] == []
            failed += want[0] is not None
            overflowed += "overflow" in str(want[1])
            warned += bool(want[2])
        assert failed > 10 and overflowed > 2 and warned > 2

    def test_ad_trace(self):
        assert np.all(geometry.heisenberg(3.0).ad_trace() == 0.0)
        np.testing.assert_array_equal(
            geometry.hyperbolic_model(1.5).ad_trace(), [3.0, 0.0, 0.0]
        )


def checks_in_turn(model):
    """Reference: the antisymmetry check, then the Jacobi check, each over
    the models in order, naming the first model that fails it; the Jacobi
    check names a defect that is not finite as an overflow."""
    anti = np.abs(model.c + model.c.swapaxes(-3, -2)).max(axis=(-3, -2, -1)).ravel()
    for value in anti:
        if not value <= geometry.STRUCT_TOL:
            raise AntisymmetryViolation(f"c_ijk + c_jik deviates by {value:g}")
    for defect in geometry.jacobi_defect(model).ravel():
        if not np.isfinite(defect):
            raise JacobiViolation("structure constants overflow the float range in the Jacobi sums")
        if not defect <= geometry.STRUCT_TOL:
            raise JacobiViolation(f"Jacobi identity violated by {defect:g}")


def outcome(check, model):
    """(exception type, message, warning messages) of one check."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            check(model)
            result = (None, None)
        except (AntisymmetryViolation, JacobiViolation) as exc:
            result = (type(exc), str(exc))
    return result + (sorted(str(w.message) for w in seen),)


def einsum_jacobi_defect(c):
    """jacobi_defect with the two cyclic relabelings written as einsums."""
    t = np.einsum("...ijm,...mkl->...ijkl", c, c)
    cyc = t + np.einsum("...jkil->...ijkl", t) + np.einsum("...kijl->...ijkl", t)
    return np.abs(cyc).max(axis=(-4, -3, -2, -1))


class TestJacobiDefect:
    """The transposed views of jacobi_defect against the einsum relabelings,
    bit for bit, on grids that need not be antisymmetric."""

    @staticmethod
    def draw(rng, shape, scale, specials):
        """Random grids with a share of entries replaced by ``specials``."""
        c = rng.normal(size=shape + (3, 3, 3)) * scale
        mask = rng.random(c.shape) < 0.3
        return np.where(mask, rng.choice(specials, size=c.shape), c)

    @staticmethod
    def assert_same(c):
        with np.errstate(over="ignore", invalid="ignore"):
            got = geometry.jacobi_defect(geometry.StructureConstants(c))
            want = einsum_jacobi_defect(c)
        np.testing.assert_array_equal(got, want, strict=True)

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4), (1024,)])
    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
    def test_signed_zeros(self, rng, shape, scale):
        self.assert_same(self.draw(rng, shape, scale, [0.0, -0.0]))

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4), (1024,)])
    def test_non_finite(self, rng, shape):
        # inf * 0 and inf - inf give NaN, which both forms propagate alike
        for scale in (1e-150, 1.0, 1e150):
            c = self.draw(rng, shape, scale, [0.0, -0.0, np.inf, -np.inf, np.nan])
            self.assert_same(c)

    def test_a_mutated_form_fails(self, rng):
        # the comparison can see a relabeling that is not cyclic
        c = self.draw(rng, (16,), 1.0, [0.0, -0.0])
        t = np.einsum("...ijm,...mkl->...ijkl", c, c)
        swapped = np.abs(t + np.einsum("...jkil->...ijkl", t)
                         + np.einsum("...jikl->...ijkl", t)).max(axis=(-4, -3, -2, -1))
        assert not np.array_equal(geometry.jacobi_defect(geometry.StructureConstants(c)),
                                  swapped)


def einsum_levi_civita(c):
    """levi_civita with the two cyclic relabelings written as einsums."""
    return 0.5 * (c - np.einsum("...jki->...ijk", c) + np.einsum("...kij->...ijk", c))


class TestLeviCivitaViews:
    """The transposed views of levi_civita against the einsum relabelings,
    values and sign bits, on grids that need not be antisymmetric."""

    @staticmethod
    def assert_same(c, reference=einsum_levi_civita):
        with np.errstate(over="ignore", invalid="ignore"):
            got = geometry.levi_civita(geometry.StructureConstants(c))
            want = reference(c)
        np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4), (1024,)])
    @pytest.mark.parametrize("specials", [[0.0, -0.0], [0.0, -0.0, np.inf, -np.inf, np.nan]],
                             ids=["signed_zeros", "non_finite"])
    def test_einsum_relabelings(self, rng, shape, specials):
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300):
            self.assert_same(TestJacobiDefect.draw(rng, shape, scale, specials))

    def test_a_mutated_form_fails(self, rng):
        # the comparison can see a relabeling that is not cyclic
        c = TestJacobiDefect.draw(rng, (16,), 1.0, [0.0, -0.0])
        with pytest.raises(AssertionError):
            self.assert_same(c, lambda c: 0.5 * (c - np.einsum("...jik->...ijk", c)
                                                 + np.einsum("...kij->...ijk", c)))


class TestFlatDeviations:
    """The deviations of validation, each one np.maximum.reduce over a
    flattened core: the bits of the reductions over axis tuples, and the
    NaN rules of their checks, with no warning."""

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4), (1024,)])
    @pytest.mark.parametrize("core", [1, 2, 3])
    def test_max_abs(self, rng, shape, core):
        x = rng.normal(size=shape + (3,) * core)
        x = np.where(rng.random(x.shape) < 0.3,
                     rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=x.shape), x)
        axes = tuple(range(-core, 0))
        # a strided view too, as an einsum may return
        for grid in (x, np.swapaxes(x, -1, -core)):
            np.testing.assert_array_equal(frame._max_abs(grid, core),
                                          np.abs(grid).max(axis=axes), strict=True)

    @staticmethod
    def batch(value, shape):
        """value broadcast to the batch shape, as a writable copy, and a
        view of its last sample."""
        grid = np.broadcast_to(value, shape + np.shape(value)).copy()
        return grid, grid.reshape((-1,) + np.shape(value))[-1]

    @staticmethod
    def raised(check, *args):
        """The error that check raises, and no warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((AntisymmetryViolation, JacobiViolation,
                                ScenarioValidationError)) as info:
                check(*args)
        return info.value

    @staticmethod
    def only_last(exc):
        flags = np.ravel(exc.invalid_samples)
        return np.flatnonzero(flags).tolist() == [flags.size - 1]

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4)])
    def test_nan_in_c_fails(self, shape):
        c, last = self.batch(geometry.hyperbolic_model(1.0).c, shape)
        last[0, 1, 1] = np.nan
        exc = self.raised(geometry.validate, geometry.StructureConstants(c))
        assert type(exc) is AntisymmetryViolation
        assert str(exc) == "c_ijk + c_jik deviates by nan"
        assert self.only_last(exc)

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4)])
    def test_jacobi_overflow_fails(self, shape):
        c, last = self.batch(geometry.milnor(1.0, 1.0, 1.0).c, shape)
        last[...] = geometry.milnor(1e200, 1e200, 1e200).c
        exc = self.raised(geometry.validate, geometry.StructureConstants(c))
        assert type(exc) is JacobiViolation
        assert str(exc) == "structure constants overflow the float range in the Jacobi sums"
        assert self.only_last(exc)

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4)])
    def test_nan_in_contorsion_fails(self, shape):
        # the skew deviation zeta is NaN, which passes its own check, and the
        # finite check names the contorsion
        a, last = self.batch(torsion.skew(0.5).a, shape)
        last[0, 1] = np.nan
        c, _ = self.batch(geometry.heisenberg(1.0).c, shape)
        sc = residuals.SolitonScenario(geometry.StructureConstants(c), torsion.Contorsion(a),
                                       h=1.0, kappa=1.0, phi=np.zeros(shape + (3,)))
        assert np.isnan(sc.contorsion.skew_vector).any()
        assert residuals.structural_checks(sc)[-2][0].all()
        exc = self.raised(residuals.validate_scenario, sc)
        assert type(exc) is ScenarioValidationError
        assert str(exc) == "contorsion must be finite (no NaN or inf)"
        assert self.only_last(exc)

    @pytest.mark.parametrize("shape", [(), (16,), (3, 4)])
    def test_nan_in_dphi_passes(self, shape):
        # [e1, e2] = 4 (e1 + e2) and phi = (1e308, -1e308, 0): finite inputs
        # whose products in phi([e1, e2]) overflow to inf and -inf
        model = geometry.StructureConstants.from_entries([(0, 1, 0, 4.0), (0, 1, 1, 4.0)])
        c, _ = self.batch(model.c, shape)
        phi, _ = self.batch(np.array([1e308, -1e308, 0.0]), shape)
        a, _ = self.batch(torsion.skew(0.0).a, shape)
        sc = residuals.SolitonScenario(geometry.StructureConstants(c), torsion.Contorsion(a),
                                       h=1.0, kappa=1.0, phi=phi)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.einsum("...ijk,...k->...ij", c, phi)).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals.validate_scenario(sc)


class TestLeviCivita:
    def test_abelian_flat(self):
        assert np.all(geometry.levi_civita(geometry.abelian()) == 0.0)

    def test_heisenberg_koszul(self):
        lam = 1.3
        g = geometry.levi_civita(geometry.heisenberg(lam))
        assert g[0, 1, 2] == pytest.approx(lam / 2)
        assert g[0, 2, 1] == pytest.approx(-lam / 2)
        assert g[1, 2, 0] == pytest.approx(lam / 2)
        assert g[2, 0, 1] == pytest.approx(-lam / 2)
        assert g[2, 1, 0] == pytest.approx(lam / 2)

    def test_hyperbolic_koszul(self):
        a = 0.8
        g = geometry.levi_civita(geometry.hyperbolic_model(a))
        # nabla_{e2} e2 = nabla_{e3} e3 = a e1
        expected = np.zeros((3, 3, 3))
        expected[1, 1, 0] = a
        expected[1, 0, 1] = -a
        expected[2, 2, 0] = a
        expected[2, 0, 2] = -a
        np.testing.assert_allclose(g, expected, atol=1e-14)

    @pytest.mark.parametrize("model", model_corpus())
    def test_metric_compatible_and_torsion_free(self, model):
        g = geometry.levi_civita(model)
        np.testing.assert_allclose(g, -np.transpose(g, (0, 2, 1)), atol=1e-13)
        np.testing.assert_allclose(g - np.transpose(g, (1, 0, 2)), model.c, atol=1e-13)


class TestCurvature:
    def test_abelian(self):
        data = geometry.curvature(geometry.abelian(), np.zeros((3, 3, 3)))
        assert np.all(data.riemann.entries == 0.0)
        assert data.scalar == 0.0

    def test_heisenberg_ricci(self):
        model = geometry.heisenberg(1.0)
        data = geometry.curvature(model, geometry.levi_civita(model))
        np.testing.assert_allclose(data.ricci, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
        assert data.scalar == pytest.approx(-0.5)

    def test_hyperbolic_einstein(self):
        model = geometry.hyperbolic_model(1.0)
        data = geometry.curvature(model, geometry.levi_civita(model))
        np.testing.assert_allclose(data.ricci, -2.0 * np.eye(3), atol=1e-14)
        assert data.scalar == pytest.approx(-6.0)
        # constant curvature -1: operator grid is the identity
        np.testing.assert_allclose(data.riemann.entries, np.eye(3), atol=1e-14)

    def test_heisenberg_axis_parallelism(self):
        # nabla^g xi = alpha * (X x xi) for lambda = 2 alpha, xi = e3
        alpha = 0.65
        model = geometry.heisenberg(2 * alpha)
        g = geometry.levi_civita(model)
        xi = np.array([0.0, 0.0, 1.0])
        eye = np.eye(3)
        for i in range(3):
            np.testing.assert_allclose(
                g[i, 2, :], alpha * np.cross(eye[i], xi), atol=1e-14
            )

    def test_heisenberg_ricci_closed_form(self):
        # Ric = (s/2 - a^2) g + (3a^2 - s/2) xi (x) xi on the Heisenberg family
        alpha = 0.65
        model = geometry.heisenberg(2 * alpha)
        data = geometry.curvature(model, geometry.levi_civita(model))
        s = data.scalar
        expected = (0.5 * s - alpha**2) * np.eye(3)
        expected[2, 2] += 3 * alpha**2 - 0.5 * s
        np.testing.assert_allclose(data.ricci, expected, atol=1e-13)


class TestCurvatureIdentities:
    @pytest.mark.parametrize("model", model_corpus())
    def test_two_path_riemann(self, model):
        data = geometry.curvature(model, geometry.levi_civita(model))
        via = geometry.curvature_via_ricci(data.ricci, data.scalar)
        np.testing.assert_allclose(via.entries, data.riemann.entries, atol=1e-12)

    @pytest.mark.parametrize("model", model_corpus())
    def test_two_path_ricci_square(self, model):
        data = geometry.curvature(model, geometry.levi_civita(model))
        direct = frame.curv_compose(data.riemann, data.riemann)
        closed = geometry.ricci_square_identity(data.ricci, data.scalar)
        np.testing.assert_allclose(closed, direct, atol=1e-12)

    def test_random_models(self, rng):
        for _ in range(100):
            model = random_model(rng)
            data = geometry.curvature(model, geometry.levi_civita(model))
            via = geometry.curvature_via_ricci(data.ricci, data.scalar)
            scale = max(1.0, float(np.abs(data.riemann.entries).max()))
            np.testing.assert_allclose(
                via.entries, data.riemann.entries, atol=1e-12 * scale
            )
            # pair symmetry and the 3D norm identity
            k = data.riemann.entries
            np.testing.assert_allclose(k, k.T, atol=1e-12 * scale)
            norm_sq = frame.curv_norm_sq(data.riemann)
            ric_sq = float(np.sum(data.ricci * data.ricci))
            assert norm_sq == pytest.approx(
                ric_sq - data.scalar**2 / 4.0, abs=1e-10 * max(1.0, ric_sq)
            )

    def test_hyperbolic_square(self):
        out = geometry.ricci_square_identity(-2.0 * np.eye(3), -6.0)
        np.testing.assert_allclose(out, 2.0 * np.eye(3), atol=1e-14)

    def test_trace_mismatch(self):
        with pytest.raises(TraceMismatch):
            geometry.curvature_via_ricci(np.eye(3), -1.0)
        with pytest.raises(TraceMismatch):
            geometry.ricci_square_identity(np.eye(3), 7.0)


class TestMatchesPairLoops:
    """The epsilon contractions against reference loops over frame pairs,
    bit for bit (exact zeros may differ in sign)."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_operator_from_endo(self, rng, shape):
        rendo = rng.normal(size=shape + (3, 3, 3, 3))
        want = np.zeros(shape + (3, 3))
        for a, (i, j) in enumerate(PAIRS):
            want[..., a, :] = rendo[..., i, j, P, Q]
        got = geometry.operator_from_endo(rendo).entries
        np.testing.assert_array_equal(got, want)
        # a strided grid would change the summation order of curv_norm_sq
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("shape", SHAPES)
    def test_endo_from_operator(self, rng, shape):
        k = rng.normal(size=shape + (3, 3))
        want = np.zeros(shape + (3, 3, 3, 3))
        eye = np.eye(3)
        for i in range(3):
            for j in range(3):
                dual = np.cross(eye[i], eye[j]) @ k
                want[..., i, j, P, Q] = dual
                want[..., i, j, Q, P] = -dual
        got = geometry.endo_from_operator(frame.CurvatureOperator(k))
        np.testing.assert_array_equal(got, want)

    def test_curvature_via_ricci(self, rng):
        # a single scenario: random Ricci grids, non-symmetric and symmetric
        eye = np.eye(3)
        for n in range(50):
            ric = rng.normal(size=(3, 3))
            if n % 2:
                ric = ric + ric.T
            s = float(np.trace(ric))
            want = np.zeros((3, 3))
            for a, (i, j) in enumerate(PAIRS):
                want[a] = (
                    0.5 * s * np.cross(eye[i], eye[j])
                    + np.cross(eye[j], ric @ eye[i])
                    + np.cross(ric @ eye[j], eye[i])
                )
            np.testing.assert_array_equal(geometry.curvature_via_ricci(ric, s).entries, want)


@pytest.mark.parametrize("shape", [(), (16,), (3, 4), (1024,)])
def test_curvature_endo_matches_three_einsums(rng, shape):
    # reference: both quadratic terms contracted on their own, bit for bit
    for _ in range(25):
        c = rng.normal(size=shape + (3, 3, 3))
        gamma = rng.normal(size=shape + (3, 3, 3))
        want = (
            np.einsum("...jkm,...iml->...ijkl", gamma, gamma)
            - np.einsum("...ikm,...jml->...ijkl", gamma, gamma)
            - np.einsum("...ijm,...mkl->...ijkl", c, gamma)
        )
        got = geometry.curvature_endo(geometry.StructureConstants(c), gamma)
        np.testing.assert_array_equal(got, want)


def test_batched_models_match_single_models(rng):
    values = rng.normal(size=(3, 5))
    for batch, single in [
        (geometry.heisenberg(values[0]), lambda n: geometry.heisenberg(values[0, n])),
        (geometry.hyperbolic_model(values[1]), lambda n: geometry.hyperbolic_model(values[1, n])),
        (geometry.milnor(*values), lambda n: geometry.milnor(*values[:, n])),
    ]:
        assert batch.c.shape == (5, 3, 3, 3)
        for n in range(5):
            np.testing.assert_array_equal(batch.c[n], single(n).c)


def test_from_entries_and_bracket():
    model = geometry.milnor(1.0, -2.0, 0.5)

    def bracket(x, y):
        return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), model.c)

    np.testing.assert_allclose(bracket([0, 1, 0], [0, 0, 1]), [1.0, 0, 0])
    np.testing.assert_allclose(bracket([1, 0, 0], [0, 1, 0]), [0, 0, 0.5])
    assert np.all(model.ad_trace() == 0.0)  # Milnor frames are unimodular


def definition_pair(sc, gamma_g, gamma_d):
    """The two curvature_endo grids collapsed as curvature does: R^g, Ric^g,
    s_g and R^D."""
    rendo = geometry.curvature_endo(sc, gamma_g)
    ric = np.einsum("...ijki->...jk", rendo)
    rd = geometry.operator_from_endo(geometry.curvature_endo(sc, gamma_d)).entries
    return {
        "riemann": geometry.operator_from_endo(rendo).entries,
        "ricci": ric,
        "scalar": ric.trace(axis1=-2, axis2=-1),
        "curvature_D": rd,
    }


def pair_results(sc, gamma_g, gamma_d):
    data, rd = geometry.curvature_pair(sc, gamma_g, gamma_d)
    return {
        "riemann": data.riemann.entries,
        "ricci": data.ricci,
        "scalar": data.scalar,
        "curvature_D": rd.entries,
    }


def assert_same_bits(got, want):
    """Equal values, NaN where the other has NaN, and the same sign on
    every zero."""
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert a.shape == b.shape, name
        assert type(got[name]) is type(want[name]), name
        np.testing.assert_array_equal(a, b, err_msg=name)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b), err_msg=name)


class TestCurvaturePair:
    """The one-pass R^g, Ric^g, s_g and R^D against the curvature_endo
    definition, bit for bit."""

    SHAPES = [(), (16,), (300,), (1024,), (3, 4)]  # 300: a short last chunk

    @staticmethod
    def draw(rng, shape, scale, zeros=0.0):
        """A random model with its Levi-Civita connection and a torsion
        connection, a share ``zeros`` of their entries set to +0 or -0."""
        c = rng.normal(size=shape + (3, 3, 3)) * scale
        c = c - np.swapaxes(c, -3, -2)
        gamma_g = geometry.levi_civita(geometry.StructureConstants(c))
        gamma_d = gamma_g + rng.normal(size=shape + (3, 3, 3)) * scale
        arrays = []
        for a in (c, gamma_g, gamma_d):
            mask = rng.random(a.shape) < zeros
            arrays.append(np.where(mask, rng.choice([0.0, -0.0], size=a.shape), a))
        c, gamma_g, gamma_d = arrays
        return geometry.StructureConstants(c), gamma_g, gamma_d

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("scale", [1e-100, 1e-8, 1.0, 1e8, 1e100])
    def test_matches_definition(self, rng, shape, scale):
        for zeros in (0.0, 0.5, 0.9):
            sc, gamma_g, gamma_d = self.draw(rng, shape, scale, zeros)
            assert_same_bits(pair_results(sc, gamma_g, gamma_d),
                             definition_pair(sc, gamma_g, gamma_d))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero(self, shape):
        z = np.zeros(shape + (3, 3, 3))
        got = pair_results(geometry.StructureConstants(z), z, z)
        assert_same_bits(got, definition_pair(geometry.StructureConstants(z), z, z))
        for value in got.values():
            assert not np.signbit(value).any()  # +0 everywhere, as the einsums give

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflow(self, rng, shape, scale):
        # products overflow to inf and their differences to NaN, in the
        # same entries on both paths
        sc, gamma_g, gamma_d = self.draw(rng, shape, scale, zeros=0.3)
        with np.errstate(over="ignore", invalid="ignore"):
            got = pair_results(sc, gamma_g, gamma_d)
            want = definition_pair(sc, gamma_g, gamma_d)
        assert not np.isfinite(want["curvature_D"]).all()
        assert_same_bits(got, want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_c_contiguous(self, rng, shape):
        # a strided grid would change the summation order of curv_norm_sq
        # and of the Frobenius sums of Ric_0
        data, rd = geometry.curvature_pair(*self.draw(rng, shape, 1.0))
        for grid in (data.riemann.entries, data.ricci, rd.entries):
            assert grid.flags.c_contiguous

    def test_broadcast_batch(self, rng):
        # one model for a batch of torsion connections
        sc, gamma_g, _ = self.draw(rng, (), 1.0)
        gamma_d = gamma_g + rng.normal(size=(5, 3, 3, 3))
        got = pair_results(sc, gamma_g, gamma_d)
        for n in range(5):
            single = pair_results(sc, gamma_g, gamma_d[n])
            assert_same_bits({k: v[n] for k, v in got.items()}, single)

    def test_curvature_unchanged(self, rng):
        # the pair gives what curvature and torsion.curvature_D give
        sc, gamma_g, gamma_d = self.draw(rng, (16,), 1.0)
        data, rd = geometry.curvature_pair(sc, gamma_g, gamma_d)
        ref = geometry.curvature(sc, gamma_g)
        np.testing.assert_array_equal(data.riemann.entries, ref.riemann.entries)
        np.testing.assert_array_equal(data.ricci, ref.ricci)
        np.testing.assert_array_equal(data.scalar, ref.scalar)
        np.testing.assert_array_equal(rd.entries, geometry.curvature(sc, gamma_d).riemann.entries)
