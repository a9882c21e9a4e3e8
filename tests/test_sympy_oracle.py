"""A symbolic oracle for the paper's closed forms.

The definitions that the module docstrings state are written out here in
sympy, without calling het3:

* the Koszul formula 2 gamma_ijk = c_ijk - c_jki + c_kij (geometry);
* the endomorphism components R[i,j,k,l] = <R_{e_i,e_j} e_k, e_l> of
  R_{X,Y} = D_X D_Y - D_Y D_X - D_[X,Y] (geometry.curvature_endo), the Ricci
  contraction Ric(Y, Z) = sum_i <R_{e_i,Y} Z, e_i>, and the collapse onto the
  cyclic pairs K[a, b] = R[P_a, Q_a, P_b, Q_b] (geometry.operator_from_endo);
* the contorsion coefficients <e_j x A(e_i), e_k> (torsion);
* the loop of frame.curv_compose, (R1 o_g R2)(e_p, e_q) =
  sum_i <(e_p x e_i) K1, (e_q x e_i) K2>, and |R|^2 = tr(R o_g R)/2.

From them each closed form is derived with symbolic parameters, and the
difference must simplify to 0.  At five rational points het3's value must
then match the sympy expression to 1e-12 relative.
"""

import functools

import numpy as np
import pytest

from het3 import constructors, frame, geometry, residuals, torsion

sp = pytest.importorskip("sympy")

P, Q = (1, 2, 0), (2, 0, 1)  # *e_a = e_P[a] ^ e_Q[a]
E = sp.eye(3)
XI = E[:, 2]  # the axis e3
REL = 1e-12


def structure(entries):
    """c[i, j, k] of [e_i, e_j] = sum_k c_ijk e_k, from (i, j, k, value)."""
    c = sp.MutableDenseNDimArray.zeros(3, 3, 3)
    for i, j, k, v in entries:
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


def koszul(c):
    return sp.ImmutableDenseNDimArray(
        [[[(c[i, j, k] - c[j, k, i] + c[k, i, j]) / 2 for k in range(3)]
          for j in range(3)] for i in range(3)]
    )


def contorsion(a):
    """<e_j x A(e_i), e_k>, with A(e_i) the row i of A."""
    return sp.ImmutableDenseNDimArray(
        [[[E[:, j].cross(a[i, :].T).dot(E[:, k]) for k in range(3)]
          for j in range(3)] for i in range(3)]
    )


def endo(c, gamma):
    """<R_{e_i,e_j} e_k, e_l>, with D_{e_j} e_k = sum_m gamma_jkm e_m."""
    def r(i, j, k, l):
        return sum(
            gamma[j, k, m] * gamma[i, m, l] - gamma[i, k, m] * gamma[j, m, l]
            - c[i, j, m] * gamma[m, k, l]
            for m in range(3)
        )
    return {(i, j, k, l): r(i, j, k, l)
            for i in range(3) for j in range(3) for k in range(3) for l in range(3)}


def collapse(rendo):
    return sp.Matrix(3, 3, lambda a, b: rendo[P[a], Q[a], P[b], Q[b]])


def ricci(rendo):
    return sp.Matrix(3, 3, lambda j, k: sum(rendo[i, j, k, i] for i in range(3)))


def compose(k1, k2):
    def entry(p, q):
        return sum(
            (E[:, p].cross(E[:, i]).T * k1).dot(E[:, q].cross(E[:, i]).T * k2)
            for i in range(3)
        )
    return sp.Matrix(3, 3, entry)


def geometry_of(c, a):
    """R^g as a grid, Ric^g, s_g and R^D of the model c with contorsion a."""
    gamma_g = koszul(c)
    gamma_d = gamma_g + contorsion(a)
    rg = endo(c, gamma_g)
    ric = ricci(rg)
    return collapse(rg), ric, ric.trace(), collapse(endo(c, gamma_d))


def assert_zero(expr):
    assert sp.simplify(sp.expand(expr)) == sp.zeros(*expr.shape)


def assert_matches(got, expr, subs):
    """het3's value against the exact sympy value at a rational point."""
    want = np.array(sp.Matrix(expr).subs(subs).evalf(30).tolist(), dtype=float)
    got = np.asarray(got, dtype=float).reshape(want.shape)
    assert np.abs(got - want).max() <= REL * np.abs(want).max()


def scenario(model, ct):
    """Curvature only: no equation is evaluated, so h and kappa are nominal."""
    return residuals.SolitonScenario(model=model, contorsion=ct, h=1.0, kappa=1.0)


R = sp.Rational
alpha, gamma, a = sp.symbols("alpha gamma a", real=True)
l1, l2, l3 = sp.symbols("l1 l2 l3", real=True)


@functools.cache
def heisenberg_forms():
    """A = alpha g + gamma xi (x) xi on [e1, e2] = lambda e3, lambda = 2 alpha:
    R^D by definition, then the two closed forms, and s_g."""
    c = structure([(0, 1, 2, 2 * alpha)])
    k_g, ric, s, k_d = geometry_of(c, alpha * E + gamma * XI * XI.T)
    closed = k_g + alpha**2 * E + 2 * alpha * gamma * XI * XI.T
    rara = (3 * alpha**2 - s / 2 + 2 * alpha * gamma) ** 2 * (E - XI * XI.T)
    return k_d, closed, rara, s


HEISENBERG_POINTS = [(R(1, 2), R(1, 3)), (R(3, 4), R(-1, 5)), (R(2, 3), R(2)),
                     (R(5, 4), R(-3, 7)), (R(7, 3), R(1, 2))]


def heisenberg_scenario(al, ga):
    params = torsion.ReducibleTorsionParams(
        alpha=float(al), beta=0.0, gamma=float(ga), xi=[0.0, 0.0, 1.0])
    return scenario(geometry.heisenberg(float(2 * al)), torsion.build_reducible(params))


class TestHeisenbergReducible:
    def test_reducible_curvature_closed_form(self):
        k_d, closed, _, _ = heisenberg_forms()
        assert_zero(k_d - closed)
        for al, ga in HEISENBERG_POINTS:
            subs = {alpha: al, gamma: ga}
            sc = heisenberg_scenario(al, ga)
            assert_matches(sc.curvature_D.entries, k_d, subs)
            got = torsion.reducible_curvature_closed_form(
                sc.curvature_g.riemann, float(al), float(ga), [0.0, 0.0, 1.0])
            assert_matches(got.entries, closed, subs)

    def test_rara_closed_form(self):
        k_d, _, rara, s = heisenberg_forms()
        assert sp.expand(s + 2 * alpha**2) == 0  # s = -lambda^2/2
        assert_zero(compose(k_d, k_d) - rara)
        for al, ga in HEISENBERG_POINTS:
            subs = {alpha: al, gamma: ga}
            sc = heisenberg_scenario(al, ga)
            got = torsion.rara_closed_form(
                float(al), float(ga), float(sc.curvature_g.scalar), [0.0, 0.0, 1.0])
            assert_matches(got, rara, subs)
            assert_matches(frame.curv_compose(sc.curvature_D, sc.curvature_D), rara, subs)


def skew_rr(ric, s):
    """torsion.skew_rr_closed_form's right-hand side."""
    ric_sq = (ric.T * ric).trace()
    return -ric * ric + (s - 2 * alpha**2) * ric + (ric_sq - s**2 / 2 + 2 * alpha**4) * E


def ricci_square(ric, s):
    """geometry.ricci_square_identity's right-hand side."""
    return -ric * ric + s * ric + ((ric.T * ric).trace() - s**2 / 2) * E


# (symbolic model, het3 model, five rational points of its parameters and alpha)
MODELS = {
    "milnor": (
        structure([(1, 2, 0, l1), (2, 0, 1, l2), (0, 1, 2, l3)]),
        lambda p: geometry.milnor(*map(float, p)),
        (l1, l2, l3),
        [(R(1), R(1), R(1), R(1, 2)), (R(1), R(-2), R(1, 2), R(3, 4)),
         (R(0), R(3), R(-1), R(-2, 3)), (R(3, 2), R(5, 7), R(-1, 3), R(2)),
         (R(-2), R(1, 4), R(5, 3), R(1, 5))],
    ),
    "hyperbolic": (
        structure([(0, 1, 1, a), (0, 2, 2, a)]),
        lambda p: geometry.hyperbolic_model(float(p[0])),
        (a,),
        [(R(1), R(1, 2)), (R(1, 3), R(3, 4)), (R(7, 5), R(-2, 3)),
         (R(2), R(1, 5)), (R(5, 8), R(3))],
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
class TestSkewClosedForms:
    """A = alpha g on Milnor's unimodular models and on the hyperbolic one."""

    def test_skew_rr_and_ricci_square(self, name):
        c, het3_model, params, points = MODELS[name]
        k_g, ric, s, k_d = geometry_of(c, alpha * E)
        assert_zero(compose(k_d, k_d) - skew_rr(ric, s))
        assert_zero(compose(k_g, k_g) - ricci_square(ric, s))
        for point in points:
            subs = dict(zip(params + (alpha,), point))
            al = float(point[-1])
            sc = scenario(het3_model(point[:-1]), torsion.skew(al))
            data = sc.curvature_g
            assert_matches(data.ricci, ric, subs)
            assert_matches(torsion.skew_rr_closed_form(data.ricci, float(data.scalar), al),
                           skew_rr(ric, s), subs)
            assert_matches(frame.curv_compose(sc.curvature_D, sc.curvature_D),
                           skew_rr(ric, s), subs)
            assert_matches(geometry.ricci_square_identity(data.ricci, float(data.scalar)),
                           ricci_square(ric, s), subs)


class TestHyperbolicSoliton:
    """The Einstein and dilaton equations on [e1, e_k] = a e_k (k = 2, 3),
    with A = alpha g and phi = 0, give h^2 = -2 s, a^2 = -s/6 and the window
    constraint kappa (h^2 + 12 alpha^2)^2 = 48 h^2."""

    def test_relations(self):
        h, kappa, pos_a = sp.symbols("h kappa a", positive=True)
        s = sp.Symbol("s", negative=True)
        c = structure([(0, 1, 1, pos_a), (0, 2, 2, pos_a)])
        _, ric, scalar, k_d = geometry_of(c, alpha * E)
        square = compose(k_d, k_d)
        einstein = ric - h**2 / 2 * E + kappa * square
        dilaton = -h**2 + kappa * square.trace() / 2
        # Einstein is one scalar equation: its grid is a multiple of g
        assert_zero(einstein - einstein[0, 0] * E)
        # a^2 = -s/6 is the scalar curvature of the model
        (a_sol,) = sp.solve(scalar - s, pos_a)
        assert sp.simplify(a_sol**2 + s / 6) == 0
        # the dilaton gives kappa, and Einstein then h^2 = 12 a^2 = -2 s
        (kappa_sol,) = sp.solve(dilaton, kappa)
        (h_sol,) = sp.solve(sp.together(einstein[0, 0].subs(kappa, kappa_sol)), h)
        assert sp.simplify(h_sol**2 - 12 * pos_a**2) == 0
        assert sp.simplify(h_sol.subs(pos_a, a_sol) ** 2 + 2 * s) == 0
        # the dilaton at h^2 = 12 a^2 is the window constraint over 48
        window = kappa * (h**2 + 12 * alpha**2) ** 2 - 48 * h**2
        assert sp.expand(48 * dilaton.subs(pos_a, h / sp.sqrt(12)) - window) == 0
        # and its positive root alpha^2 is the constructor's formula
        alpha_sq = (sp.sqrt(48 * h**2 / kappa) - h**2) / 12
        assert sp.simplify(window.subs(alpha, sp.sqrt(alpha_sq))) == 0

        # het3's constructor at rational kappa and kappa s_g in the window
        for k, ks in [(R(1), R(-6)), (R(1, 2), R(-1, 2)), (R(3), R(-20)),
                      (R(2, 7), R(-23, 2)), (R(5, 3), R(-3, 4))]:
            scal = ks / k
            built = constructors.construct_hyperbolic_skew(float(k), float(scal))
            subs = {h: sp.sqrt(-2 * scal), kappa: k}
            assert_matches(built.h**2, sp.Matrix([-2 * scal]), {})
            assert_matches(built.model_parameter**2, sp.Matrix([-scal / 6]), {})
            assert_matches(built.alpha**2, sp.Matrix([alpha_sq.subs(subs)]), {})
