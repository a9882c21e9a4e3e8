"""Seeded inputs and their expected outcomes, from the paper's closed forms.

Nothing in this module imports het3.  Every expected outcome follows from:

* the family parameter formulas of the four exact families;
* the window constraint kappa (h^2 + 12 alpha^2)^2 = 48 h^2 (hyperbolic);
* the trace identity s_g = -h^2/2, which every solution with phi = 0 obeys;
* the mutation class of a malformed document, which always means exit 2.

The workload process compares het3's outputs against these expectations and
files every wrong outcome under a reason, so that failures are counted, not
raised.  The timed inputs stay where the seed is right; the untimed probes
cover the full kappa range and every mutation, where the seed's known defects
show.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # het3's default residual tolerance; every op runs with it
REL_TWO_PATH = 1e-12  # the relative bound of the paper's two-path checks
LOG10_KAPPA = (-8, 8)  # the probes cover kappa over these decades
DECADES = tuple(range(*LOG10_KAPPA))
# The timed inputs draw kappa log-uniform over these decades only.  At seed,
# the absolute tolerance gives wrong verdicts on exact solutions below about
# kappa = 1e-4 and on perturbed ones from about 1e6 up; the timed range keeps
# a decade clear of both, so that no timed op fails.  The probes cover the
# rest of the range.
TIMED_DECADES = tuple(range(-3, 5))

HEISENBERG_GENERIC = "heisenberg-generic"
HEISENBERG_SKEW = "heisenberg-skew"
HYPERBOLIC = "hyperbolic"
BOUNDARY = "boundary"
FAMILIES = (HEISENBERG_GENERIC, HEISENBERG_SKEW, HYPERBOLIC, BOUNDARY)
SKEW_FAMILIES = frozenset({HEISENBERG_SKEW, HYPERBOLIC, BOUNDARY})

# Malformed-document mutations.  Every one must give exit 2.  The known
# input-boundary defects of the seed give exit 0 or 1, or raise out of
# cli.main: they run among the probes, so that the defect shows in every run.
# The timed pool draws only the mutations that the seed rejects.
KNOWN_DEFECT_MUTATIONS = (
    "nan_phi",
    "kappa_inf",
    "h_not_number",
    "structure_constants_not_list",
    "bool_frame_index",
    "unknown_key",
)
HANDLED_MUTATIONS = (
    "kappa_not_positive",
    "jacobi_violation",
    "missing_field",
    "invalid_json",
)
MUTATIONS = KNOWN_DEFECT_MUTATIONS + HANDLED_MUTATIONS

# An exact solution whose residual stays below this share of its term scale
# h^2 is exact up to round-off; a NOT_SOLUTION verdict on it comes from the
# absolute tolerance (the seed's scale-blind verdict at small kappa).
ROUNDOFF_SHARE = 1e-11
# A perturbed input whose relation defect times its term scale h^2 is below
# this can fall under the absolute tolerance (the same defect at large kappa).
ABS_TOL_RESIDUAL = 1e3 * TOL
# A perturbed input must break a family relation by at least this much.
MIN_RELATION_DEFECT = 1e-6

CHECK_BLOCK = (("exact", 10), ("perturbed", 5), ("nonsolution", 3), ("malformed", 2))
IDENTITY_KINDS = ("reducible", "skew_shift", "ricci", "yang_mills")
SWEEP_POINTS = 16


# --------------------------------------------------------------------------
# closed forms


def family_params(family: str, kappa: float, ks: float = 0.0, sign: int = 1) -> dict:
    """Parameters of an exact family member; ``ks`` is kappa * s_g where free."""
    if family == HEISENBERG_SKEW:
        alpha = 0.5 / math.sqrt(kappa)
        return dict(alpha=alpha, gamma=0.0, h=1.0 / math.sqrt(kappa),
                    scalar=-2.0 * alpha * alpha, param=2.0 * alpha)
    if family == HEISENBERG_GENERIC:
        s = ks / kappa
        alpha = math.sqrt(-0.5 * s)
        return dict(alpha=alpha, gamma=sign / math.sqrt(kappa) - 2.0 * alpha,
                    h=math.sqrt(-2.0 * s), scalar=s, param=2.0 * alpha)
    if family == HYPERBOLIC:
        s = ks / kappa
        h2 = -2.0 * s
        alpha = math.sqrt((math.sqrt(48.0 * h2 / kappa) - h2) / 12.0)
        return dict(alpha=alpha, gamma=0.0, h=math.sqrt(h2), scalar=s,
                    param=math.sqrt(-s / 6.0))
    if family == BOUNDARY:
        return dict(alpha=0.0, gamma=0.0, h=math.sqrt(48.0 / kappa),
                    scalar=-24.0 / kappa, param=math.sqrt(4.0 / kappa))
    raise ValueError(f"unknown family {family!r}")


def window_defect(kappa: float, h: float, alpha: float) -> float:
    """Relative defect of kappa (h^2 + 12 alpha^2)^2 = 48 h^2."""
    h2 = h * h
    return abs(kappa * (h2 + 12.0 * alpha * alpha) ** 2 - 48.0 * h2) / (48.0 * h2)


def model_rows(family: str, param: float) -> list:
    """1-based [i, j, k, value] rows of the family's model."""
    if family.startswith("heisenberg"):
        return [[1, 2, 3, param]]
    return [[1, 2, 2, param], [1, 3, 3, param]]


def rows_scalar(rows) -> float:
    """Scalar curvature of a Heisenberg, solvable-diagonal or Milnor model.

    Heisenberg [e1,e2] = l e3: s = -l^2/2.  Solvable [e1,e2] = a e2,
    [e1,e3] = b e3: s = -2(a^2 + ab + b^2).  Milnor with constants l:
    s = 2(m1 m2 + m2 m3 + m3 m1), m_i = (l1 + l2 + l3)/2 - l_i.
    """
    keys = {(i, j, k): v for i, j, k, v in rows}
    if set(keys) == {(1, 2, 3)}:
        return -0.5 * keys[(1, 2, 3)] ** 2
    if set(keys) == {(1, 2, 2), (1, 3, 3)}:
        a, b = keys[(1, 2, 2)], keys[(1, 3, 3)]
        return -2.0 * (a * a + a * b + b * b)
    l1, l3 = keys[(2, 3, 1)], keys[(1, 2, 3)]
    l2 = -keys[(1, 3, 2)]  # [e3, e1] = l2 e2 is stored as [e1, e3] = -l2 e2
    m = 0.5 * (l1 + l2 + l3) - np.array([l1, l2, l3])
    return float(2.0 * (m[0] * m[1] + m[1] * m[2] + m[2] * m[0]))


def jacobi_defect(rows) -> float:
    """Max-norm of the cyclic Jacobi sum of 1-based sparse rows."""
    c = np.zeros((3, 3, 3))
    for i, j, k, v in rows:
        c[i - 1, j - 1, k - 1] += v
        c[j - 1, i - 1, k - 1] -= v
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)
    return float(np.max(np.abs(cyc)))


def decade(kappa: float) -> str:
    return f"1e{math.floor(math.log10(kappa)):+d}"


# --------------------------------------------------------------------------
# seeded streams


class CycleStream:
    """Draws the items of a tuple in a fresh random order each round."""

    def __init__(self, rng: np.random.Generator, items):
        self.rng, self.items, self.queue = rng, tuple(items), []

    def draw(self):
        if not self.queue:
            self.queue = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.queue.pop()


class DecadeStream:
    """log-uniform kappa, stratified: each decade comes once in a round of
    draws, and each quarter of a decade once in 4 visits to that decade."""

    def __init__(self, rng: np.random.Generator, decades=TIMED_DECADES):
        self.rng = rng
        self.decades = CycleStream(rng, decades)
        self.quarters = {d: CycleStream(rng, range(4)) for d in decades}

    def draw(self) -> float:
        d = self.decades.draw()
        return float(10.0 ** (d + (self.quarters[d].draw() + self.rng.random()) / 4))


@dataclass
class CheckInput:
    cls: str  # exact | perturbed | nonsolution | malformed
    label: str  # family, model kind or mutation
    kappa: float
    expect_exit: int
    scale: float  # h^2, the size of the equations' terms
    skew: bool  # contorsion of the form alpha g: the remark identity runs
    text: str  # the document as written to disk
    defect: float = 0.0  # relative family-relation defect of a perturbed input


def exact_doc(family: str, kappa: float, rng: np.random.Generator) -> tuple[dict, dict]:
    if family == HEISENBERG_GENERIC:
        sign = int(rng.choice((1, -1)))
        while True:  # kappa s = -1/2 with sign +1 degenerates to skew torsion
            ks = -(10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0)))
            if sign < 0 or abs(ks + 0.5) > 0.05:
                break
        p = family_params(family, kappa, ks, sign)
    elif family == HYPERBOLIC:
        p = family_params(family, kappa, rng.uniform(-23.5, -0.5))
        if window_defect(kappa, p["h"], p["alpha"]) > 1e-12:
            raise RuntimeError("oracle: hyperbolic parameters off the window constraint")
    else:
        p = family_params(family, kappa)
    doc = {
        "structure_constants": model_rows(family, p["param"]),
        "contorsion": {"alpha": p["alpha"], "beta": 0.0, "gamma": p["gamma"],
                       "xi": [0.0, 0.0, 1.0]},
        "h": p["h"],
        "phi": [0.0, 0.0, 0.0],
        "kappa": kappa,
    }
    return doc, p


def family_relation_defect(family: str, doc: dict) -> float:
    """Largest relative defect of the relations an exact member obeys."""
    rows, ct, h, kappa = doc["structure_constants"], doc["contorsion"], doc["h"], doc["kappa"]
    alpha, gamma = ct["alpha"], ct["gamma"]
    s = rows_scalar(rows)
    defects = [abs(s + 0.5 * h * h) / abs(s)]  # trace identity with phi = 0
    if family.startswith("heisenberg"):
        lam = rows[0][3]
        defects.append(abs(lam - 2.0 * alpha) / abs(lam))
        defects.append(abs(kappa * (2.0 * alpha + gamma) ** 2 - 1.0))
    if family == HYPERBOLIC:
        defects.append(window_defect(kappa, h, alpha))
    return max(defects)


def perturb(family: str, doc: dict, rng: np.random.Generator) -> tuple[dict, float]:
    """1% relative change of h, alpha or a structure constant, and its defect."""
    doc = copy.deepcopy(doc)
    targets = ["h", "structure_constant"] + (["alpha"] if doc["contorsion"]["alpha"] else [])
    target = targets[int(rng.integers(len(targets)))]
    if target == "h":
        doc["h"] *= 1.01
    elif target == "alpha":
        doc["contorsion"]["alpha"] *= 1.01
    else:
        doc["structure_constants"][0][3] *= 1.01
    defect = family_relation_defect(family, doc)
    if defect < MIN_RELATION_DEFECT:
        raise RuntimeError("oracle: perturbation left the family relations intact")
    return doc, defect


def nonsolution_doc(kappa: float, rng: np.random.Generator) -> tuple[dict, str, float]:
    """A valid non-solution: Milnor or solvable model, symmetric contorsion.

    Certificate: with phi = 0, tr(Einstein) - 2 dilaton = s_g + h^2/2, so the
    largest reported norm is at least |s_g + h^2/2| / 4.
    """
    while True:
        if rng.random() < 0.5:
            l1, l2, l3 = rng.normal(scale=1.5, size=3)
            rows, kind = [[2, 3, 1, l1], [1, 3, 2, -l2], [1, 2, 3, l3]], "milnor"
        else:
            a, b = rng.normal(scale=1.5, size=2)
            rows, kind = [[1, 2, 2, a], [1, 3, 3, b]], "solvable"
        rows = [[i, j, k, float(v)] for i, j, k, v in rows]
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        s = rows_scalar(rows)
        h = float(rng.uniform(0.5, 3.0))
        gap = abs(s + 0.5 * h * h)
        traceless = m - np.trace(m) / 3.0 * np.eye(3)
        if gap / 4.0 > 1e3 * TOL and np.max(np.abs(traceless)) > 0.1:
            break
    doc = {
        "structure_constants": rows,
        "contorsion": {"matrix": m.tolist()},
        "h": h,
        "phi": [0.0, 0.0, 0.0],
        "kappa": kappa,
    }
    return doc, kind, h * h


def mutate(doc: dict, mutation: str) -> str:
    """The text of a malformed document; each mutation must give exit 2."""
    doc = copy.deepcopy(doc)
    if mutation == "nan_phi":
        doc["phi"] = [float("nan"), 0.0, 0.0]
    elif mutation == "kappa_inf":
        doc["kappa"] = float("inf")
    elif mutation == "h_not_number":
        doc["h"] = "abc"
    elif mutation == "structure_constants_not_list":
        doc["structure_constants"] = 5
    elif mutation == "bool_frame_index":
        doc["structure_constants"][0][0] = True
    elif mutation == "unknown_key":
        doc["Phi"] = [0.0, 0.0, 1.0]
    elif mutation == "kappa_not_positive":
        doc["kappa"] = -doc["kappa"]
    elif mutation == "jacobi_violation":
        doc["structure_constants"] = [[1, 2, 3, 1.0], [1, 3, 1, 1.0]]
        if jacobi_defect(doc["structure_constants"]) < 0.5:
            raise RuntimeError("oracle: Jacobi mutation satisfies Jacobi")
    elif mutation == "missing_field":
        del doc["h"]
    elif mutation == "invalid_json":
        return json.dumps(doc)[:-1]
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    return json.dumps(doc)


def check_input(cls: str, kappa: float, rng: np.random.Generator,
                family: str = "", mutation: str = "") -> CheckInput:
    """One input of a class; a mutation is applied to an exact ``family`` member."""
    if cls == "nonsolution":
        doc, kind, scale = nonsolution_doc(kappa, rng)
        return CheckInput(cls, kind, kappa, 1, scale, False, json.dumps(doc))
    doc, p = exact_doc(family, kappa, rng)
    skew = family in SKEW_FAMILIES
    scale = p["h"] ** 2
    if cls == "exact":
        return CheckInput(cls, family, kappa, 0, scale, skew, json.dumps(doc))
    if cls == "perturbed":
        bad, defect = perturb(family, doc, rng)
        return CheckInput(cls, family, kappa, 1, scale, skew, json.dumps(bad), defect)
    return CheckInput(cls, mutation, kappa, 2, scale, skew, mutate(doc, mutation))


def check_pool(seed: int, blocks: int = 80) -> list[CheckInput]:
    """Blocks of 20 timed inputs in the check mix, kappa stratified by decade."""
    rng = np.random.default_rng([seed, 1])
    kappas = {cls: DecadeStream(rng) for cls, _ in CHECK_BLOCK}
    families = CycleStream(rng, FAMILIES)
    mutations = CycleStream(rng, HANDLED_MUTATIONS)
    pool: list[CheckInput] = []
    for _ in range(blocks):
        block = []
        for cls, count in CHECK_BLOCK:
            for _ in range(count):
                kappa = kappas[cls].draw()
                if cls == "nonsolution":
                    block.append(check_input(cls, kappa, rng))
                else:
                    mutation = mutations.draw() if cls == "malformed" else ""
                    block.append(check_input(cls, kappa, rng, families.draw(), mutation))
        pool += [block[i] for i in rng.permutation(len(block))]
    return pool


def check_probes(seed: int) -> list[CheckInput]:
    """Untimed inputs over the full kappa range and every mutation.

    An exact and a perturbed member of each family in each decade of
    [1e-8, 1e8], and each mutation once: the inputs behind the seed's known
    defects, which the timed pool leaves out.
    """
    rng = np.random.default_rng([seed, 4])
    probes = [
        check_input(cls, float(10.0 ** (d + rng.random())), rng, family)
        for d in DECADES for family in FAMILIES for cls in ("exact", "perturbed")
    ]
    for n, mutation in enumerate(MUTATIONS):
        kappa = float(10.0 ** rng.uniform(*LOG10_KAPPA))
        probes.append(check_input("malformed", kappa, rng, FAMILIES[n % 4], mutation))
    return probes


def judge_check(inp: CheckInput, code, exc, stdout: str) -> str:
    """'ok', 'known:<defect>' or 'wrong:<what>' for one check op."""
    if exc is not None:
        wrong = f"wrong:exception:{type(exc).__name__}"
    elif code != inp.expect_exit:
        wrong = f"wrong:exit_{code}"
    elif code == 2:
        return "ok"
    else:
        try:
            report = json.loads(stdout)
            verdict = report["verdict"]
        except (ValueError, KeyError, TypeError):
            return "wrong:report_unreadable"
        expected = "SOLUTION" if code == 0 else "NOT_SOLUTION"
        if verdict != expected:
            return f"wrong:verdict_{verdict}"
        if report["residuals"]["remark_identity"] is None and inp.skew:
            return "wrong:remark_identity_missing"
        return "ok"
    if inp.cls == "malformed" and inp.label in KNOWN_DEFECT_MUTATIONS:
        return f"known:input_boundary:{inp.label}"
    if inp.cls == "exact" and code == 1 and exc is None:
        try:
            worst = max(json.loads(stdout)["norms"].values())
        except (ValueError, KeyError, TypeError):
            return "wrong:report_unreadable"
        if worst <= ROUNDOFF_SHARE * inp.scale:
            return "known:absolute_tolerance:small_kappa"
    if inp.cls == "perturbed" and code == 0 and inp.defect * inp.scale <= ABS_TOL_RESIDUAL:
        return "known:absolute_tolerance:large_kappa"
    return wrong


@dataclass
class SweepInput:
    kappa: float
    s_range: tuple | None  # (s_min, s_max) past the window, or None

    @property
    def argv(self) -> list:
        argv = ["sweep", "--kappa", repr(self.kappa), "--points", str(SWEEP_POINTS)]
        if self.s_range is not None:
            # "--s-min=-3e-05": argparse takes a separate "-3e-05" for an option
            argv += [f"--s-min={self.s_range[0]!r}", f"--s-max={self.s_range[1]!r}"]
        return argv

    def grid(self) -> list[float]:
        """The s_g samples the sweep must report, in order."""
        if self.s_range is None:  # interior of the open window (-24/kappa, 0)
            low = -24.0 / self.kappa
            step = (0.0 - low) / (SWEEP_POINTS + 1)
            return [low + (i + 1) * step for i in range(SWEEP_POINTS)]
        return [float(s) for s in np.linspace(*self.s_range, SWEEP_POINTS)]


def past_window(kappa: float) -> tuple:
    return (-30.0 / kappa, 2.0 / kappa)


def sweep_pool(seed: int, size: int = 256) -> list[SweepInput]:
    """Timed sweeps, kappa stratified by decade; one in four runs past the window."""
    rng = np.random.default_rng([seed, 2])
    kappas = DecadeStream(rng)
    past = CycleStream(rng, (True, False, False, False))
    pool = []
    for _ in range(size):
        kappa = kappas.draw()
        pool.append(SweepInput(kappa, past_window(kappa) if past.draw() else None))
    return pool


def sweep_probes(seed: int) -> list[SweepInput]:
    """Untimed sweeps, one in each decade of [1e-8, 1e8], every other one past
    the window: the seed's small-kappa defect shows on them."""
    rng = np.random.default_rng([seed, 5])
    probes = []
    for n, d in enumerate(DECADES):
        kappa = float(10.0 ** (d + rng.random()))
        probes.append(SweepInput(kappa, past_window(kappa) if n % 2 else None))
    return probes


def _close(text: str, value: float) -> bool:
    return text != "" and abs(float(text) - value) <= 1e-10 * abs(value)


def judge_sweep(inp: SweepInput, code, exc, stdout: str) -> str:
    """'ok', 'known:<defect>' or 'wrong:<what>' for one sweep op."""
    if exc is not None:
        return f"wrong:exception:{type(exc).__name__}"
    if code != 0:
        return f"wrong:exit_{code}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != SWEEP_POINTS + 1 or rows[0][0] != "s_g":
        return "wrong:csv_shape"
    outcome = "ok"
    for (s_txt, ks_txt, a_txt, h_txt, res_txt, verdict), s in zip(rows[1:], inp.grid()):
        ks = inp.kappa * s
        if not (_close(s_txt, s) and _close(ks_txt, ks)):
            return "wrong:sample_grid"
        if not -24.0 < ks < 0.0:
            if verdict != "OUT_OF_WINDOW" or a_txt or h_txt or res_txt:
                return "wrong:out_of_window_row"
            continue
        h2 = -2.0 * s
        alpha = math.sqrt((math.sqrt(48.0 * h2 / inp.kappa) - h2) / 12.0)
        if not (_close(a_txt, alpha) and _close(h_txt, math.sqrt(h2))):
            return "wrong:family_parameters"
        if verdict == "SOLUTION":
            continue
        if verdict != "NOT_SOLUTION" or float(res_txt) > ROUNDOFF_SHARE * h2:
            return f"wrong:verdict_{verdict}"
        outcome = "known:absolute_tolerance:small_kappa"
    return outcome


def identity_pool(seed: int, size: int = 1000) -> list[tuple]:
    """Draws of the paper's two-path checks, the way the AC5 gate draws them."""
    rng = np.random.default_rng([seed, 3])
    kinds = CycleStream(rng, IDENTITY_KINDS)

    def model():
        if rng.random() < 0.5:
            return ("milnor", *(float(v) for v in rng.normal(scale=1.5, size=3)))
        return ("solvable", float(rng.normal(scale=1.5)))

    pool = []
    for _ in range(size):
        kind = kinds.draw()
        if kind == "reducible":
            pool.append((kind, float(rng.uniform(0.05, 2.0)), float(rng.uniform(-3.0, 3.0))))
        elif kind == "ricci":
            pool.append((kind, model()))
        else:
            pool.append((kind, model(), float(rng.normal())))
    return pool


def close_two_path(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.max(np.abs(a - b)) <= REL_TWO_PATH * max(1.0, float(np.abs(a).max())))
