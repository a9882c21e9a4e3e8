"""One benchmark workload in a fresh process; started by run.py.

Prints one JSON line with the raw measurements.  With ``--probe`` it only
reports the time to import het3 (with numpy), which is het3's whole set-up:
the package needs no warm-up call.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import het3  # noqa: E402
import het3.cli  # noqa: E402

SETUP_S = time.perf_counter() - _START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from het3 import constructors, frame, geometry, residuals, torsion  # noqa: E402

AXIS = np.array([0.0, 0.0, 1.0])
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
WARMUP_S = 0.5  # untimed ops first, so that lazy set-up in numpy is done


def run_cli(argv):
    """het3.cli.main in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = het3.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception as error:  # an uncaught exception is a counted failure
        exc = error
    return time.perf_counter_ns() - start, code, exc, out.getvalue()


def model(spec):
    if spec[0] == "milnor":
        return geometry.milnor(*spec[1:])
    return geometry.hyperbolic_model(spec[1])


def two_path(draw) -> bool:
    """Both sides of one of the paper's two-path checks agree to 1e-12."""
    close = oracle.close_two_path
    kind = draw[0]
    if kind == "reducible":
        _, alpha, gamma = draw
        m = geometry.heisenberg(2.0 * alpha)
        ct = torsion.build_reducible(
            torsion.ReducibleTorsionParams(alpha=alpha, beta=0.0, gamma=gamma, xi=AXIS)
        )
        r = torsion.curvature_D(m, torsion.connection_with_torsion(m, ct))
        base = geometry.curvature(m, geometry.levi_civita(m))
        closed = torsion.reducible_curvature_closed_form(base.riemann, alpha, gamma, AXIS)
        return close(r.entries, closed.entries) & close(
            frame.curv_compose(r, r), torsion.rara_closed_form(alpha, gamma, base.scalar, AXIS)
        )
    if kind == "skew_shift":
        _, spec, alpha = draw
        m = model(spec)
        r = torsion.curvature_D(m, torsion.connection_with_torsion(m, torsion.skew(alpha)))
        data = geometry.curvature(m, geometry.levi_civita(m))
        return close(r.entries, data.riemann.entries + alpha**2 * np.eye(3)) & close(
            frame.curv_compose(r, r), torsion.skew_rr_closed_form(data.ricci, data.scalar, alpha)
        )
    if kind == "ricci":
        m = model(draw[1])
        data = geometry.curvature(m, geometry.levi_civita(m))
        via = geometry.curvature_via_ricci(data.ricci, data.scalar)
        return close(via.entries, data.riemann.entries) & close(
            geometry.ricci_square_identity(data.ricci, data.scalar),
            frame.curv_compose(data.riemann, data.riemann),
        )
    _, spec, alpha = draw
    sc = residuals.SolitonScenario(
        model=model(spec), contorsion=torsion.skew(alpha), h=1.0, kappa=1.0
    )
    return close(residuals.yang_mills_residual(sc), residuals.yang_mills_skew_path(sc))


class Workload:
    """A pool of seeded inputs and the op that runs and judges one of them."""

    unit = "op"

    def close(self) -> None:
        pass

    def run_probes(self) -> list:
        """(outcome, label, decade) of each untimed probe."""
        return []

    def skew_report_ops(self, ops) -> set:
        return set()


class Check(Workload):
    unit = "check"

    def __init__(self, seed: int):
        self.pool = oracle.check_pool(seed)
        self.probes = oracle.check_probes(seed)
        self.dir = os.path.join(ROOT, ".bench_out", f"inputs-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.paths = self.write(self.pool, "pool")
        self.probe_paths = self.write(self.probes, "probe")

    def write(self, inputs, prefix: str) -> list:
        paths = []
        for n, inp in enumerate(inputs):
            path = os.path.join(self.dir, f"{prefix}-{n:04d}.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(inp.text)
            paths.append(path)
        return paths

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    @staticmethod
    def check(inp, path: str):
        ns, code, exc, out = run_cli(["check", path, "--json"])
        label = inp.cls if inp.cls == "nonsolution" else f"{inp.cls}/{inp.label}"
        return ns, 1, oracle.judge_check(inp, code, exc, out), label, oracle.decade(inp.kappa)

    def run(self, n: int):
        return self.check(self.pool[n], self.paths[n])

    def run_probes(self) -> list:
        return [self.check(inp, path)[2:] for inp, path in zip(self.probes, self.probe_paths)]

    def skew_report_ops(self, ops) -> set:
        """Ops on skew-family inputs that reach a full report."""
        return {
            op for op in ops
            if self.pool[op % len(self.pool)].cls in ("exact", "perturbed")
            and self.pool[op % len(self.pool)].skew
        }


class Sweep(Workload):
    unit = "sweep row"

    def __init__(self, seed: int):
        self.pool = oracle.sweep_pool(seed)
        self.probes = oracle.sweep_probes(seed)

    @staticmethod
    def sweep(inp):
        ns, code, exc, out = run_cli(inp.argv)
        outcome = oracle.judge_sweep(inp, code, exc, out)
        label = "sweep/past_window" if inp.s_range else "sweep/interior"
        return ns, oracle.SWEEP_POINTS, outcome, label, oracle.decade(inp.kappa)

    def run(self, n: int):
        return self.sweep(self.pool[n])

    def run_probes(self) -> list:
        return [self.sweep(inp)[2:] for inp in self.probes]

    def skew_report_ops(self, ops) -> set:
        return set(ops)  # every in-window row is a hyperbolic skew scenario


class Identities(Workload):
    unit = "identity draw"

    def __init__(self, seed: int):
        self.pool = oracle.identity_pool(seed)

    def run(self, n: int):
        draw = self.pool[n]
        start = time.perf_counter_ns()
        try:
            outcome = "ok" if two_path(draw) else f"wrong:two_path:{draw[0]}"
        except Exception as error:  # counted, not raised
            outcome = f"wrong:exception:{type(error).__name__}"
        return time.perf_counter_ns() - start, 1, outcome, draw[0], "-"


WORKLOADS = {"check": Check, "sweep": Sweep, "identities": Identities}

# Times are calibrated against a fixed reference kernel, timed at both ends of
# every slice of ops, because this class of shared 2-vCPU host drifts by
# +-25% in speed over a few seconds.  An op's reported time is its wall time
# divided by the kernel's in the same slice, times REF_MS, the kernel's median
# on the machine where the benchmark was defined (Intel Xeon, 2 vCPUs, idle).
REF_MS = 0.55
SLICE_S = 0.1
_REF_GRID = np.arange(9.0).reshape(3, 3) / 7.0


def reference_ns(reps: int = 3) -> int:
    """Median wall time of the reference kernel: interpreter and numpy calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        x = 0.0
        for i in range(150):
            x += (i * 0.5) ** 2
        for i in range(15):
            x += float((np.cross(_REF_GRID[i % 3], _REF_GRID[(i + 1) % 3]) @ _REF_GRID)[0])
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[reps // 2]


def run_phase(work, seconds: float, step=None) -> dict:
    """Closed loop, one caller: the next op starts when the last one ends.

    ``step(op)`` runs one op and returns what ``work.run`` returns; it
    defaults to ``work.run`` over the pool in order.
    """
    size = len(work.pool)
    step = step or (lambda op: work.run(op % size))
    wall, scale, units, outcomes = [], [], 0, Counter()
    table = defaultdict(lambda: [0, 0])  # (axis, key) -> [attempted, failed]
    deadline = time.perf_counter() + seconds
    ref = reference_ns()
    op = 0
    while time.perf_counter() < deadline or op < MIN_OPS:
        slice_end, first = time.perf_counter() + SLICE_S, op
        while time.perf_counter() < slice_end:
            ns, done, outcome, label, dec = step(op)
            wall.append(ns)
            units += done
            outcomes[outcome] += 1
            failed = outcome != "ok"
            for key in (("class", label), ("kappa_decade", dec)):
                table[key][0] += 1
                table[key][1] += failed
            op += 1
        after = reference_ns()
        scale += [REF_MS * 1e6 / ((ref + after) / 2)] * (op - first)
        ref = after
    calibrated = sorted(ns * k for ns, k in zip(wall, scale))
    breakdown = defaultdict(dict)
    for (axis, key), (attempted, failed) in sorted(table.items()):
        breakdown[axis][key] = {"attempted": attempted, "failed": failed}
    return {
        "ops": op,
        "units": units,
        "busy_s": sum(calibrated) / 1e9,
        "p50_ms": statistics.median(calibrated) / 1e6,
        "p90_ms": statistics.quantiles(calibrated, n=10, method="inclusive")[8] / 1e6,
        "wall_p50_ms": statistics.median(wall) / 1e6,
        "scale": scale,
        "failed": op - outcomes["ok"],
        "unexpected": sum(n for o, n in outcomes.items() if o.startswith("wrong")),
        "outcomes": dict(sorted(outcomes.items())),
        "breakdown": breakdown,
    }


def probe_summary(probes: list) -> dict:
    """Outcome counts of the probes, and each failure by class and decade."""
    outcomes, failures = Counter(), defaultdict(Counter)
    for outcome, label, dec in probes:
        outcomes[outcome] += 1
        if outcome != "ok":
            failures[outcome][f"{label} {dec}"] += 1
    return {
        "attempted": len(probes),
        "known": sum(n for o, n in outcomes.items() if o.startswith("known")),
        "unexpected": sum(n for o, n in outcomes.items() if o.startswith("wrong")),
        "outcomes": dict(sorted(outcomes.items())),
        "failures": {o: dict(sorted(c.items())) for o, c in sorted(failures.items())},
    }


def self_check() -> list[str]:
    """The oracle's closed forms agree with het3 at kappa = 1."""
    problems = []
    cases = [
        (oracle.HEISENBERG_GENERIC, -2.0, 1, constructors.construct_generic_reducible(1.0, -2.0, 1)),
        (oracle.HEISENBERG_GENERIC, -2.0, -1, constructors.construct_generic_reducible(1.0, -2.0, -1)),
        (oracle.HEISENBERG_SKEW, 0.0, 1, constructors.construct_skew_heisenberg(1.0)),
        (oracle.HYPERBOLIC, -6.0, 1, constructors.construct_hyperbolic_skew(1.0, -6.0)),
        (oracle.BOUNDARY, 0.0, 1, constructors.boundary_vanishing_torsion(1.0)),
    ]
    for family, ks, sign, built in cases:
        p = oracle.family_params(family, 1.0, ks, sign)
        theirs = dict(alpha=built.alpha, gamma=built.gamma, h=built.h,
                      scalar=built.scalar, param=built.model_parameter)
        for key, value in theirs.items():
            if abs(p[key] - value) > 1e-12 * max(1.0, abs(value)):
                problems.append(f"{family}.{key}: oracle {p[key]!r} vs het3 {value!r}")
    rng = np.random.default_rng(0)
    for _ in range(8):
        rows = oracle.nonsolution_doc(1.0, rng)[0]["structure_constants"]
        m = geometry.StructureConstants.from_entries(
            [(i - 1, j - 1, k - 1, v) for i, j, k, v in rows])
        s = geometry.curvature(m, geometry.levi_civita(m)).scalar
        if abs(oracle.rows_scalar(rows) - s) > 1e-12 * max(1.0, abs(s)):
            problems.append(f"scalar curvature of {rows}: oracle vs het3 {s!r}")
    return problems


def traced(work, seconds: float, workload: str) -> dict:
    """Each input runs untraced and then traced, back to back.

    Adjacent pairs see the same machine state, so the difference of their
    medians is the tracing overhead.
    """
    tracer = tracing.Tracer(het3)
    plain = []
    size = len(work.pool)

    def pair(op):
        plain.append(work.run(op % size)[0])
        tracer.op = op
        tracer.install()
        try:
            return work.run(op % size)
        finally:
            tracer.uninstall()

    phase = run_phase(work, seconds, pair)
    ops, scale = phase["ops"], phase.pop("scale")
    totals = tracer.totals(scale)
    metrics, layers = {}, defaultdict(float)
    for name, (calls, self_ns) in totals.items():
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_us"] = self_ns / ops / 1e3
        layers[name.split(".")[0]] += self_ns / ops / 1e3
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_us"] = layers[layer]

    skew_ops = work.skew_report_ops(range(ops))
    skew = tracer.totals(scale, skew_ops)
    reports = skew["residuals.full_report"][0]

    def per_report(name):
        return skew[name][0] / reports if reports else 0.0

    rows = metrics["constructors.sweep_row.calls"]
    plain_p50 = statistics.median(ns * k for ns, k in zip(plain, scale)) / 1e6
    metrics.update({
        "ratio.curvature_per_report": per_report("geometry.curvature"),
        "ratio.levi_civita_per_report": per_report("geometry.levi_civita"),
        "ratio.contorsion_coefficients_per_report": per_report("torsion.contorsion_coefficients"),
        "ratio.validate_scenario_per_report": per_report("residuals.validate_scenario"),
        "ratio.sweep_rows_in_window": metrics["residuals.full_report.calls"] / rows if rows else 0.0,
        "trace.overhead_ms": phase["p50_ms"] - plain_p50,
    })
    tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{workload}.tsv"))
    phase.update(skew_report_ops=len(skew_ops), untraced_p50_ms=plain_p50)
    return {"phase": phase, "metrics": metrics, "spans": len(tracer.spans)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.abspath(het3.__file__).startswith(SRC + os.sep):
        print(f"het3 was imported from {het3.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    reference_ns(1)  # the kernel's first numpy calls pay numpy's lazy set-up
    setup_s = SETUP_S * REF_MS * 1e6 / reference_ns(7)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": SETUP_S}))
        return 0
    work = WORKLOADS[args.workload](args.seed)
    try:
        problems = self_check()
        probes = probe_summary(work.run_probes())
        warm_until, n = time.perf_counter() + WARMUP_S, 0
        while time.perf_counter() < warm_until:
            work.run(n % len(work.pool))
            n += 1
        if args.trace:
            result = traced(work, args.seconds, args.workload)
        else:
            result = {"phase": run_phase(work, args.seconds)}
            del result["phase"]["scale"]
    finally:
        work.close()
    result.update(
        setup_s=setup_s,
        wall_setup_s=SETUP_S,
        unit=work.unit,
        numpy=np.__version__,
        self_check=problems,
        probes=probes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
