"""The het3 benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload check|sweep|identities --seed N \
        --seconds S --trace 0|1

Run it from the root of a het3 checkout; it imports het3 from ``src/`` there
and fails without it.  Each run starts fresh processes with BLAS/OpenMP
threads pinned to 1: several that only import het3 (for ``setup_s``) and one
that runs the workload.  The metric names and units come from
``BENCHMARK.json``.  Every line but the last is a readable record (the
environment, each metric with its unit and sample count, the failure
breakdown and the untimed probes of the seed's known defects); the last line
is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check", "sweep", "identities")
SETUP_PROBES = 6  # fresh import-only processes, besides the workload process
PROCESS_TIMEOUT_S = 150
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child(args: list[str]) -> dict:
    """Run workload.py in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), *args],
        env={**os.environ, **PINNED},
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, numpy: str) -> dict:
    digest = hashlib.sha256()
    src = os.path.join("src", "het3")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = "unavailable (not a git checkout)"
    if os.path.isdir(".git"):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = rev.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_commit": commit,
        "het3_source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pinned_env": PINNED,
    }


def end_to_end(phase: dict, setup: list[float], rss_mb: float) -> dict:
    ops = phase["ops"]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "units_per_s": (phase["units"] / phase["busy_s"], phase["units"]),
        "op_p50_ms": (phase["p50_ms"], ops),
        "op_p90_ms": (phase["p90_ms"], ops),
        "peak_rss_mb": (rss_mb, 1),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "het3", "__init__.py")):
        return fail("run from the root of a het3 checkout: src/het3 is missing")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = [] if args.trace else [child(["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
        result = child(argv)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))

    phase = result["phase"]
    if args.trace:
        wanted = spec["per_layer"]
        values = {name: (value, phase["ops"]) for name, value in result["metrics"].items()}
        probes = result["probes"]
        values["probe.known_defects"] = (probes["known"], probes["attempted"])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(phase, setup + [result["setup_s"]], result["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"no measurement for {missing}")

    print("environment " + json.dumps(environment(args.seed, result["numpy"])))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: one op = one {result['unit']}; {why.get(args.workload, '')}")
    if result["self_check"]:
        print("oracle self-check FAILED: " + "; ".join(result["self_check"]))
    for m in wanted:
        value, samples = values[m["name"]]
        print(f"metric {m['name']:<52s} {value:>14.6g} {m['unit']:<12s} n={samples}")
    print(f"calibrated times; uncalibrated wall-clock op p50 {phase['wall_p50_ms']:.4f} ms, "
          f"set-up {result['wall_setup_s']:.4f} s (see bench/README.md)")
    ops, failed = phase["ops"], phase["failed"]
    print(f"fail_ratio {failed / ops:.6g} ({failed} failed of {ops} attempted; "
          f"{phase['unexpected']} outside the known defects)")
    if args.trace:
        print(f"trace: {result['spans']} spans, untraced p50 {phase['untraced_p50_ms']:.4f} ms, "
              f"traced p50 {phase['p50_ms']:.4f} ms, count ratios over "
              f"{phase['skew_report_ops']} skew-family ops")
    print("outcomes " + json.dumps(phase["outcomes"]))
    print("breakdown " + json.dumps(phase["breakdown"]))
    probes = result["probes"]
    if probes["attempted"]:
        print(f"probes (untimed, full kappa range): {probes['known']} known defects and "
              f"{probes['unexpected']} other failures in {probes['attempted']} inputs")
        print("probe outcomes " + json.dumps(probes["outcomes"]))
        print("probe failures " + json.dumps(probes["failures"]))
    else:
        print("probes: none; the seed has no known defect on this workload")
    print(json.dumps({
        "correct": not result["self_check"] and phase["unexpected"] == 0
        and probes["unexpected"] == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
