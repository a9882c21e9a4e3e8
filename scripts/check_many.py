"""Time `het3 check` over many scenario files in one process.

    python3 scripts/check_many.py [--files 1000] [--repeats 5] [--seed 0]

Run it from the root of a het3 checkout; it imports het3 from ``src/``.  It
writes four corpora of --files scenario files each (the four families in
turn, kappa log-uniform in [1e-2, 1e2]) to a temporary directory:

* ``exact``: every file an exact member.  Every file is valid, so each block
  of ``cli.CHECK_BLOCK`` files is one batch, and most residuals are exact
  zeros, which take the short way through the report's rounding.
* ``screening``: what a screen of candidates reads.  Every file is a member
  with h scaled by 1 + d, d log-uniform in [1e-6, 1e-2] (a non-solution with
  nonzero residuals), and one file per block of ``cli.CHECK_BLOCK``, at a
  seeded position, has kappa = -1 (an error), so that every batch raises and
  is split around it.
* ``invalid``: the exact documents with kappa = -1 at every tenth file, so
  that every batch raises and is split around many invalid files: each of
  them alone, and the rest as one batch.
* ``overflow``: the exact documents with every tenth file a valid Heisenberg
  document with lambda = 1e200, whose Ricci tensor overflows, so that every
  batch passes validation, raises in its report and is split around those
  files in the same way.

For each corpus it times, in this one process:

* ``batch``: one ``het3.cli.main(["check", *paths, "--json"])`` call;
* ``one_by_one``: one ``het3.cli.main(["check", path, "--json"])`` per file.

Output goes to in-memory buffers.  Each is run once untimed, then --repeats
times; the result is the median, in microseconds per scenario, as one JSON
line.  The batch stdout must equal the concatenated single outputs, and its
error lines the single error lines with the file named.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

from het3 import cli, constructors  # noqa: E402

# the member of each family at kappa; s_g is -2/kappa (generic, root sign +1)
# and -6/kappa (hyperbolic), and the other two families fix their own
FAMILIES = [
    lambda kappa: constructors.construct_generic_reducible(kappa, -2.0 / kappa),
    constructors.construct_skew_heisenberg,
    lambda kappa: constructors.construct_hyperbolic_skew(kappa, -6.0 / kappa),
    constructors.boundary_vanishing_torsion,
]


def documents(count: int, rng: np.random.Generator) -> list[dict]:
    """count exact members of the four families, in turn."""
    docs = []
    for n in range(count):
        kappa = float(10.0 ** rng.uniform(-2, 2))
        docs.append(cli.scenario_to_doc(FAMILIES[n % len(FAMILIES)](kappa)))
    return docs


def screening(docs: list[dict], rng: np.random.Generator) -> list[dict]:
    """docs with h perturbed, and one per block with kappa = -1."""
    docs = [dict(doc, h=doc["h"] * (1.0 + 10.0 ** rng.uniform(-6, -2))) for doc in docs]
    for start in range(0, len(docs), cli.CHECK_BLOCK):
        bad = int(rng.integers(start, min(start + cli.CHECK_BLOCK, len(docs))))
        docs[bad] = dict(docs[bad], kappa=-1.0)
    return docs


def invalid(docs: list[dict]) -> list[dict]:
    """docs with kappa = -1 at every tenth file."""
    return [dict(doc, kappa=-1.0) if n % 10 == 9 else doc for n, doc in enumerate(docs)]


def overflow(docs: list[dict]) -> list[dict]:
    """docs with the Heisenberg model of lambda = 1e200 at every tenth file."""
    return [dict(doc, structure_constants=[[1, 2, 3, 1e200]]) if n % 10 == 9 else doc
            for n, doc in enumerate(docs)]


def write_files(directory: str, name: str, docs: list[dict]) -> list[str]:
    paths = []
    for n, doc in enumerate(docs):
        path = os.path.join(directory, f"{name}-{n:05d}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        paths.append(path)
    return paths


def timed(calls) -> tuple[float, str, str, int]:
    """Seconds for the argv lists in calls, their joined stdout and stderr,
    and the worst exit code."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in calls:
            code = max(code, cli.main(argv))
    return time.perf_counter() - start, out.getvalue(), err.getvalue(), code


def measure(paths: list[str], repeats: int) -> dict:
    """Median microseconds per scenario of each mode, and the exit codes;
    raises if the batch writes other bytes than the single checks."""
    modes = {
        "batch": [["check", *paths, "--json"]],
        "one_by_one": [["check", path, "--json"] for path in paths],
    }
    result, written = {}, {}
    for mode, calls in modes.items():
        _, out, err, code = timed(calls)
        written[mode] = out, err
        seconds = [timed(calls)[0] for _ in range(repeats)]
        result[f"{mode}_us_per_scenario"] = statistics.median(seconds) / len(paths) * 1e6
        result[f"{mode}_exit"] = code
    single_errors = [(path, line) for path, line in zip(
        paths, (run[2] for run in (timed([argv]) for argv in modes["one_by_one"])))
        if line]
    named = "".join(f"error: {path}: {line[len('error: '):]}" for path, line in single_errors)
    if written["batch"] != (written["one_by_one"][0], named):
        raise SystemExit("batch output differs from the single outputs")
    result["errors"] = len(single_errors)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--files", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    rng = np.random.default_rng(args.seed)
    exact = documents(args.files, rng)
    corpora = {"exact": exact, "screening": screening(exact, rng), "invalid": invalid(exact),
               "overflow": overflow(exact)}
    result = {"files": args.files, "repeats": args.repeats, "seed": args.seed}
    with tempfile.TemporaryDirectory() as directory:
        for name, docs in corpora.items():
            result[name] = measure(write_files(directory, name, docs), args.repeats)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
