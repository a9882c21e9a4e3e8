"""Check that two het3 trees write the same bytes for one corpus of runs.

    python3 scripts/same_bytes.py PARENT_TREE CHANGED_TREE [--files N]

Each tree is a het3 checkout; it is run in its own process, which imports
het3 from ``TREE/src`` and calls ``het3.cli.main`` once per run, in process,
with stdout and stderr captured and ``RuntimeWarning`` raised as an error.
The corpus comes from ``bench/oracle.py`` of the checkout that holds this
script, which it reads and does not change:

* ``check``, ``check --json`` and ``classify`` of every document of the check
  pool and the check probes of bench seeds 1 and 2, plus 600 random
  normal-form documents (alpha, gamma and the axis components of both
  signs; the axes +-e1, +-e2 and +-e3 among them), one path per call, and
  ``check`` and ``check --json`` of all of them in one call;
* every sweep of the sweep pool and the sweep probes of seeds 1 and 2;
* ``construct -o FILE`` of each family (the generic one with both signs) at
  kappa = 10^(k/2), k = -16..16: with ``--scalar`` at kappa s_g in {-30,
  -24, -6, -1e-3} for the two families that read it (``heisenberg-generic``
  and ``hyperbolic``), and once per kappa for the two that fix s_g and
  reject the option (``heisenberg-skew`` and ``boundary``).

--files N takes the first N items of every source (default: all of them).
The documents are written once, to one directory that both trees read, so
that an error line quoting a path is the same for both.  A run's digest is
its exit code (or uncaught exception), stdout, stderr and the file it wrote.
Exit 0 when every digest agrees; otherwise exit 1 and name the first run
that differs and what differs in it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2)
CONSTRUCT_KS = (-30.0, -24.0, -6.0, -1e-3)
NORMAL_FORMS = 600
AXES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def normal_form_docs(count: int) -> list[str]:
    """count valid-looking documents with a normal-form contorsion of random
    signs: a Milnor model, alpha and gamma of either sign, and every third
    axis one of +-e1, +-e2, +-e3 (the others random unit vectors)."""
    import numpy as np

    rng = np.random.default_rng(0)
    docs = []
    for n in range(count):
        l1, l2, l3 = (float(v) for v in rng.normal(scale=1.5, size=3))
        if n % 3 == 0:
            xi = [float(rng.choice((-1.0, 1.0))) * c for c in AXES[(n // 3) % 3]]
        else:
            v = rng.normal(size=3)
            xi = (v / math.sqrt(float(v @ v))).tolist()
        doc = {
            "structure_constants": [[2, 3, 1, l1], [1, 3, 2, -l2], [1, 2, 3, l3]],
            "contorsion": {"alpha": float(rng.normal()), "beta": 0.0,
                           "gamma": float(rng.normal()), "xi": xi},
            "h": float(rng.uniform(0.1, 3.0)),
            "phi": [0.0, 0.0, 0.0] if n % 2 else rng.normal(size=3).tolist(),
            "kappa": float(10.0 ** rng.uniform(-3, 3)),
        }
        docs.append(json.dumps(doc))
    return docs


def corpus(directory: str, files: int | None) -> list[dict]:
    """Write the documents to directory; the runs, each a name, an argv and
    the path of the file it writes (or None)."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "bench"))
    import oracle

    take = slice(files)
    sources = []
    for seed in SEEDS:
        sources.append((f"pool{seed}", [i.text for i in oracle.check_pool(seed)[take]]))
        sources.append((f"probe{seed}", [i.text for i in oracle.check_probes(seed)[take]]))
    sources.append(("normal", normal_form_docs(NORMAL_FORMS)[take]))
    paths = []
    for prefix, texts in sources:
        for n, text in enumerate(texts):
            path = os.path.join(directory, f"{prefix}-{n:04d}.json")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            paths.append(path)

    runs = []
    modes = (["check"], ["check", "--json"], ["classify"])
    for mode in modes:
        runs += [{"name": f"{' '.join(mode)} {os.path.basename(p)}", "argv": mode[:1] + [p] + mode[1:]}
                 for p in paths]
    for mode in modes[:2]:
        runs.append({"name": f"{' '.join(mode)} of all {len(paths)} files",
                     "argv": mode[:1] + paths + mode[1:]})
    for seed in SEEDS:
        for kind, sweeps in (("pool", oracle.sweep_pool(seed)), ("probe", oracle.sweep_probes(seed))):
            runs += [{"name": f"sweep {kind}{seed}-{n:04d}", "argv": s.argv}
                     for n, s in enumerate(sweeps[take])]
    output = os.path.join(directory, "constructed.json")
    kappas = [10.0 ** (k / 2) for k in range(-16, 17)]
    constructs = [
        ["construct", family, "--kappa", repr(kappa), "--scalar", repr(ks / kappa)] + sign
        for family, sign in (("heisenberg-generic", ["--sign", "1"]),
                             ("heisenberg-generic", ["--sign", "-1"]), ("hyperbolic", []))
        for kappa in kappas
        for ks in CONSTRUCT_KS
    ] + [["construct", family, "--kappa", repr(kappa)]
         for family in ("heisenberg-skew", "boundary") for kappa in kappas]
    runs += [{"name": " ".join(argv), "argv": argv + ["-o", output], "output": output}
             for argv in constructs[take]]
    return runs


def _digest(data) -> str:
    return "-" if data is None else hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def worker(tree: str, corpus_path: str) -> None:
    """Run the corpus against TREE/src; one JSON line of digests per run."""
    import warnings

    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from het3 import cli

    src = os.path.realpath(os.path.join(tree, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"het3 imported from {cli.__file__}, not from {src}")
    warnings.simplefilter("error", RuntimeWarning)
    with open(corpus_path, encoding="utf-8") as f:
        runs = json.load(f)
    for run in runs:
        out, err = io.StringIO(), io.StringIO()
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(run["argv"])
        except SystemExit as stop:
            code = stop.code
        except Exception as exc:  # a difference like any other
            code = f"{type(exc).__name__}: {exc}"
        written = None
        if run.get("output") and os.path.exists(run["output"]):
            with open(run["output"], encoding="utf-8", newline="") as f:
                written = f.read()
            os.remove(run["output"])
        line = {"code": code, "stdout": _digest(out.getvalue()),
                "stderr": _digest(err.getvalue()), "file": _digest(written)}
        sys.stdout.write(json.dumps(line) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="TREE")
    ap.add_argument("--files", type=int, default=None,
                    help="first N items of every source (default: all)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as directory:
        runs = corpus(directory, args.files)
        corpus_path = os.path.join(directory, "corpus.json")
        with open(corpus_path, "w", encoding="utf-8") as f:
            json.dump(runs, f)
        # one tree after the other: each writes the same output file
        lines = []
        for tree in args.trees:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", tree, corpus_path],
                capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                print(f"{tree}: worker failed (exit {done.returncode}):\n{done.stderr}",
                      file=sys.stderr)
                return 1
            lines.append(done.stdout.splitlines())
    for run, a, b in zip(runs, *lines):
        if a != b:
            first, second = json.loads(a), json.loads(b)
            parts = ", ".join(k for k in first if first[k] != second[k])
            print(f"DIFFERENT ({parts}): {run['name']}\n  {args.trees[0]}: {a}\n"
                  f"  {args.trees[1]}: {b}")
            return 1
    if not len(lines[0]) == len(lines[1]) == len(runs):
        print(f"run counts differ: {len(runs)} runs, {len(lines[0])} and {len(lines[1])} digests")
        return 1
    print(f"same bytes: {len(runs)} runs")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
