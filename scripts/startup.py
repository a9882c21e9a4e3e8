"""Time the start-up phases of a one-check process for two het3 trees.

    python3 scripts/startup.py PARENT_TREE CHANGED_TREE [--pairs N]

Each tree is a het3 checkout.  Per pair, in alternating tree order, one
fresh process per tree and bytecode mode imports het3 from ``TREE/src`` and
times, in milliseconds:

* ``import_numpy``: ``import numpy``;
* ``import_het3_cli``: ``from het3 import cli``, after numpy;
* ``parser``: ``cli._parser()``;
* ``first_check`` and ``second_check``: two ``cli.main(["check", FILE,
  "--json"])`` calls on one constructed hyperbolic member (kappa = 1,
  s_g = -6), with stdout written to a buffer;
* ``het3_self_import``: the self times of the ``het3`` modules, summed from
  the process's ``-X importtime`` lines (it runs under ``-X importtime``
  for this, which every phase above pays the same on both trees);
* ``het3_share``: het3's share of a one-check process, per process
  ``import_het3_cli + parser + first_check``.

The two bytecode modes:

* ``source``: no bytecode for het3, so every process compiles it; numpy and
  the standard library keep theirs;
* ``compiled``: het3's bytecode written once, by an untimed first run.

Each tree and mode has its own ``PYTHONPYCACHEPREFIX``, a temporary
directory that one untimed run fills and that, in ``source`` mode, then
loses het3's files; the timed processes run with
``PYTHONDONTWRITEBYTECODE=1``.  So no tree is written to, and bytecode left
in a tree cannot favour one side.

Output is one JSON line: the median and quartiles of every phase per tree
(``parent``, ``changed``) and mode.  Exit 1 if any process fails.
"""

import io  # already loaded by the interpreter, so importing it times nothing
import os
import sys
import time


def worker(tree: str, document: str) -> None:
    """Time the phases against TREE/src; one JSON line of milliseconds."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    src = os.path.join(os.path.realpath(tree), "src")
    sys.path.insert(0, src)
    from het3 import cli

    t2 = time.perf_counter()
    cli._parser()
    t3 = time.perf_counter()
    ticks, codes = [], []
    for _ in range(2):
        out, sys.stdout = sys.stdout, io.StringIO()
        try:
            codes.append(cli.main(["check", document, "--json"]))
        finally:
            sys.stdout = out
        ticks.append(time.perf_counter())
    if not cli.__file__.startswith(src + os.sep):
        sys.exit(f"het3 imported from {cli.__file__}, not from {src}")
    if codes != [0, 0]:
        sys.exit(f"check exited {codes}")
    import json

    phases = {"import_numpy": t1 - t0, "import_het3_cli": t2 - t1, "parser": t3 - t2,
              "first_check": ticks[0] - t3, "second_check": ticks[1] - ticks[0],
              "het3_share": ticks[0] - t1}
    print(json.dumps({k: 1e3 * v for k, v in phases.items()}))


PHASES = ("import_numpy", "import_het3_cli", "parser", "first_check", "second_check",
          "het3_self_import", "het3_share")
MODES = ("source", "compiled")
ROLES = ("parent", "changed")


def het3_self_ms(importtime: str) -> float:
    """The summed self times of the het3 modules in -X importtime output."""
    total = 0
    for line in importtime.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            self_us, _, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name == "het3" or name.startswith("het3."):
                total += int(self_us)
    return total / 1e3


def main(argv=None) -> int:
    import argparse
    import json
    import shutil
    import statistics
    import subprocess
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs=2, metavar="TREE")
    ap.add_argument("--pairs", type=int, default=10, help="process pairs per mode (default 10)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (for quartiles)")
    trees = dict(zip(ROLES, (os.path.realpath(t) for t in args.trees)))

    def run(prefix, *argv, write=False):
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE="1")
        if write:
            del env["PYTHONDONTWRITEBYTECODE"]
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, check=False)

    with tempfile.TemporaryDirectory(prefix="startup-") as directory:
        document = os.path.join(directory, "hyperbolic.json")
        made = run(os.path.join(directory, "construct"), "-c",
                   "import sys; sys.path.insert(0, sys.argv[1]); from het3 import cli; "
                   "sys.exit(cli.main(sys.argv[2:]))",
                   os.path.join(trees["parent"], "src"), "construct", "hyperbolic",
                   "--kappa", "1", "--scalar", "-6", "-o", document)
        if made.returncode != 0:
            print(f"construct failed (exit {made.returncode}):\n{made.stderr}", file=sys.stderr)
            return 1

        def timed(role, mode, write=False):
            prefix = os.path.join(directory, role, mode)
            done = run(prefix, "-X", "importtime", os.path.abspath(__file__),
                       "--worker", trees[role], document, write=write)
            if done.returncode != 0:
                print(f"{role} {mode}: process failed (exit {done.returncode}):\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                return None
            phases = json.loads(done.stdout)
            phases["het3_self_import"] = het3_self_ms(done.stderr)
            return phases

        # one untimed run per tree and mode fills its cache; source mode then
        # drops het3's bytecode from it
        for role in ROLES:
            for mode in MODES:
                if timed(role, mode, write=True) is None:
                    return 1
            mirror = os.path.join(directory, role, "source",
                                  os.path.join(trees[role], "src").lstrip(os.sep))
            if not os.path.isdir(os.path.join(mirror, "het3")):
                print(f"{role}: no het3 bytecode under {mirror}", file=sys.stderr)
                return 1
            shutil.rmtree(mirror)

        samples = {role: {mode: [] for mode in MODES} for role in ROLES}
        for n in range(args.pairs):
            for role in ROLES if n % 2 == 0 else ROLES[::-1]:
                for mode in MODES:
                    phases = timed(role, mode)
                    if phases is None:
                        return 1
                    samples[role][mode].append(phases)

    def summary(runs, phase):
        q1, median, q3 = statistics.quantiles([r[phase] for r in runs], n=4, method="inclusive")
        return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}

    print(json.dumps({
        "pairs": args.pairs, "unit": "ms", "trees": trees,
        "phases": {role: {mode: {phase: summary(samples[role][mode], phase) for phase in PHASES}
                          for mode in MODES} for role in ROLES},
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:4])
    else:
        sys.exit(main())
