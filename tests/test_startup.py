"""scripts/startup.py: the repo against itself, every phase in both modes."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "startup.py")
PHASES = {"import_numpy", "import_het3_cli", "parser", "first_check", "second_check",
          "het3_self_import", "het3_share"}


def test_a_tree_against_itself():
    done = subprocess.run([sys.executable, SCRIPT, ROOT, ROOT, "--pairs", "2"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout)
    assert result["pairs"] == 2
    for role in ("parent", "changed"):
        for mode in ("source", "compiled"):
            phases = result["phases"][role][mode]
            assert set(phases) == PHASES
            for phase, figures in phases.items():
                assert 0 < figures["q1"] <= figures["median"] <= figures["q3"], (role, mode, phase)
