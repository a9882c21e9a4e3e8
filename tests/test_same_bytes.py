"""scripts/same_bytes.py: a tree against itself, and against a changed copy."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "same_bytes.py")


def same_bytes(*trees):
    return subprocess.run([sys.executable, SCRIPT, *trees, "--files", "20"],
                          capture_output=True, text=True, timeout=300, check=False)


def test_a_tree_against_itself():
    done = same_bytes(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("same bytes: ")


def test_names_the_first_run_that_differs(tmp_path):
    # a copy whose sweep writes one digit less differs first on a sweep
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "het3" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    row = '_SWEEP_ROW = "%.12g,'
    assert row in text
    cli.write_text(text.replace(row, '_SWEEP_ROW = "%.11g,'), encoding="utf-8")
    done = same_bytes(ROOT, str(tmp_path))
    assert done.returncode == 1
    assert done.stdout.startswith("DIFFERENT (stdout): sweep pool1-0000"), done.stdout
