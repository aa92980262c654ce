"""Bit identity of the exact outputs: the pinned ``reduce``, ``gauge``,
``bethe``, ``verify``, ``classes`` and ``wide`` hashes of
``tools/output_hashes.py``, and the pinned hash of the ``r1k40`` probe of
``tools/large_cutoffs.py``.

These six do not depend on the platform: five cover exact rational output
only, and the ``verify`` report, with every check passing, holds no floats
once the tool drops its timings.  ``wide`` reaches the cutoff-40 algebra
tables.  The float ``periods`` hash is left to the tool itself.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the tool pins every hash itself; the float ``periods`` one is left out
EXACT = ("reduce", "gauge", "bethe", "verify", "classes", "wide")


def test_exact_output_hashes_are_unchanged():
    # a fresh interpreter, so that no patch made by another test leaks in;
    # the tool marks each line ok or MOVED and exits 1 on a move
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_hashes.py"),
         *EXACT], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    marks = {line.split()[0]: line.split()[-1]
             for line in run.stdout.splitlines()}
    assert marks == dict.fromkeys(EXACT, "ok")


def test_large_cutoff_probe_keeps_its_pinned_hash():
    # the tool marks each probe line ok or MOVED and exits 1 on a move
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "large_cutoffs.py"),
         "r1k40"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.split()[-1] == "ok"
