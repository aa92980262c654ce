"""Bit identity of the exact outputs: the ``reduce``, ``gauge``,
``bethe``, ``verify``, ``classes`` and ``wide`` hashes of
``tools/output_hashes.py``.

These six do not depend on the platform: five cover exact rational output
only, and the ``verify`` report, with every check passing, holds no floats
once the tool drops its timings.  ``wide`` reaches the cutoff-40 algebra
tables.  The float ``periods`` hash is left to the tool itself.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WANT = {
    "reduce":
        "3a863ab1592b7d0a1d4c799fc9ccc1a74458709d4aea42688a460f650be9a2d9",
    "gauge":
        "e6ed9b0318d0051e7d9b1d008ce499c9a2bb97d9ec380a1f2afb8efbf7db1159",
    "bethe":
        "c44f56028a2eb89d041ab03937a91c31b35f117782ca9710ab5dc57e60dfafb5",
    "verify":
        "fbbe738f3caf72ea9a49707566603714ca78dbd616a270a50140f8b002649c6d",
    "classes":
        "22a6c040e56130e07436bd9e2a5f8ed87f824bf0b5a32da738d8aa92ce96b7cc",
    "wide":
        "7b3bec5219cf0952c7cc1758f0931499eabd153ff18bc49c2b4d211f8735c2d7",
}


def test_exact_output_hashes_are_unchanged():
    # a fresh interpreter, so that no patch made by another test leaks in
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_hashes.py"),
         *WANT], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = dict(line.split() for line in run.stdout.splitlines())
    assert got == WANT
