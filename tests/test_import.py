"""What ``import sixvb`` loads.

The package import is the set-up cost of every caller, so it stays free of
the modules only some commands need: the JSON encoder and digest (loaded
inside the functions that write a report), the argument parser and the
command-line, identity-suite and sampling modules.
"""

import subprocess
import sys
from pathlib import Path

import sixvb

SRC = Path(sixvb.__file__).resolve().parents[1]
DEFERRED = ("json", "hashlib", "argparse", "sixvb.cli", "sixvb.verify", "sixvb.sampling")


def test_import_sixvb_leaves_the_deferred_modules_unloaded():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sixvb\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert "sixvb.pipeline" in loaded
    assert sorted(loaded.intersection(DEFERRED)) == []
