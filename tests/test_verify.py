import os
import subprocess
import sys

import sixvb

_DRAWS = """
from sixvb.verify import _seeded
print(_seeded("ybe", 5, 2, lambda rng, i: (False, repr(rng.random()))).failures)
"""


def test_seeded_draws_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sixvb.__file__)))
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _DRAWS], env=env, capture_output=True, text=True, check=True
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
