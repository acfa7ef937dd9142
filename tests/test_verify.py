import os
import subprocess
import sys

import pytest

import sixvb
from sixvb import aba, cba, monodromy, verify

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


def test_invariance_failures_name_the_failing_route(monkeypatch):
    built = []
    real_state, real_check = cba.cba_state, aba.check_invariance
    monkeypatch.setattr(cba, "cba_state", lambda spec: built.append(real_state(spec)) or built[-1])
    monkeypatch.setattr(
        aba,
        "check_invariance",
        lambda spec, state, z: state is not built[-1] and real_check(spec, state, z),
    )
    (result,) = verify.invariance_suite(3, 2)
    assert len(result.failures) == 2
    assert all("spec=LatticeSpec(" in f and f.endswith(" routes=('cba',)") for f in result.failures)


@pytest.mark.parametrize(
    "module, checker, name",
    [
        (aba, "check_fcr_open", "fcr_open"),
        (cba, "check_closed_fcr", "fcr_closed"),
        (monodromy, "check_reflection_algebra", "reflection_algebra"),
        (cba, "check_b_expansion", "b_expansion"),
        (cba, "check_state_expansion", "state_expansion"),
    ],
)
def test_fcr_failures_record_the_drawn_spec(monkeypatch, module, checker, name):
    monkeypatch.setattr(module, checker, lambda *args: False)
    result = next(r for r in verify.fcr_suite(3, 1) if r.name == name)
    assert len(result.failures) == 1
    assert "spec=LatticeSpec(" in result.failures[0]
