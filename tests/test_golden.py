"""Byte-identity oracles for ``compute --all-configs`` and ``verify``.

The sha256 of the printed output is pinned for every ``--method`` in
``--json`` and in text mode, with the timings masked: the JSON
``"timings_s"`` object is emptied and each ``=0.123s`` of the
``# methods`` line becomes ``=Ts``.  A change to how a sweep is read out
or printed must leave these bytes alone.  The output of
``verify --suite all --draws 20`` holds no timings and is pinned as
printed for seeds 0, 1 and 2, so a change to how an identity is checked
must keep every draw and every pass count.  The states that ``direct``
and ``aba`` build, entries and scale, are pinned for one seeded lattice
per N = 1..8, so a change to how a kernel scales its integers must leave
each state's fields alone.
"""

import contextlib
import hashlib
import io
import json
import random
import re

import pytest

from sixvb.aba import solve_aba
from sixvb.cli import main
from sixvb.contraction import build_invariant
from sixvb.fixtures import fixture_text
from sixvb.lattice import spec_to_dict
from sixvb.sampling import random_spec

from dense_reference import wide_spec

GOLDEN = {
    ("figure", "direct", "json"): "d23b9954ff098c01fe3ec9362a51c67a89f19118177803e466486fd6efb71966",
    ("figure", "direct", "text"): "cf3acd0870f343ffd9ad5648e091414545102e50c250f09a29adf0dd858154d7",
    ("figure", "aba", "json"): "8b0a278e4f08069df335a37ea59b18e2bc151ff9beffa839f14dca86fb2266d3",
    ("figure", "aba", "text"): "9fb2fe1d61336c7c3052db858c053b4419d1f10eedc532f506d0d4dffd46f0e0",
    ("figure", "cba", "json"): "92a37f61a42017e5c2a3639fce5c784e6aec025a7336f7932eacaeeb28ba8eea",
    ("figure", "cba", "text"): "6816c13f204f862438f6d1241475a784b02a236d960f17f0a473284030edd2f6",
    ("figure", "all", "json"): "5485c71d7fef422f84d359291e46f7567c0b2151d371b78a72d744c7d8615183",
    ("figure", "all", "text"): "566003f5f1a660aa8080595cdbc8e9a00051f9cdacaff3f62a0a025a178ba5cb",
    ("random-505-n5", "direct", "json"): "3c897a06c385dcfe4e62ddfefed17b6c58fa7f2928dc8cc0f3f9ded27543bfef",
    ("random-505-n5", "direct", "text"): "3a423158778d77b1193dc253e5eb7c46fcc690b03b2ba1d64c20f2e719af8265",
    ("random-505-n5", "aba", "json"): "fecd6dbd4b5fac2b0135c1766690c9ceb3567d98a3dca485ba994d0d12d3dbb7",
    ("random-505-n5", "aba", "text"): "6a96b4c69a72f5187b0a52c4a40c553214123fa8daaba25539c8cd3a9833bdd7",
    ("random-505-n5", "cba", "json"): "83cccba2c01cd802aa0480cc8c9e65295f5bae371fab43e2e98ceb95a7b61987",
    ("random-505-n5", "cba", "text"): "1f7c577ba08dc54f65296700974425ab9a2c46f5f168f403f6ff0c6b77908b35",
    ("random-505-n5", "all", "json"): "467e71f23b7ed4f7ed155df43934ff384529fdaf1bc377088a693e85b98c9a0c",
    ("random-505-n5", "all", "text"): "fc7ce67a44691b4f1a88c42c7bba10dd7543e3e5664a50d986243980754e82a6",
}

VERIFY_GOLDEN = {
    0: "981a695d272eade734bc0df33e10d64bcb7140e7886ca18315c71c3cc829f953",
    1: "bb966dd344b49ce24183974b5e176c6bf9430f93a6a9d47a4609c78a5b554cf2",
    2: "b19d20cc7235f86c1c2c16201cbce9e922a55df582c809cb5fc18f7aea39b9d3",
}

# N: sha256 of the (woven, aba) state's sorted entries and scale
STATE_GOLDEN = {
    1: ("201729d4ccfa6396f9388a76105378f2b19fb48af888d5f1bb131b1c13e2ccf1",
        "760fcee56ceb394ef535f4bf4029e678135760fc764a6af8bf9340d59d6c90ec"),
    2: ("2a768275ffe782d2fe88cad62c9db7942286af60b6626b647d76a7b697aba79c",
        "944102e5620e7b08ed852b1dbddd23561694b0f83f583f149bd05b7a4f92c8fb"),
    3: ("2fd27c208a19f87ca2bf0b89271388c35303d6414f3620be01328d005b9bc781",
        "fd2f0bc173dfa648c82758038199d05a96ea43d45cd4ecd860f312591193f057"),
    4: ("9107f8e6d967756b70b2d9972f0981df5b9b5a88fed1727dd8ea70f7ec19b5a1",
        "48770f3d1216f9cc0cfc730e45c87e34314481513219aac25dfcf527f995e3e7"),
    5: ("42d45fc38753088d95da7a5477f41bfe12eedf694cb147a711934980ab57188d",
        "6b98c3c5eb4df11fa3ae3120114f08d7770a98e6142906526f83ff6415a844e8"),
    6: ("c7ba88bccba00e89eea847fcfa33df7278e1a1c7b9dcdf052a8333c684d9a42d",
        "f797afc8f3fd214b64a47777bde9dca2a166f73f16ad54d849a00c84695f4c13"),
    7: ("fc6e7478af6097c0adffb951135f97e24bd194f387b4d21b61356d84abfb0491",
        "2cc98250fa948ee9ecccc546b708d6f387205c30744aa1f2e5cd3eeab24a2d06"),
    8: ("39cd26cc1909d4bd1e0331d5164f69980f54f39f2021124f2d83cb346286eac8",
        "989bf80aa71bdb2699dcbae6b7be4b87bbec74c0f5f30d5fdc5ccd08ccb332fb"),
}


def _lattice_text(name: str) -> str:
    if name == "figure":
        return fixture_text("figure_lattice.json")
    return json.dumps(spec_to_dict(random_spec(random.Random(505), 5)))


def _masked(out: str, as_json: bool) -> str:
    if as_json:
        return re.sub(r'"timings_s": \{[^}]*\}', '"timings_s": {}', out)
    head, last = out.rstrip("\n").rsplit("\n", 1)
    assert last.startswith("# methods: ")
    return f"{head}\n{re.sub(r'=[0-9]+[.][0-9]{3}s', '=Ts', last)}\n"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize("method", ["direct", "aba", "cba", "all"])
@pytest.mark.parametrize("lattice", ["figure", "random-505-n5"])
def test_compute_all_configs_bytes(tmp_path, lattice, method, as_json):
    path = tmp_path / "lattice.json"
    path.write_text(_lattice_text(lattice), encoding="utf-8")
    argv = ["compute", str(path), "--all-configs", "--method", method]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--json"] * as_json) == 0
    digest = hashlib.sha256(_masked(out.getvalue(), as_json).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[lattice, method, "json" if as_json else "text"]


@pytest.mark.parametrize("seed", sorted(VERIFY_GOLDEN))
def test_verify_all_suites_bytes(seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--suite", "all", "--draws", "20", "--seed", str(seed)]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == VERIFY_GOLDEN[seed]


def _state_digest(state) -> str:
    text = repr((sorted(state.entries.items()), str(state.scale)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", sorted(STATE_GOLDEN))
def test_woven_and_aba_state_fields(n):
    """Seeded ``random_spec`` lattices up to N=6, ``wide_spec`` ones above."""
    spec = random_spec(random.Random(700 + n), n) if n <= 6 else wide_spec(random.Random(100 + n), n)
    states = build_invariant(spec), solve_aba(spec).bethe_state
    assert tuple(_state_digest(s) for s in states) == STATE_GOLDEN[n]
