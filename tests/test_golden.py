"""Byte-identity oracles for ``compute --all-configs`` and ``verify``.

The sha256 of the printed output is pinned for every ``--method`` in
``--json`` and in text mode, with the timings masked: the JSON
``"timings_s"`` object is emptied and each ``=0.123s`` of the
``# methods`` line becomes ``=Ts``.  A change to how a sweep is read out
or printed must leave these bytes alone.  The output of
``verify --suite all --draws 20`` holds no timings and is pinned as
printed for seeds 0, 1 and 2, so a change to how an identity is checked
must keep every draw and every pass count.
"""

import contextlib
import hashlib
import io
import json
import random
import re

import pytest

from sixvb.cli import main
from sixvb.fixtures import fixture_text
from sixvb.lattice import spec_to_dict
from sixvb.sampling import random_spec

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
