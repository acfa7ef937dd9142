"""Tests of the benchmark itself: percentile rule, correctness gate, metric names."""

import importlib.util
import io
import json
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Per-workload end-to-end names, printed on the lines above the JSON result
# (see GLOSSARY.md).
PRINTED_NAMES = {
    "setup_s",
    "direct.configs_per_s",
    "aba.configs_per_s",
    "cba.configs_per_s",
    "instance_p50_s",
    "instance_p90_s",
    "instances_per_s",
    "verify.checks_per_s",
    "failed_ratio",
    "peak_rss_mb",
}


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    assert code == 0
    lines = out.getvalue().splitlines()
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    return json.loads(lines[-1]), printed


class StubCli:
    """``sixvb.cli.main`` stand-in printing fixed rows; ``bad`` maps a method
    to the row index whose rational it perturbs."""

    def __init__(self, n, bad=None):
        self.n = n
        self.bad = bad or {}

    def main(self, argv):
        if argv[0] == "verify":
            print("ybe  10/10  pass\nfcr_open  9/10  FAIL\n    failing draw: x=1")
            return 1
        method = argv[argv.index("--method") + 1]
        rows = []
        for i in range(4 ** self.n):
            z = Fraction(i, 7) + (Fraction(1, 10**9) if self.bad.get(method) == i else 0)
            rows.append({"alpha": [1] * self.n, "beta": [i], "z": {method: str(z)}})
        print(json.dumps({"configs": rows, "agreement": True}))
        return 0


class StubProgram:
    def __init__(self, cli):
        self.cli = cli


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError, match="need 10"):
        run.tail_percentile(range(1, 100), 90)
    with pytest.raises(ValueError):
        run.tail_percentile([0.1] * 5, 50)


def test_one_perturbed_rational_from_the_cli_fails(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "lines": [
                    {"start": 4, "end": 2, "reflected": False, "rapidity": "2/7"},
                    {"start": 3, "end": 1, "reflected": True, "rapidity": "3/11"},
                ],
                "q": "4/5",
            }
        )
    )
    prog = run.load_program()
    lat = run.Lattice(str(path))
    rows = {}
    for method in ("direct", "aba"):
        _, code, out = run.call_cli(prog, run.compute_argv(lat, method))
        rows[method] = run.report_rows(code, out, method)
    tally = run.Tally()
    tally.check(rows["aba"], rows["direct"], 16)
    assert (tally.failed, tally.attempted) == (0, 16)

    alpha, beta, z = rows["aba"][5]
    rows["aba"][5] = (alpha, beta, str(Fraction(z) + Fraction(1, 10**12)))
    tally.check(rows["aba"], rows["direct"], 16)
    assert tally.failed == 1
    assert run.failed_ratio(tally.failed, tally.attempted) == 1 / 32


def test_failed_calls_count_every_row():
    assert run.count_mismatches(None, [1, 2, 3], 3) == 3
    assert run.count_mismatches([1, 2], [1, 2, 3], 3) == 3
    assert run.report_rows(1, "{}", "direct") is None
    assert not run.all_routes_agree(0, json.dumps({"agreement": False, "configs": []}))


def test_sweeps_gate_each_route_and_print_their_names():
    tally, lines = run.Tally(), []
    run.run_sweep_n6(StubProgram(StubCli(6, {"aba": 9})), [run.Lattice("x")], 0, 0, tally, lines)
    assert (tally.failed, tally.attempted, tally.items) == (1, 4096, 8192)
    assert {name for name, *_ in lines} == {"direct.configs_per_s", "aba.configs_per_s"}

    tally, lines = run.Tally(), []
    run.run_sweep_cba(StubProgram(StubCli(5, {"cba": 0})), [run.Lattice("x")], 0, 0, tally, lines)
    assert (tally.failed, tally.attempted) == (1, 1024)
    assert [name for name, *_ in lines] == ["cba.configs_per_s"]

    tally, lines = run.Tally(), []
    run.run_verify(StubProgram(StubCli(1)), [], 0, 0, tally, lines)
    assert (tally.failed, tally.attempted, tally.items) == (1, 20, 20)
    assert [name for name, *_ in lines] == ["verify.checks_per_s"]


def test_benchmark_json_lists_the_emitted_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(PRINTED_NAMES)
    assert all(NAME.match(name) for name in names)


def test_many_lattices_run_prints_every_end_to_end_metric():
    result, printed = _run_main(["--workload", "many-lattices", "--seed", "3", "--seconds", "0.3"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert printed <= PRINTED_NAMES


def test_traced_run_matches_the_cli_and_emits_every_layer(monkeypatch):
    monkeypatch.setattr(run, "TRACED_INSTANCES", 5)
    result, _ = _run_main(["--workload", "many-lattices", "--seed", "3", "--seconds", "1", "--trace", "1"])
    assert result["correct"] and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["cba.upsilon.calls"]["value"] >= 10
