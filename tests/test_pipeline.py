import itertools
import json
import random
import re
from dataclasses import replace

import pytest

import sixvb
from sixvb import lattice
from sixvb.lattice import ConfigGrid, all_configs, config_blocks
from sixvb.pipeline import MAX_DISAGREEMENTS, METHODS, compute_report, report_json
from sixvb.sampling import random_ice_config, random_spec

from dense_reference import report_dict


def test_validation_count_does_not_grow_with_the_sweep(monkeypatch):
    calls = []
    real = lattice.validate_spec
    monkeypatch.setattr(lattice, "validate_spec", lambda spec: calls.append(spec) or real(spec))
    counts = []
    for n in (2, 3):
        calls.clear()
        report = compute_report(random_spec(random.Random(31), n), all_configs(n), METHODS)
        assert report.agreement and len(report.configs) == 4**n
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 16


def test_each_lattice_derives_its_chain_once(monkeypatch):
    """Every kernel and route of a report reads the spec's one ``Chain``:
    the inhomogeneities are derived once per lattice, not once per kernel."""
    calls = []
    real = lattice.inhomogeneities
    for module in vars(sixvb).values():  # wherever the name is bound
        if getattr(module, "inhomogeneities", None) is real:
            monkeypatch.setattr(module, "inhomogeneities", lambda spec: calls.append(spec) or real(spec))
    for n in range(1, 6):
        spec = random_spec(random.Random(40 + n), n)
        calls.clear()
        assert compute_report(spec, all_configs(n), METHODS).agreement
        assert calls == [spec]


@pytest.mark.parametrize("methods", [(), ("direct", "dense")], ids=["empty", "unknown"])
def test_bad_method_list_names_the_methods(methods):
    spec = random_spec(random.Random(31), 1)
    with pytest.raises(ValueError, match=re.escape(str(METHODS))):
        compute_report(spec, all_configs(1), methods)


def test_compute_report_validates_at_most_once(monkeypatch):
    calls = []
    real = lattice.validate_spec
    monkeypatch.setattr(lattice, "validate_spec", lambda spec: calls.append(spec) or real(spec))
    for n in (2, 3):
        spec = random_spec(random.Random(31), n)
        calls.clear()
        report = compute_report(spec, all_configs(n), METHODS)
        assert report.agreement and len(report.configs) == 4**n
        assert len(calls) <= 1


def _subset(report, methods):
    """``report`` restricted to ``methods``, in that order."""
    return replace(
        report,
        methods=methods,
        values={m: report.values[m] for m in methods},
        timings={m: report.timings[m] for m in methods},
    )


def _perturbed(report, method, rows):
    """``report`` with ``method``'s value at each index in ``rows`` moved by one."""
    column = list(report.values[method])
    for i in rows:
        column[i] += 1
    return replace(report, values={**report.values, method: column}, agreement=False)


def _orders(n: int) -> list:
    """The 4^N configs as the grid, as its list, as a seeded shuffle of
    that list, and as that list with the first alpha's run split in two by
    the last config."""
    grid = all_configs(n)
    shuffled, split = list(grid), list(grid)
    random.Random(n).shuffle(shuffled)
    split.insert(2**n // 2, split.pop())
    assert len(config_blocks(split)) == (2**n + 2 if n else 1)
    return [grid, list(grid), shuffled, split]


@pytest.mark.parametrize("n", range(6))
def test_report_json_is_the_reference_bytes_for_every_method_subset(n):
    """All 4^N configs in four orders (``_orders``), one seeded ice config
    and no config, N = 0 (the empty lattice) to 5, under each of the seven
    method subsets."""
    rng = random.Random(600 + n)
    spec = random_spec(rng, n)
    reports = [
        compute_report(spec, configs, METHODS)
        for configs in (*_orders(n), [random_ice_config(rng, spec)], [])
    ]
    assert [len(r.configs) for r in reports] == [4**n] * 4 + [1, 0]
    for report in reports:
        for k in (1, 2, 3):
            for methods in itertools.combinations(METHODS, k):
                sub = _subset(report, methods)
                assert report_json(sub) == json.dumps(report_dict(sub))


@pytest.mark.parametrize("differing", [1, MAX_DISAGREEMENTS + 7])
@pytest.mark.parametrize("odd", METHODS)
def test_report_json_lists_the_first_disagreements(odd, differing):
    """One method (the first one too) moved off the others at 1 or more
    than ``MAX_DISAGREEMENTS`` seeded configs."""
    rng = random.Random(707)
    spec = random_spec(rng, 3)
    rows = sorted(rng.sample(range(4**3), differing))
    for configs in _orders(3):
        report = compute_report(spec, configs, METHODS)
        bad = _perturbed(report, odd, rows)
        out = report_json(bad)
        assert out == json.dumps(report_dict(bad))
        listed = [(r["alpha"], r["beta"]) for r in json.loads(out)["disagreements"]]
        configs = [report.configs[i] for i in rows[:MAX_DISAGREEMENTS]]
        assert listed == [(list(c.alpha), list(c.beta)) for c in configs]


def test_a_grid_report_reads_each_label_tuple_once(monkeypatch):
    """``compute_report`` and ``report_json`` read a grid by its blocks:
    they never iterate or index it, and ``sweep`` reads each of the 2^N
    alpha and 2^N beta tuples once."""

    def refuse(*args):
        raise AssertionError("the grid was read config by config")

    reads = []
    real = lattice._read_labels
    monkeypatch.setattr(ConfigGrid, "__iter__", refuse)
    monkeypatch.setattr(ConfigGrid, "__getitem__", refuse)
    monkeypatch.setattr(lattice, "_read_labels", lambda *args: reads.append(args) or real(*args))
    spec = random_spec(random.Random(31), 6)
    report = compute_report(spec, all_configs(6), ("direct",))
    out = json.loads(report_json(report))
    assert len(out["configs"]) == 4**6 and report.agreement
    assert len(reads) <= 2 * 2**6
