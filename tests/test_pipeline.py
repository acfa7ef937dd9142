import itertools
import json
import random
import re
from dataclasses import replace

import pytest

from sixvb import lattice
from sixvb.lattice import all_configs
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


@pytest.mark.parametrize("n", range(6))
def test_report_json_is_the_reference_bytes_for_every_method_subset(n):
    """All 4^N configs, one seeded ice config and no config, N = 0 (the
    empty lattice) to 5, under each of the seven method subsets."""
    rng = random.Random(600 + n)
    spec = random_spec(rng, n)
    reports = [
        compute_report(spec, configs, METHODS)
        for configs in (all_configs(n), [random_ice_config(rng, spec)], [])
    ]
    assert [len(r.configs) for r in reports] == [4**n, 1, 0]
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
    report = compute_report(random_spec(rng, 3), all_configs(3), METHODS)
    rows = sorted(rng.sample(range(len(report.configs)), differing))
    bad = _perturbed(report, odd, rows)
    out = report_json(bad)
    assert out == json.dumps(report_dict(bad))
    listed = [(r["alpha"], r["beta"]) for r in json.loads(out)["disagreements"]]
    configs = [report.configs[i] for i in rows[:MAX_DISAGREEMENTS]]
    assert listed == [(list(c.alpha), list(c.beta)) for c in configs]
