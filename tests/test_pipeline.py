import random
import re

import pytest

from sixvb import lattice
from sixvb.lattice import all_configs
from sixvb.pipeline import METHODS, compute_report
from sixvb.sampling import random_spec


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
