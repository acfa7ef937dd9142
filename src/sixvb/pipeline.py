"""Cross-method computation reports.

One report runs the requested methods over the requested configurations,
compares them exactly, and carries per-method wall times; when the methods
disagree, its JSON form names the first configs that differ.  Rationals
serialize as "p/q" strings so a parsed report reproduces the exact values.
``report_json`` is the one writer of that JSON, and ``report_to_dict`` its
parse; text mode prints the same value columns (``value_columns``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .aba import solve_aba
from .cba import wave_components
from .contraction import build_invariant
from .lattice import ExternalConfig, LatticeSpec, spec_to_dict, sweep

# Each route maps (spec, ice-rule chain indices) to chain entries {index: component}.
ROUTES = {
    "direct": lambda spec, keys: build_invariant(spec).entries,
    "aba": lambda spec, keys: solve_aba(spec).bethe_state.entries,
    "cba": wave_components,
}
METHODS = tuple(ROUTES)
MAX_DISAGREEMENTS = 10


def spec_digest(spec: LatticeSpec) -> str:
    # Deferred: ``import sixvb`` loads this module for ``compute_report``,
    # and hashlib and json would add about 8 ms to it.
    import hashlib
    import json

    canonical = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunReport:
    spec_digest: str
    methods: tuple
    configs: List[ExternalConfig]
    values: Dict[str, List[Fraction]]
    timings: Dict[str, float]
    agreement: bool


def compute_report(
    spec: LatticeSpec, configs: Sequence[ExternalConfig], methods: Sequence[str] = METHODS
) -> RunReport:
    if not methods:
        raise ValueError(f"no method given; choose from {METHODS}")
    for m in methods:
        if m not in ROUTES:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    configs = list(configs)
    values: Dict[str, List[Fraction]] = {}
    timings: Dict[str, float] = {}
    for method in methods:
        start = time.perf_counter()
        values[method] = sweep(spec, configs, ROUTES[method])
        timings[method] = time.perf_counter() - start

    first = values[methods[0]]
    agreement = all(values[m] == first for m in methods)
    return RunReport(
        spec_digest=spec_digest(spec),
        methods=tuple(methods),
        configs=configs,
        values=values,
        timings=timings,
        agreement=agreement,
    )


def value_columns(report: RunReport) -> list:
    """One column of "p/q" strings per method, in report order, for both
    ``compute --json`` and text mode: zero values share one "0", and each
    nonzero value, a ``Fraction`` already, is printed by ``str``."""
    return [[str(x) if x else "0" for x in report.values[m]] for m in report.methods]


def report_json(report: RunReport) -> str:
    """The one writer of a report's JSON, in the ``json.dumps`` layout but
    without the encoder: the labels are the ints 1 and 2, the digest, the
    method names and the "p/q" strings need no escape, and each timing is
    ``float.__repr__``, as ``json.dumps`` writes a float.  Each distinct
    label tuple is written once and each config row is one f-string.  When
    the methods disagree it also lists the first ``MAX_DISAGREEMENTS``
    configs whose values differ."""
    columns = value_columns(report)
    labels = {c.alpha for c in report.configs} | {c.beta for c in report.configs}
    text = {t: f"[{', '.join(map(str, t))}]" for t in labels}
    names = [f'"{m}"' for m in report.methods]
    cells = zip(*([f'{name}: "{x}"' for x in col] for name, col in zip(names, columns)))
    rows = [
        f'{{"alpha": {text[c.alpha]}, "beta": {text[c.beta]}, "z": {{{", ".join(cell)}}}}}'
        for c, cell in zip(report.configs, cells)
    ]
    timings = ", ".join(
        f"{name}: {float.__repr__(report.timings[m])}" for name, m in zip(names, report.methods)
    )
    out = (
        f'{{"spec_digest": "{report.spec_digest}", "methods": [{", ".join(names)}], '
        f'"configs": [{", ".join(rows)}], "agreement": {"true" if report.agreement else "false"}, '
        f'"timings_s": {{{timings}}}'
    )
    if not report.agreement:
        differing = [row for row, *xs in zip(rows, *columns) if len(set(xs)) > 1]
        out += f', "disagreements": [{", ".join(differing[:MAX_DISAGREEMENTS])}]'
    return out + "}"


def report_to_dict(report: RunReport) -> dict:
    """The parsed JSON form of a report."""
    import json

    return json.loads(report_json(report))
