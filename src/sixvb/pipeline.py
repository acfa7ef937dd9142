"""Cross-method computation reports.

One report runs the requested methods over the requested configurations,
compares them exactly, and carries per-method wall times; when the methods
disagree, its JSON form names the first configs that differ.  Rationals
serialize as "p/q" strings so a parsed report reproduces the exact values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .aba import solve_aba
from .cba import wave_components
from .contraction import build_invariant
from .lattice import ExternalConfig, LatticeSpec, config_rows, spec_to_dict, sweep

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


def value_cells(report: RunReport) -> list:
    """``{method: "p/q"}`` for each config, methods in report order: zero
    values share one "0", and each nonzero value, a ``Fraction`` already,
    is printed by ``str``."""
    cells = [{} for _ in report.configs]
    for m in report.methods:
        for cell, x in zip(cells, report.values[m]):
            cell[m] = str(x) if x else "0"
    return cells


def report_to_dict(report: RunReport) -> dict:
    """JSON form of a report; when the methods disagree it also lists the
    first ``MAX_DISAGREEMENTS`` configs whose values differ."""
    rows = config_rows(report.configs)
    for row, cell in zip(rows, value_cells(report)):
        row["z"] = cell
    out = {
        "spec_digest": report.spec_digest,
        "methods": list(report.methods),
        "configs": rows,
        "agreement": report.agreement,
        "timings_s": {m: report.timings[m] for m in report.methods},
    }
    if not report.agreement:
        out["disagreements"] = [row for row in rows if len(set(row["z"].values())) > 1][
            :MAX_DISAGREEMENTS
        ]
    return out
