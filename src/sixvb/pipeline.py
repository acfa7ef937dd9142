"""Cross-method computation reports.

One report runs the requested methods over the requested configurations,
compares them exactly, and carries per-method wall times; when the methods
disagree, its JSON form names the first configs that differ.  Rationals
serialize as "p/q" strings so a parsed report reproduces the exact values.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence

from .aba import z_aba_table
from .cba import z_cba_table
from .contraction import z_direct_table
from .exact import format_rational
from .lattice import ExternalConfig, LatticeSpec, config_to_dict, spec_to_dict

METHODS = ("direct", "aba", "cba")
MAX_DISAGREEMENTS = 10

_TABLES = {
    "direct": z_direct_table,
    "aba": z_aba_table,
    "cba": z_cba_table,
}


def spec_digest(spec: LatticeSpec) -> str:
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
    for m in methods:
        if m not in _TABLES:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    configs = list(configs)
    values: Dict[str, List[Fraction]] = {}
    timings: Dict[str, float] = {}
    for method in methods:
        start = time.perf_counter()
        values[method] = _TABLES[method](spec, configs)
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


def report_to_dict(report: RunReport) -> dict:
    """JSON form of a report; when the methods disagree it also lists the
    first ``MAX_DISAGREEMENTS`` configs whose values differ."""
    rows = []
    for i, config in enumerate(report.configs):
        row = config_to_dict(config)
        row["z"] = {m: format_rational(report.values[m][i]) for m in report.methods}
        rows.append(row)
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
