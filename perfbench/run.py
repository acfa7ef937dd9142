"""Benchmark of the sixvb command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Each run is a closed loop in one process
and one thread: it writes the workload's seeded lattice files, then calls
``sixvb.cli.main`` in-process, one call after the other, until ``--seconds``
have passed (always at least one unit of work).  Every value a timed call
prints is checked exactly against an independent route.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (END_TO_END).  With ``--trace 1`` a smaller
fixed amount of the same work is re-created one stage at a time from the
public functions of each module, each call timed from outside, and the
metrics are the per-layer ones (PER_LAYER).  The lines before the JSON give
the same results under the names used in GLOSSARY.md, and the environment.
GLOSSARY.md says why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_ROUNDS = 5
VERIFY_DRAWS = 10
# Lattices re-created stage by stage in a traced run of many-lattices.
TRACED_INSTANCES = 50


@dataclass(frozen=True)
class Workload:
    """Line counts of the lattice pool, cycled; pool size; whether each
    lattice also gets one random ice-rule configuration."""

    shape: tuple
    pool: int
    with_config: bool = False


# Pools are larger than a run uses today so that a faster program still
# meets a fresh lattice on every call; a run stops early if one runs out.
# many-lattices cycles N = 1, 2, 3, 3, 4 so that the median falls inside
# the N=3 class and the 90th percentile inside the N=4 class, not on a
# boundary between two sizes.
WORKLOADS = {
    "sweep-n6": Workload(shape=(6,), pool=32),
    "sweep-cba": Workload(shape=(5,), pool=8),
    "many-lattices": Workload(shape=(1, 2, 3, 3, 4), pool=600, with_config=True),
    "verify": Workload(shape=(), pool=0),
}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("unit_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

VERIFY_SUITES = ("weights", "fcr", "baxter", "invariance", "reduction")

PER_LAYER = (
    ("lattice.validate_spec.s", "s"),
    ("lattice.ice_rule_satisfied.s", "s"),
    ("lattice.magnon_positions.s", "s"),
    ("lattice.share", "ratio"),
    ("contraction.plan_moves.s", "s"),
    ("contraction.moves", "count"),
    ("contraction.build_invariant.s", "s"),
    ("contraction.moves_per_s", "1/s"),
    ("monodromy.reference_state.s", "s"),
    ("monodromy.apply_open_b.s", "s"),
    ("monodromy.apply_open_b.calls", "count"),
    ("monodromy.external_component.s", "s"),
    ("aba.solve_aba.s", "s"),
    ("aba.solve_aba.self_s", "s"),
    ("cba.spec_wave_engine.s", "s"),
    ("cba.upsilon.s", "s"),
    ("cba.upsilon.calls", "count"),
    ("cba.position_sets", "count"),
    ("cba.upsilon.hit_ratio", "ratio"),
    ("cba.wave_terms", "count"),
    ("cba.wave_terms_per_s", "1/s"),
    ("pipeline.compute_report.s", "s"),
    ("pipeline.overhead_s", "s"),
    ("pipeline.report_to_dict.s", "s"),
    ("cli.load_s", "s"),
    ("cli.json_s", "s"),
    *((f"verify.{suite}.{kind}", unit) for suite in VERIFY_SUITES for kind, unit in (("s", "s"), ("checks", "count"))),
    ("sampling.random_spec.s", "s"),
    ("trace.overhead_s", "s"),
)

# Stages of the three routes as the program runs them; the staged
# re-creation of solve_aba's kernel (reference_state, apply_open_b) is extra
# work done only to split its time, so it is left out of the route total.
ROUTE_STAGES = (
    "lattice.validate_spec",
    "lattice.ice_rule_satisfied",
    "lattice.magnon_positions",
    "contraction.plan_moves",
    "contraction.build_invariant",
    "monodromy.external_component",
    "aba.solve_aba",
    "cba.spec_wave_engine",
    "cba.upsilon",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken run)."""


# -- program under test ---------------------------------------------------------

@dataclass
class Program:
    """The sixvb modules the benchmark calls."""

    cli: object
    lattice: object
    sampling: object
    contraction: object
    monodromy: object
    aba: object
    cba: object
    pipeline: object
    verify: object


def load_program() -> Program:
    """Import sixvb from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "sixvb" / "__init__.py").is_file():
        raise BenchError(f"no sixvb package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        mods = {
            name: importlib.import_module(f"sixvb.{name}")
            for name in (f.name for f in fields(Program))
        }
    except ImportError as exc:
        raise BenchError(f"cannot import sixvb: {exc}") from exc
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"sixvb was imported from {origin}, not from {SRC}")
    return Program(**mods)


def import_seconds() -> float:
    """Time of ``import sixvb`` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import sixvb; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise BenchError(f"import sixvb failed in a child process: {done.stderr.strip()}")
    return float(done.stdout.strip())


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "BPBA_THREADS": os.environ.get("BPBA_THREADS", "unset"),
    }


# -- measurement helpers ----------------------------------------------------------

def tail_percentile(values, p: float, min_above: int = 10) -> float:
    """Nearest-rank p-th percentile; refuses unless at least ``min_above``
    samples lie above the reported rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(xs)))
    if len(xs) - rank < min_above:
        raise ValueError(
            f"p{p:g} of {len(xs)} samples has {len(xs) - rank} above it; need {min_above}"
        )
    return xs[rank - 1]


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


def count_mismatches(got, expected, size: int) -> int:
    """Rows of ``size`` that differ; all of them when a side is missing (its
    call failed) or has another length.  Rows hold exact "p/q" strings."""
    if got is None or expected is None or len(got) != size or len(expected) != size:
        return size
    return sum(1 for a, b in zip(got, expected) if a != b)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Trace:
    """Seconds and call counts per stage, taken around calls from outside."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - start
            self.calls[name] += 1


class NoTrace:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Tally:
    """Checked operations of one run and the timed units of work."""

    attempted: int = 0
    failed: int = 0
    items: int = 0
    unit_seconds: list = field(default_factory=list)

    def check(self, got, expected, size: int) -> None:
        self.attempted += size
        self.failed += count_mismatches(got, expected, size)


# -- set-up -------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    path: str
    alpha: tuple = ()
    beta: tuple = ()


def write_lattices(prog: Program, workdir: Path, seed: int, load: Workload, trace) -> list:
    """Draw, write, load and validate the workload's pool of distinct lattices."""
    rng = random.Random(seed)
    seen = set()
    out = []
    for i in range(load.pool):
        n = load.shape[i % len(load.shape)]
        while True:
            spec = trace.call("sampling.random_spec", prog.sampling.random_spec, rng, n)
            text = json.dumps(prog.lattice.spec_to_dict(spec))
            if text not in seen:
                seen.add(text)
                break
        alpha = beta = ()
        if load.with_config:
            config = prog.sampling.random_ice_config(rng, spec)
            alpha, beta = config.alpha, config.beta
        path = workdir / f"lattice-{i:04d}.json"
        path.write_text(text, encoding="utf-8")
        loaded = prog.lattice.spec_from_dict(json.loads(path.read_text(encoding="utf-8")))
        report = prog.lattice.validate_spec(loaded)
        if not report.ok:
            raise BenchError(f"{path.name} is invalid: {report.violations}")
        out.append(Lattice(str(path), alpha, beta))
    return out


def set_up(prog: Program, workdir: Path, seed: int, load: Workload):
    """Median over SETUP_ROUNDS of import time plus lattice set-up; the
    lattices of the last round are the ones the run uses."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        imported = import_seconds()
        start = time.perf_counter()
        lattices = write_lattices(prog, workdir, seed, load, NoTrace())
        rounds.append(imported + time.perf_counter() - start)
    return statistics.median(rounds), lattices


# -- the command line, in-process -----------------------------------------------------

def call_cli(prog: Program, argv: list):
    """One timed ``sixvb`` call: (seconds, exit code, standard output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = prog.cli.main(argv)
    except Exception:  # a crash is a failed operation, not a broken run
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code, out.getvalue()


def compute_argv(lat: Lattice, method: str) -> list:
    argv = ["compute", lat.path, "--method", method, "--json"]
    if lat.alpha:
        argv += ["--alpha", ",".join(map(str, lat.alpha)), "--beta", ",".join(map(str, lat.beta))]
    else:
        argv.append("--all-configs")
    return argv


def report_rows(code: int, stdout: str, method: str):
    """(alpha, beta, "p/q") rows of one route from ``compute --json``, or
    None when the call failed."""
    if code != 0:
        return None
    try:
        data = json.loads(stdout)
        return [(tuple(r["alpha"]), tuple(r["beta"]), r["z"][method]) for r in data["configs"]]
    except (ValueError, KeyError, TypeError):
        return None


def all_routes_agree(code: int, stdout: str) -> bool:
    """``compute --method all`` exited 0, reported agreement, and printed one
    identical value per route on every row."""
    if code != 0:
        return False
    try:
        data = json.loads(stdout)
        return data["agreement"] is True and all(
            len(set(row["z"][m] for m in ("direct", "aba", "cba"))) == 1 for row in data["configs"]
        )
    except (ValueError, KeyError, TypeError):
        return False


def verify_lines(stdout: str) -> list:
    """(check name, passed, total) for each check line of ``verify``."""
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] in ("pass", "FAIL") and "/" in parts[1]:
            passed, total = parts[1].split("/")
            rows.append((parts[0], int(passed), int(total)))
    return rows


def verify_argv(seed: int) -> list:
    return ["verify", "--suite", "all", "--draws", str(VERIFY_DRAWS), "--seed", str(seed)]


def verify_failures(code: int, rows: list) -> int:
    """Failing identity draws; a nonzero exit without one, or output without
    any check line, counts once."""
    failed = sum(total - passed for _, passed, total in rows)
    return failed if failed or (code == 0 and rows) else 1


# -- timed workloads ------------------------------------------------------------------

def run_sweep_n6(prog, lattices, seed, deadline, tally, lines):
    size = 4 ** 6
    seconds = {"direct": [], "aba": []}
    for lat in lattices:
        rows = {}
        for method in seconds:
            t, code, out = call_cli(prog, compute_argv(lat, method))
            seconds[method].append(t)
            rows[method] = report_rows(code, out, method)
        tally.check(rows["aba"], rows["direct"], size)
        tally.items += 2 * size
        tally.unit_seconds.append(seconds["direct"][-1] + seconds["aba"][-1])
        if time.perf_counter() >= deadline:
            break
    k = len(tally.unit_seconds)
    for method in seconds:
        rate = size / statistics.median(seconds[method])
        lines.append((f"{method}.configs_per_s", rate, "1/s", f"median of {k} lattices x {size} configs"))


def run_sweep_cba(prog, lattices, seed, deadline, tally, lines):
    size = 4 ** 5
    for lat in lattices:
        t, code, out = call_cli(prog, compute_argv(lat, "cba"))
        _, ocode, oout = call_cli(prog, compute_argv(lat, "direct"))  # untimed oracle
        oracle = report_rows(ocode, oout, "direct")
        tally.check(report_rows(code, out, "cba"), oracle, size)
        tally.items += size
        tally.unit_seconds.append(t)
        if time.perf_counter() >= deadline:
            break
    k = len(tally.unit_seconds)
    lines.append(("cba.configs_per_s", size / statistics.median(tally.unit_seconds), "1/s",
                  f"median of {k} lattices x {size} configs"))


def run_many_lattices(prog, lattices, seed, deadline, tally, lines):
    for lat in lattices:
        t, code, out = call_cli(prog, compute_argv(lat, "all"))
        tally.attempted += 1
        tally.failed += 0 if all_routes_agree(code, out) else 1
        tally.items += 1
        tally.unit_seconds.append(t)
        if time.perf_counter() >= deadline:
            break
    xs = tally.unit_seconds
    lines.append(("instance_p50_s", statistics.median(xs), "s", f"{len(xs)} lattices"))
    try:
        lines.append(("instance_p90_s", tail_percentile(xs, 90), "s", f"{len(xs)} lattices"))
    except ValueError as exc:
        lines.append(("instance_p90_s", float("nan"), "s", str(exc)))
    lines.append(("instances_per_s", len(xs) / sum(xs), "1/s", f"{len(xs)} lattices"))


def run_verify(prog, lattices, seed, deadline, tally, lines):
    rng = random.Random(seed)
    while True:
        t, code, out = call_cli(prog, verify_argv(rng.randrange(2 ** 31)))
        rows = verify_lines(out)
        checks = sum(total for _, _, total in rows)
        tally.attempted += max(checks, 1)
        tally.failed += verify_failures(code, rows)
        tally.items += checks
        tally.unit_seconds.append(t)
        if time.perf_counter() >= deadline:
            break
    lines.append(("verify.checks_per_s", tally.items / sum(tally.unit_seconds), "1/s",
                  f"{len(tally.unit_seconds)} calls, draws {VERIFY_DRAWS}"))


# -- traced run: each route re-created one stage at a time ----------------------------

def staged_readout(prog, tr, spec, state, configs):
    """External components of a route's state, normalised at the reference."""
    ref = prog.lattice.reference_config(spec.n)
    norm = tr.call("monodromy.external_component", prog.monodromy.external_component, state, spec, ref)
    if norm == 0:
        raise BenchError("reference component vanished")
    out = []
    for config in configs:
        if not tr.call("lattice.ice_rule_satisfied", prog.lattice.ice_rule_satisfied, spec, config):
            out.append(Fraction(0))
        else:
            comp = tr.call("monodromy.external_component", prog.monodromy.external_component, state, spec, config)
            out.append(comp / norm)
    return out


def staged_direct(prog, tr, spec, configs):
    plan = tr.call("contraction.plan_moves", prog.contraction.plan_moves, spec)
    tr.counts["contraction.moves"] += len(plan.moves)
    state = tr.call("contraction.build_invariant", prog.contraction.build_invariant, spec, plan)
    return staged_readout(prog, tr, spec, state, configs)


def staged_aba(prog, tr, spec, configs):
    """``solve_aba``, then its kernel again one creation operator at a time
    to split its time; the values are read from the re-created state."""
    result = tr.call("aba.solve_aba", prog.aba.solve_aba, spec)
    state = tr.call("monodromy.reference_state", prog.monodromy.reference_state, spec)
    for z in reversed(result.roots.roots):
        state = tr.call("monodromy.apply_open_b", prog.monodromy.apply_open_b, spec, z, state)
    return staged_readout(prog, tr, spec, state, configs)


def staged_cba(prog, tr, spec, configs):
    engine = tr.call("cba.spec_wave_engine", prog.cba.spec_wave_engine, spec)
    ref_positions = tuple(sorted(c.end for c in spec.chords))
    seen = {ref_positions}
    ref = tr.call("cba.upsilon", engine.upsilon, ref_positions)
    if ref == 0:
        raise BenchError("reference wave value vanished")
    out = []
    for config in configs:
        if not tr.call("lattice.ice_rule_satisfied", prog.lattice.ice_rule_satisfied, spec, config):
            out.append(Fraction(0))
            continue
        x = tr.call("lattice.magnon_positions", prog.lattice.magnon_positions, spec, config)
        seen.add(x)
        sign = -1 if sum(1 for b in config.beta if b == 2) % 2 else 1
        out.append(sign * tr.call("cba.upsilon", engine.upsilon, x) / ref)
    tr.counts["cba.position_sets"] += len(seen)
    tr.counts["cba.wave_terms"] += len(seen) * 2 ** spec.n * math.factorial(spec.n)
    return out


STAGED = {"direct": staged_direct, "aba": staged_aba, "cba": staged_cba}


def staged_compute(prog, tr, lat: Lattice, methods):
    """``compute`` re-created stage by stage, and ``pipeline.compute_report``
    run on the same input outside the staged chain to split the pipeline's
    own time from the routes'.  Returns exact "p/q" rows per route of both."""
    start = time.perf_counter()
    spec = tr.call("cli.load", lambda: prog.lattice.spec_from_dict(
        json.loads(Path(lat.path).read_text(encoding="utf-8"))))
    if not tr.call("lattice.validate_spec", prog.lattice.validate_spec, spec).ok:
        raise BenchError(f"{lat.path} is invalid")
    if lat.alpha:
        configs = [prog.lattice.ExternalConfig(lat.alpha, lat.beta)]
    else:
        configs = list(prog.lattice.all_configs(spec.n))
    values = {m: STAGED[m](prog, tr, spec, configs) for m in methods}
    run = prog.pipeline.RunReport(
        spec_digest=prog.pipeline.spec_digest(spec),
        methods=tuple(methods),
        configs=configs,
        values=values,
        timings={m: 0.0 for m in methods},
        agreement=all(values[m] == values[methods[0]] for m in methods),
    )
    data = tr.call("pipeline.report_to_dict", prog.pipeline.report_to_dict, run)
    tr.call("cli.json", json.dumps, data, indent=2)
    tr.seconds["staged_chain"] += time.perf_counter() - start

    t0 = time.perf_counter()
    piped = tr.call("pipeline.compute_report", prog.pipeline.compute_report, spec, configs, methods)
    tr.seconds["pipeline.overhead"] += time.perf_counter() - t0 - sum(piped.timings.values())

    def rows(vals):
        return {m: [(c.alpha, c.beta, str(v)) for c, v in zip(configs, vals[m])] for m in methods}

    return rows(values), rows(piped.values)


def trace_compute(prog, tr, lat, methods_per_call, tally):
    """CLI calls (untraced) and their staged re-creation.  The staged rows and
    those of ``compute_report`` must equal the printed ones exactly, and
    every route the first."""
    printed = {}
    for methods in methods_per_call:
        method = "all" if len(methods) > 1 else methods[0]
        t, code, out = call_cli(prog, compute_argv(lat, method))
        tr.seconds["cli_calls"] += t
        staged, piped = staged_compute(prog, tr, lat, methods)
        size = len(staged[methods[0]])
        for m in methods:
            printed[m] = report_rows(code, out, m)
            tally.check(printed[m], staged[m], size)
            tally.check(printed[m], piped[m], size)
            tally.check(printed[m], printed[methods[0]], size)
    return printed


def traced_run(prog, name, workdir, seed, tally):
    tr = Trace()
    lattices = write_lattices(prog, workdir, seed, WORKLOADS[name], tr)
    if name == "sweep-n6":
        printed = trace_compute(prog, tr, lattices[0], (("direct",), ("aba",)), tally)
        tally.check(printed["aba"], printed["direct"], 4 ** 6)
    elif name == "sweep-cba":
        printed = trace_compute(prog, tr, lattices[0], (("cba",),), tally)
        _, ocode, oout = call_cli(prog, compute_argv(lattices[0], "direct"))
        tally.check(printed["cba"], report_rows(ocode, oout, "direct"), 4 ** 5)
    elif name == "many-lattices":
        for lat in lattices[:TRACED_INSTANCES]:
            trace_compute(prog, tr, lat, (("direct", "aba", "cba"),), tally)
    else:
        t, code, out = call_cli(prog, verify_argv(seed))
        tr.seconds["cli_calls"] += t
        start = time.perf_counter()
        staged = []
        for suite in VERIFY_SUITES:
            results = tr.call(f"verify.{suite}", prog.verify.SUITES[suite], seed, VERIFY_DRAWS)
            tr.counts[f"verify.{suite}.checks"] += sum(r.total for r in results)
            staged += [(r.name, r.total - len(r.failures), r.total) for r in results]
        tr.seconds["staged_chain"] += time.perf_counter() - start
        rows = verify_lines(out)
        tally.attempted += sum(total for _, _, total in rows)
        tally.failed += verify_failures(code, rows)
        tally.check(rows, staged, len(staged))
    return tr


def layer_metrics(tr: Trace) -> dict:
    s, calls, counts = tr.seconds, tr.calls, tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    route = sum(s[k] for k in ROUTE_STAGES)
    lattice = s["lattice.validate_spec"] + s["lattice.ice_rule_satisfied"] + s["lattice.magnon_positions"]
    values = {
        "lattice.share": ratio(lattice, route),
        "contraction.moves": counts["contraction.moves"],
        "contraction.moves_per_s": ratio(counts["contraction.moves"], s["contraction.build_invariant"]),
        "monodromy.apply_open_b.calls": calls["monodromy.apply_open_b"],
        "aba.solve_aba.self_s": s["aba.solve_aba"] - s["monodromy.apply_open_b"],
        "cba.upsilon.calls": calls["cba.upsilon"],
        "cba.position_sets": counts["cba.position_sets"],
        "cba.upsilon.hit_ratio": 1 - ratio(counts["cba.position_sets"], calls["cba.upsilon"]) if calls["cba.upsilon"] else 0.0,
        "cba.wave_terms": counts["cba.wave_terms"],
        "cba.wave_terms_per_s": ratio(counts["cba.wave_terms"], s["cba.upsilon"]),
        "pipeline.overhead_s": s["pipeline.overhead"],
        "cli.load_s": s["cli.load"],
        "cli.json_s": s["cli.json"],
        # The re-created solve_aba kernel is extra work, not tracing cost.
        "trace.overhead_s": s["staged_chain"] - s["cli_calls"]
        - s["monodromy.reference_state"] - s["monodromy.apply_open_b"],
    }
    for suite in VERIFY_SUITES:
        values[f"verify.{suite}.checks"] = counts[f"verify.{suite}.checks"]
    out = {}
    for name, unit in PER_LAYER:
        value = values[name] if name in values else s[name[: -len(".s")]]
        out[name] = {"value": value, "unit": unit}
    return out


# -- entry point ----------------------------------------------------------------------

TIMED = {
    "sweep-n6": run_sweep_n6,
    "sweep-cba": run_sweep_cba,
    "many-lattices": run_many_lattices,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    # The program's only concurrency knob; it gave no gain under the GIL, so
    # the benchmark always runs the program serially.
    os.environ.pop("BPBA_THREADS", None)
    try:
        prog = load_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    load = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    lines = []
    try:
        if args.trace:
            metrics = layer_metrics(traced_run(prog, args.workload, workdir, args.seed, tally))
        else:
            setup_s, lattices = set_up(prog, workdir, args.seed, load)
            deadline = time.perf_counter() + args.seconds
            TIMED[args.workload](prog, lattices, args.seed, deadline, tally, lines)
            rss = peak_rss_mb()
            ratio = failed_ratio(tally.failed, tally.attempted)
            lines += [
                ("setup_s", setup_s, "s", f"median of {SETUP_ROUNDS} set-ups"),
                ("failed_ratio", ratio, "ratio", f"{tally.failed} of {tally.attempted} checked operations"),
                ("peak_rss_mb", rss, "MB", "getrusage, this process"),
            ]
            values = {
                "setup_s": setup_s,
                "items_per_s": tally.items / sum(tally.unit_seconds),
                "unit_p50_s": statistics.median(tally.unit_seconds),
                "peak_rss_mb": rss,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    for name, value, unit, note in lines:
        print(f"{name} {value!r} {unit}  ({note})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
